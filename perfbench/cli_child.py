"""Run one traced sigforge CLI command in this process.

    python3 perfbench/cli_child.py SPANS_FILE PROC_ID <sigforge cli arguments...>

Installs the span wrappers, runs ``cli.cli_main`` through a wrapper of its
own, appends the spans to SPANS_FILE and exits with cli_main's code.
"""

import sys

import sigforge.cli
from tracing import CLI_MAIN, Tracer


def main():
    spans_file, proc, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(CLI_MAIN, sigforge.cli.cli_main)(argv)
    tracer.dump(spans_file, proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
