"""Start the cli workload's child processes one at a time.

    python3 perfbench/spawn.py TIMEOUT_S

Reads one JSON argument list per line on stdin.  Runs each to its end, with
stdout discarded, and answers with one JSON line: the exit code (null when
the child was killed at TIMEOUT_S), its wall time, its stderr, and the peak
RSS of the children so far in kB.  A child's ru_maxrss includes the memory
of the process that started it, so the children are started from this small
process rather than from the benchmark, which holds sigforge and its outputs.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def main():
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        start = perf_counter()
        try:
            done = subprocess.run(
                json.loads(line), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout
            )
            code, err = done.returncode, done.stderr.decode("utf-8", "replace")
        except subprocess.TimeoutExpired:  # the child was killed and reaped
            code, err = None, f"timed out after {timeout} s\n"
        reply = {
            "code": code,
            "wall": perf_counter() - start,
            "stderr": err,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
