"""Time the set-up a fresh process pays before its first sigforge operation.

    python3 perfbench/setup_child.py MODULE [CURVE...]

Imports MODULE (``sigforge`` or ``sigforge.cli``), then looks up each CURVE
in the registry; the first lookup validates every registry curve.  Prints
the seconds from before the import to after the last lookup.
"""

import importlib
import sys
from time import perf_counter


def main():
    start = perf_counter()
    importlib.import_module(sys.argv[1])
    registry = importlib.import_module("sigforge.registry")
    for name in sys.argv[2:]:
        registry.get_curve(name)
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
