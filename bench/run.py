"""Entry point: ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root.  Without ``--workload`` it runs all five
workloads, traced and untraced, and prints every metric by name
(``--smoke`` does that at tiny sizes in a few seconds).  The same file
starts the benchmark's child processes (``--child``).
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit(f"bench: {_ROOT} holds no src/repro to measure")
    # sys.path[0] is bench/ itself: there ``trace.py`` would shadow the
    # standard library's.  Import this directory as the package ``bench``.
    sys.path[0] = _ROOT
    sys.path.insert(1, os.path.join(_ROOT, "src"))
    from bench.harness import main

    try:
        sys.exit(main(sys.argv[1:]))
    except KeyboardInterrupt:  # children and scratch are already gone
        sys.exit(130)
