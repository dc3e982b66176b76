"""``PYTHONPATH=src python -m bench [--seed N] [--smoke]`` — see ``bench/run.py``."""

import sys

from bench.harness import main

sys.exit(main(sys.argv[1:]))
