"""``bench``: the repository's one benchmark (see ``bench/README.md``).

Six named workloads, ten end-to-end metrics, a per-layer ladder and a
traced run, all defined in ``BENCHMARK.json`` at the repo root and
driven through the engine's public surface only.  Entry points::

    python3 -m bench --workload sb-pact --seed 1 --seconds 10 --trace 0
    python3 -m bench run | trace | layers | compare A.json B.json

The package lives outside ``src/`` on purpose: it measures the engine,
it is not part of it.  Importing it puts the checkout's ``src/`` on
``sys.path`` so ``repro`` resolves to the code sitting next to the
benchmark, never to an installed copy.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes (span files, probe scratch files,
#: default result files) goes here; the directory is git-ignored.
OUT_DIR = os.path.join(BENCH_DIR, "out")

if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)
