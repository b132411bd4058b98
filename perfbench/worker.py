"""Run one workload in this process and print its record as one JSON line.

Started by run.py, one process per workload. The BLAS thread count is set
here, before numpy loads, rather than inherited from the environment; that
is why the work itself lives in runner.py, imported only afterwards.

Modes:
  setup       set up once and report the set-up time
  run         set up, then run untraced passes measuring about --seconds
              (at least one)
  trace       set up, then a traced pass with tracemalloc on partition spans,
              then a pass that runs each case untraced and traced back to
              back; the traced runs give the per-layer times, and their
              counts must repeat those of the first traced pass
  trace-once  set up and run one traced pass
"""

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "trace-once"), required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--tmp", required=True, help="directory for the files cases write")
    return ap.parse_args()


if __name__ == "__main__":
    args = _args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import runner  # numpy, scipy and maskedlra load here

    print(json.dumps(runner.main(args, perf_counter() - start)))
