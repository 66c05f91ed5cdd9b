"""gkconv benchmark: one seeded workload per process.

Run from the repository root:

    python3 benchmarks/run.py --workload ring6_l1 --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing is
installed. Info lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Outputs (trace files) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread: every workload is single-threaded and runs alone
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement budget; warm scoring fills what the "
                        "fixed training work leaves")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gkconv" / "__init__.py").is_file():
        print(f"gkconv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import json
    import traceback

    from harness import Tally, run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    status = 0
    try:
        tally = run_workload(w, args.seed, args.seconds, bool(args.trace), OUT)
    except Exception:
        traceback.print_exc()
        tally = Tally(attempted=1, failed=1)
        status = 1
    for line in tally.info:
        print(line)
    for name, m in tally.metrics.items():
        print(f"{name:<28} {m['value']!r} {m['unit']}")
    print(f"{w.name}: {tally.failed}/{tally.attempted} operations failed")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": tally.metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
