"""Benchmark of in-process ``beamroute.cli.main`` calls on seeded scenes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 30 --trace 0

The workload's scene set is drawn from ``--seed``: one scene per
stratum of the workload's reference pool (see ``make_reference.py``),
in a seeded order.  Set-up generates those scenes, checks each against
its stored fingerprint and writes it to a scratch directory; the CLI
only ever sees the written files.  The timed part calls
``beamroute.cli.main`` once per scene, in whole passes over the set,
until about ``--seconds`` have passed; every answer is then checked
against the reference answer recorded for that scene.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of ``layers.py``.
The process is single-threaded and runs one workload.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one thread for numpy's BLAS pools too; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import bench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), _T0)
    except (bench.BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
