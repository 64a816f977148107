"""Record a workload's scene pool, fingerprints and reference answers.

    python3 perfbench/make_reference.py --workload mesh --scenes 40 \
        --stratum 4 --commit <short hash>

The pool is scene seeds ``0 .. scenes*stratum - 1``.  For each scene it
stores the document's fingerprint, the answer and the call time.  The
answer is taken from the recomposed pipeline of ``layers.py`` and must
agree with the CLI's report.  The call time is the median of
``REPEATS`` calibrated CLI calls (see ``bench.calibrate``) made in
separate passes over the pool, so a slow spell of the machine does not
misplace a scene.  The pool is then
sorted by call time and cut into ``scenes`` strata of ``stratum``
scenes each; a run draws one scene per stratum, so every seed gets a
scene set with the same spread of call times.

Run it only on the commit whose answers the benchmark should hold the
program to; the result goes to ``reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import sys

import bench
import scenes

# timed calls per pool scene; their median sorts the scene into a stratum
REPEATS = 3

GENERATORS = {
    "mesh": scenes.MESH,
    "corridors": scenes.CORRIDORS,
    "greedy-sweep": scenes.GREEDY_CORRIDORS,
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--scenes", type=int, required=True, help="scenes per run (strata)")
    p.add_argument("--stratum", type=int, default=4, help="pool scenes per stratum")
    p.add_argument("--commit", required=True, help="commit the answers come from")
    args = p.parse_args()

    sys.path.insert(0, str(bench.SRC))
    from beamroute import cli

    import layers

    workload = bench.WORKLOADS[args.workload]
    pool = list(range(args.scenes * args.stratum))
    workdir = bench.WORK_DIR / f"reference-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "scene.json"
    tracer = layers.Tracer()
    entries = {}
    times = {s: [] for s in pool}
    try:
        for rep in range(REPEATS):
            order = pool[:]
            random.Random(rep).shuffle(order)
            for scene_seed in order if rep else pool:
                text = bench.scene_document(args.workload, scene_seed)
                path.write_text(text, encoding="utf-8")
                argv = ["--scene", str(path), *workload.args]
                gc.collect()
                before = bench.calibrate()
                elapsed, code, out = bench.call_cli(cli.main, argv)
                times[scene_seed].append(elapsed * bench.calibration_scale(before) * 1e3)
                if rep:
                    continue
                got = bench.parse_answer(workload, code, out)
                answer = layers.recompose(tracer, scene_seed, workload, str(path))
                why = bench.mismatch(answer, got)
                if why:
                    raise SystemExit(f"scene {scene_seed}: CLI and recomposed pipeline disagree: {why}")
                entries[scene_seed] = {"fingerprint": scenes.fingerprint(text), "answer": answer}
            print(f"{args.workload}: pass {rep + 1} of {REPEATS} done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for s in pool:
        entries[s]["ref_ms"] = round(statistics.median(times[s]), 3)
    by_time = sorted(pool, key=lambda s: (entries[s]["ref_ms"], s))
    strata = [by_time[i : i + args.stratum] for i in range(0, len(by_time), args.stratum)]
    doc = {
        "workload": args.workload,
        "commit": args.commit,
        "generator": GENERATORS[args.workload],
        "cli_args": list(workload.args),
        "strata": [sorted(s) for s in strata],
        "scenes": {str(s): entries[s] for s in pool},
    }
    out = bench.REFERENCE_DIR / f"{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}: {len(entries)} scenes in {len(strata)} strata", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
