"""Benchmark library: workloads, scene sets, timed CLI calls and answer checks.

``run.py`` is the entry point; ``layers.py`` adds the traced run.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import scenes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "_work"

# set-up is repeated this many times per run and its median reported
SETUP_ROUNDS = 3
# whatever the program's speed, measuring stops after this many seconds
HARD_STOP_S = 140.0
# answers agree when their dB values differ by at most this much
DB_TOLERANCE = 1e-9
# call_tail_ms is the highest percentile with this many scenes beyond it
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here: missing sources or a changed workload."""


@dataclass(frozen=True)
class Workload:
    """One workload: proposed calls with ``paths`` candidates, or an M sweep."""

    name: str
    paths: int = 0
    sweep: tuple[int, ...] = ()

    @property
    def args(self) -> tuple[str, ...]:
        """CLI arguments after ``--scene``."""
        if self.sweep:
            values = ",".join(map(str, self.sweep))
            return ("--algorithm", "sequential", "--sweep", "M", "--values", values,
                    "--output", "csv")
        return ("--paths", str(self.paths), "--output", "json")


WORKLOADS = {
    "mesh": Workload("mesh", paths=50),
    "corridors": Workload("corridors", paths=10),
    "greedy-sweep": Workload("greedy-sweep", sweep=(16, 100, 400, 1600)),
}


def scene_document(workload: str, scene_seed: int, warmup: bool = False) -> str:
    """Scene text of one scene seed; ``warmup`` gives a small scene of the same layout."""
    if workload == "mesh":
        spec = dict(scenes.MESH, surfaces=12, users=2) if warmup else scenes.MESH
        return scenes.mesh_document(scene_seed, spec)
    spec = scenes.CORRIDORS if workload == "corridors" else scenes.GREEDY_CORRIDORS
    if warmup:
        spec = dict(spec, users=2, per_sector=3)
    return scenes.corridors_document(scene_seed, spec)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def select_scenes(reference: dict, seed: int) -> list[int]:
    """One scene seed from every stratum of the pool, in a seeded order."""
    rng = random.Random(f"{reference['workload']}:{seed}")
    picks = [rng.choice(stratum) for stratum in reference["strata"]]
    rng.shuffle(picks)
    return picks


# -- answers -----------------------------------------------------------


def _db(value) -> float | None:
    return None if value in (None, "") else float(value)


def parse_answer(workload: Workload, code: int, text: str) -> dict:
    """The values of one CLI report that the reference fixes.

    Proposed calls give the feasible flag, each user's vertex sequence
    and ``objective_db``; sweep calls give per point the feasible flag,
    ``objective_db``, each user's ``power_db`` and hop count (the CSV
    report carries no vertex sequences).
    """
    if code not in (0, 2):
        raise ValueError(f"exit code {code}: {text.strip()[:200]}")
    if not workload.sweep:
        record = json.loads(text)
        users = sorted(record["users"], key=lambda u: u["user"])
        answer = {
            "feasible": record["feasible"],
            "objective_db": record["objective_db"],
            "routes": [u["vertices"] for u in users],
        }
        all_feasible = answer["feasible"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        count = sum(1 for k in rows[0] if k.startswith("power_db_u")) if rows else 0
        points = []
        for row in rows:
            if row["error"]:
                raise ValueError(f"sweep point {row['value']} failed: {row['error']}")
            feasible = row["feasible"] == "1"
            users = range(1, count + 1) if feasible else ()
            points.append(
                {
                    "value": int(row["value"]),
                    "feasible": feasible,
                    "objective_db": _db(row["objective_db"]),
                    "power_db": [_db(row[f"power_db_u{k}"]) for k in users],
                    "hops": [int(row[f"hops_u{k}"]) for k in users],
                }
            )
        answer = {"points": points}
        all_feasible = all(p["feasible"] for p in points)
    if code != (0 if all_feasible else 2):
        raise ValueError(f"exit code {code} does not match the reported feasibility")
    return answer


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= DB_TOLERANCE


def mismatch(expected: dict, got: dict) -> str | None:
    """Why ``got`` disagrees with ``expected``, or None when it agrees.

    Keys absent from ``got`` are not compared.
    """
    if "points" in expected:
        if len(got["points"]) != len(expected["points"]):
            return "sweep point count differs"
        for e, g in zip(expected["points"], got["points"]):
            why = mismatch(e, g)
            if why:
                return f"M={e['value']}: {why}"
        return None
    if got.get("value", expected.get("value")) != expected.get("value"):
        return "sweep value differs"
    if got["feasible"] != expected["feasible"]:
        return f"feasible {got['feasible']}, expected {expected['feasible']}"
    if not _close(got["objective_db"], expected["objective_db"]):
        return f"objective_db {got['objective_db']}, expected {expected['objective_db']}"
    for key in ("routes", "hops"):
        if key in got and got[key] != expected[key]:
            return f"{key} {got[key]}, expected {expected[key]}"
    if "power_db" in got:
        if len(got["power_db"]) != len(expected["power_db"]) or not all(
            _close(a, b) for a, b in zip(got["power_db"], expected["power_db"])
        ):
            return f"power_db {got['power_db']}, expected {expected['power_db']}"
    return None


# -- set-up and timed calls ----------------------------------------------


# -- calibration ----------------------------------------------------------
#
# The host's speed drifts by up to 2x over spells of a few seconds (shared
# cores), which no amount of averaging inside a 30 s run removes.  Every
# timed call is therefore bracketed by a fixed path-search kernel written
# in the same style as the program (tuple keys, dict lookups, float sums),
# and its time is scaled by CALIBRATION_REF_S / (kernel time now).  The
# kernel is benchmark code, so only the machine can change its speed.

_CAL_N = 60
_CAL_SUCC = {i: tuple(range(i + 1, min(_CAL_N, i + 8))) for i in range(_CAL_N)}
_CAL_W = {(i, j): ((i * 31 + j * 17) % 23) / 7.0 - 1.0 for i in _CAL_SUCC for j in _CAL_SUCC[i]}
# kernel time (median of CALIBRATION_REPEATS) on the machine the figures
# in README.md come from, a 2-core x86-64 Xeon VM with Python 3.11
CALIBRATION_REF_S = 1.4e-3
CALIBRATION_REPEATS = 5


def _calibration_kernel() -> tuple:
    """Best path to the last vertex of a fixed DAG, re-summing each path."""
    best = {0: ((0.0,), 0, (0,))}
    for v in range(_CAL_N):
        entry = best.get(v)
        if entry is None:
            continue
        for j in _CAL_SUCC[v]:
            path = entry[2] + (j,)
            cost = 0.0
            for a, b in zip(path[:-1], path[1:]):
                cost += _CAL_W[a, b]
            cand = ((cost,), entry[1] + 1, path)
            if j not in best or cand < best[j]:
                best[j] = cand
    return best[_CAL_N - 1]


def calibrate() -> float:
    """Seconds the calibration kernel takes now (median of a few runs).

    The median tracked the program's speed better than the minimum or
    the mean in a side-by-side trial on a drifting host.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibration_scale(before: float) -> float:
    """Factor for a time measured between ``before = calibrate()`` and now."""
    return 2 * CALIBRATION_REF_S / (before + calibrate())


def call_cli(cli_main, argv: list[str]) -> tuple[float, int | None, str]:
    """One in-process CLI call: seconds taken, exit code (None if it raised), stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception:  # a raising call is a failed call, not a failed run
            code = None
            buf.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


def setup_round(workload: Workload, seed: int, workdir: Path, cli_main, limit: int | None):
    """Generate, fingerprint-check and write the run's scenes, then warm up."""
    reference = load_reference(workload.name)
    picks = select_scenes(reference, seed)[:limit]
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for scene_seed in picks:
        text = scene_document(workload.name, scene_seed)
        entry = reference["scenes"][str(scene_seed)]
        if scenes.fingerprint(text) != entry["fingerprint"]:
            raise BenchError(
                f"{workload.name} scene {scene_seed} no longer matches its fingerprint; "
                "the generator or numpy's RNG changed"
            )
        path = workdir / f"scene-{scene_seed}.json"
        path.write_text(text, encoding="utf-8")
        items.append((scene_seed, ["--scene", str(path), *workload.args], entry["answer"]))
    warm = workdir / "warmup.json"
    warm.write_text(scene_document(workload.name, 0, warmup=True), encoding="utf-8")
    _, code, out = call_cli(cli_main, ["--scene", str(warm), *workload.args])
    if code not in (0, 2):
        raise BenchError(f"warm-up call failed with exit code {code}: {out.strip()[:300]}")
    return items


def timed_passes(items, seconds: float, cli_main):
    """Whole passes over ``items`` until about ``seconds`` have passed.

    Another pass starts only while at least half a pass fits in the
    time left, so every scene is called equally often.
    """
    calls = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for scene_seed, argv, expected in items:
            gc.collect()
            before = calibrate()
            elapsed, code, out = call_cli(cli_main, argv)
            scale = calibration_scale(before)
            calls.append((scene_seed, elapsed, scale, code, out, expected))
            if time.perf_counter() - start > HARD_STOP_S:
                return calls
        now = time.perf_counter()
        if now - start >= seconds - (now - pass_start) / 2:
            return calls


def check_call(workload: Workload, code, out: str, expected: dict) -> str | None:
    if code is None:
        return "raised: " + out.strip().splitlines()[-1]
    try:
        got = parse_answer(workload, code, out)
    except (ValueError, KeyError) as exc:
        return str(exc)
    return mismatch(expected, got)


def tail_percentile(scene_count: int) -> float:
    """Highest percentile with TAIL_BEYOND of ``scene_count`` scenes beyond it."""
    return 100.0 * max(scene_count - TAIL_BEYOND, 1) / scene_count


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# -- entry point -----------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, started: float,
        cli_main=None, limit: int | None = None, out=sys.stdout) -> dict:
    """One benchmark run; prints a summary and returns the result object.

    ``started`` is the ``perf_counter`` reading when the process began
    importing, so ``setup_s`` includes the imports.  ``cli_main`` and
    ``limit`` (scenes per pass) serve the self-test.
    """
    if not (SRC / "beamroute" / "__init__.py").is_file():
        raise BenchError(f"no beamroute sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from beamroute import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"beamroute was imported from {cli.__file__}, not from {SRC}")
    cli_main = cli_main or cli.main
    import_s = time.perf_counter() - started
    workload = WORKLOADS[workload_name]
    workdir = WORK_DIR / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            gc.collect()
            start = time.perf_counter()
            items = setup_round(workload, seed, workdir, cli_main, limit)
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)
        if trace:
            import layers

            return layers.traced_run(workload, seed, items, seconds, cli_main, out)
        calls = timed_passes(items, seconds, cli_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for scene_seed, _, _, code, text, expected in calls:
        why = check_call(workload, code, text, expected)
        if why:
            failures.append((scene_seed, why))
    raw_ms = [c[1] * 1e3 for c in calls]
    times_ms = [c[1] * c[2] * 1e3 for c in calls]
    tail_pct = tail_percentile(len(items))
    metrics = {
        "calls_per_s": metric(len(calls) / (sum(times_ms) / 1e3), "1/s"),
        "call_p50_ms": metric(statistics.median(times_ms), "ms"),
        "call_tail_ms": metric(percentile(times_ms, tail_pct), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed_share = len(failures) / len(calls)
    passes = len(calls) / len(items)
    print(f"workload {workload_name}  seed {seed}  scenes {len(items)}  "
          f"calls {len(calls)}  passes {passes:g}", file=out)
    for name, m in metrics.items():
        print(f"  {name:<14s} {m['value']:.6g} {m['unit']}", file=out)
    print(f"  {'failed_share':<14s} {failed_share:.6g} ratio", file=out)
    print(f"  call_tail_ms is p{tail_pct:.2f} of {len(calls)} calls "
          f"({len(items)} scenes, {TAIL_BEYOND} beyond it per pass)", file=out)
    print(f"  call times are calibrated; uncalibrated: {len(calls) / sum(raw_ms) * 1e3:.6g} "
          f"calls/s, p50 {statistics.median(raw_ms):.6g} ms, tail "
          f"{percentile(raw_ms, tail_pct):.6g} ms; median scale "
          f"{statistics.median(c[2] for c in calls):.4f}", file=out)
    for scene_seed, why in failures[:10]:
        print(f"  FAILED scene {scene_seed}: {why}", file=out)
    return {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": metrics,
    }
