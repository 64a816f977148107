"""Self-test of the benchmark on a tiny run of each workload.

    python3 perfbench/selftest.py

For every workload it checks that
* an untraced and a traced run over a few scenes agree with the
  reference answers and print every metric ``BENCHMARK.json`` names,
  with its unit, plus ``failed_share`` in the summary;
* a CLI whose reports swap two users' routes has each changed call
  counted as failed, so ``failed_share`` rises;
and that ``run.py`` exits non-zero without a result line in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import time

import bench

SCENES = 4
SEED = 7


def _swap_json(text: str) -> str:
    record = json.loads(text)
    users = sorted(record["users"], key=lambda u: u["user"])
    if len(users) < 2 or users[0]["vertices"] == users[1]["vertices"]:
        return text
    for key in ("vertices", "route", "hops", "power", "power_db"):
        users[0][key], users[1][key] = users[1][key], users[0][key]
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _swap_csv(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    pairs = [(header.index(f"{c}_u1"), header.index(f"{c}_u2")) for c in ("power_db", "hops")]
    for row in rows[1:]:
        for a, b in pairs:
            row[a], row[b] = row[b], row[a]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class SwappingCli:
    """Wraps ``cli.main`` and swaps users 1 and 2 in every report.

    ``changed`` counts the measured calls whose report the swap altered;
    set-up's warm-up calls are swapped too but not checked, so they are
    left out.
    """

    def __init__(self, cli_main, sweep: bool):
        self.cli_main = cli_main
        self.swap = _swap_csv if sweep else _swap_json
        self.changed = 0

    def __call__(self, argv: list[str]) -> int:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli_main(argv)
        text = buf.getvalue()
        swapped = self.swap(text) if code in (0, 2) else text
        self.changed += swapped != text and "warmup" not in argv[1]
        sys.stdout.write(swapped)
        return code


def _run(name: str, trace: bool, cli_main=None) -> tuple[dict, str]:
    out = io.StringIO()
    result = bench.run(name, SEED, 0.1, trace, time.perf_counter(),
                       cli_main=cli_main, limit=SCENES, out=out)
    return result, out.getvalue()


def check_metrics(result: dict, specs: list[dict], summary: str, label: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} has no numeric value")
    for name in want:
        if name not in summary:
            raise AssertionError(f"{label}: {name} missing from the printed summary")


def check_bare_directory() -> None:
    """run.py must fail, printing no result, without the package sources."""
    bare = bench.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "traces", "__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{bench.BENCH_DIR.name}/run.py", "--workload", "corridors",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(
            f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"
        )


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(bench.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} differ from {sorted(bench.WORKLOADS)}")
    for name in names:
        result, summary = _run(name, trace=False)
        if result["failed"]:
            raise AssertionError(f"{name}: clean run failed\n{summary}")
        check_metrics(result, spec["end_to_end"], summary, f"{name} untraced")
        if "failed_share" not in summary:
            raise AssertionError(f"{name}: failed_share missing from the printed summary")

        result, summary = _run(name, trace=True)
        if result["failed"]:
            raise AssertionError(f"{name}: clean traced run failed\n{summary}")
        check_metrics(result, spec["per_layer"], summary, f"{name} traced")

        sys.path.insert(0, str(bench.SRC))
        from beamroute import cli

        swapping = SwappingCli(cli.main, bool(bench.WORKLOADS[name].sweep))
        result, summary = _run(name, trace=False, cli_main=swapping)
        if not swapping.changed:
            raise AssertionError(f"{name}: no report had two users to swap; pick another SEED")
        if result["failed"] != swapping.changed:
            raise AssertionError(
                f"{name}: {swapping.changed} swapped reports but {result['failed']} failed calls"
            )
        print(f"{name}: ok ({result['attempted']} calls, "
              f"{result['failed']} swapped reports caught)")
    check_bare_directory()
    print("bare directory: ok (non-zero exit, no result line)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
