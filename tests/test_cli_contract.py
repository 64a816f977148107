"""Property test of the command line's contract.

Whatever the scene and the options, ``main`` exits 0, 1 or 2; an exit
1 prints exactly one line, a JSON object whose one key is ``error``;
and no report carries a dB value that is not a finite float, nor
``Infinity`` or ``NaN`` anywhere in its JSON.

Scenes come from the generator specs (small ones, and ones over the
node cap), from neighbour chains long enough for their powers to leave
float range, and from malformed documents, one of them nested too
deeply to parse.  Options take small valid values, and also huge,
negative and non-numeric ones.  A valid scene may still exit 1 where
its powers leave float range.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamroute.cli import MAX_GENERATED_NODES, MAX_SWEEP_VALUES, main
from scenefab import neighbour_chain_document

DEMO = os.path.join(os.path.dirname(__file__), "..", "scenes", "demo.json")
HUGE = (10**18 + 3, 10**77, 10**300, 10**400)
JUNK = ("", "abc", "1.5", "1e3", "-", "nan", "inf", "0x10")
# nested deeper than json.loads recurses
DEEP = '{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}"


def numbers(lo: int, hi: int):
    """Option text: three times in four a small integer, else a huge,
    negative or non-numeric one."""
    extreme = st.one_of(
        st.sampled_from(HUGE).map(str),
        st.integers(-(10**6), 0).map(str),
        st.sampled_from(JUNK),
    )
    return st.integers(0, 3).flatmap(lambda i: st.integers(lo, hi).map(str) if i else extreme)


GENERATOR_SPECS = st.one_of(
    st.builds(
        "random({},{},{},{})".format,
        st.integers(1, 12), st.integers(0, 4), st.integers(10, 60), st.integers(1, 5),
    ),
    st.builds(
        "grid({},{},{},{})".format,
        st.integers(1, 4), st.integers(1, 4), st.integers(3, 7), st.integers(0, 2),
    ),
    # over the node cap, or not a spec at all
    st.sampled_from([
        f"random({MAX_GENERATED_NODES},1,10,3)",
        "grid(1000000000,1000000000,4,1)",
        "random(1,2)",
        "grid(a,b,c,d)",
        "random(nan,1,10,3)",
        "random(1e400,1,10,3)",
    ]),
)


@st.composite
def chain_documents(draw) -> str:
    """A neighbour chain: every route visits every surface."""
    spacing = draw(st.sampled_from([1.0, 4.0, 5.0]))
    params = {"los_threshold": 1.5 * spacing, "d0": spacing / 2}
    if draw(st.booleans()):
        params["M1"] = params["M2"] = draw(st.integers(1, 20))
    if draw(st.booleans()):
        params["beta"] = draw(st.sampled_from([0.9, 1e-3, 1e-300]))
    return neighbour_chain_document(draw(st.integers(1, 60)), spacing, **params)


JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=4),
)


@st.composite
def malformed_documents(draw) -> str:
    """Text that is not JSON, or a chain document with one entry spoilt."""
    if draw(st.booleans()):
        return draw(st.one_of(
            st.sampled_from(["", "{", "[]", "null", '{"nodes": []}', '{"nodes": {}}', DEEP]),
            st.text(max_size=20),
        ))
    doc = json.loads(neighbour_chain_document(draw(st.integers(1, 4)), 4.0))
    where = draw(st.sampled_from(["params", "node", "pos", "los_override"]))
    junk = draw(JSON_JUNK)
    if where == "params":
        key = draw(st.sampled_from(["N", "M1", "M2", "dA", "lambda", "beta", "los_threshold",
                                    "d0", "bogus"]))
        doc["params"][key] = junk
    elif where == "los_override":
        n = len(doc["nodes"])
        doc["los_override"] = draw(st.one_of(
            st.just(junk),
            st.lists(st.lists(st.integers(-1, 2), min_size=n, max_size=n),
                     min_size=n, max_size=n),
        ))
    else:
        node = draw(st.sampled_from(doc["nodes"]))
        if where == "pos":
            node["pos"][draw(st.integers(0, 2))] = junk
        else:
            node[draw(st.sampled_from(["id", "kind", "pos"]))] = junk
    return json.dumps(doc)


SWEEP_VALUES = st.one_of(
    st.sets(st.integers(1, 20), min_size=1, max_size=4).map(
        lambda vs: ",".join(map(str, sorted(vs)))
    ),
    st.builds("{}..{}".format, st.integers(-2, 3), st.integers(0, 12)),
    st.sampled_from([f"1..{MAX_SWEEP_VALUES + 1}", f"16,{10**77}", f"1,{10**400}", "1,x", ""]),
)


@st.composite
def invocations(draw) -> tuple[str | None, list[str]]:
    """A scene document to write (or None) and the arguments after it."""
    source = draw(st.sampled_from(["demo", "generate", "chain", "malformed"]))
    document = None
    if source == "demo":
        argv = ["--scene", DEMO]
    elif source == "generate":
        argv = ["--generate", draw(GENERATOR_SPECS)]
    else:
        document = draw(chain_documents() if source == "chain" else malformed_documents())
        argv = []
    argv += ["--algorithm", draw(st.sampled_from(
        ["proposed", "sequential", "min-pathloss", "max-cpb", "brute-force"]
    ))]
    options = {
        "--elements": numbers(1, 400),
        "--antennas": numbers(1, 64),
        "--paths": numbers(1, 30),
        "--seed": numbers(0, 50),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    sweep = draw(st.sampled_from([None, "M", "Q"]))
    if sweep:
        argv += ["--sweep", sweep, "--values", draw(SWEEP_VALUES)]
    argv += ["--output", draw(st.sampled_from(["table", "json", "csv"]))]
    return document, argv


def _reject_constant(name: str):
    raise AssertionError(f"{name} in a report")


def _finite_or_null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isfinite(value))


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("contract") / "scene.json")


@settings(max_examples=300)
@given(invocations())
# the demo's powers leave float range through a product, not through **
@example((None, ["--scene", DEMO, "--algorithm", "min-pathloss", "--elements", str(10**77),
                 "--output", "json"]))
@example((None, ["--scene", DEMO, "--algorithm", "sequential", "--antennas", str(10**300),
                 "--elements", str(10**10), "--output", "table"]))
@example((None, ["--scene", DEMO, "--algorithm", "brute-force", "--sweep", "M",
                 "--values", f"16,{10**77}", "--output", "csv"]))
@example((DEEP, ["--algorithm", "proposed", "--output", "json"]))
def test_main_keeps_its_contract(scene_path, invocation):
    document, argv = invocation
    if document is not None:
        with open(scene_path, "w", encoding="utf-8") as fh:
            fh.write(document)
        argv = ["--scene", scene_path, *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 1, 2)
    fmt = argv[argv.index("--output") + 1]
    if code == 1:
        assert text.endswith("\n") and text.count("\n") == 1
        record = json.loads(text, parse_constant=_reject_constant)
        assert isinstance(record, dict) and list(record) == ["error"]
    elif fmt == "json":
        record = json.loads(text, parse_constant=_reject_constant)
        for point in record.get("points", [record]):
            assert _finite_or_null(point.get("objective_db"))
            assert all(_finite_or_null(user["power_db"]) for user in point.get("users", ()))
    elif fmt == "csv":
        for row in csv.DictReader(io.StringIO(text)):
            for column, cell in row.items():
                if column == "objective_db" or column.startswith("power_db"):
                    assert cell == "" or math.isfinite(float(cell))
    else:
        # an infeasible objective prints as -inf; no value prints as inf or nan
        assert not re.search(r"(?<!-)\binf\b|\bnan\b", text, re.IGNORECASE)
