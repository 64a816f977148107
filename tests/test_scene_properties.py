"""Property test of the LoS override's conversion and validation.

A symmetric 0/1 matrix with a zero diagonal sets ``Scene.los_masks``
whatever form it comes in: lists or tuples of ints, bools or floats,
or an int, bool or float ndarray.  A matrix with faults raises the
message of the first fault in the order the scene checks them:
rectangular, shape, entries, symmetric, diagonal.  Every fault is
tried alone and together with each one after it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from beamroute.scene import Scene, SceneError

# the faults, in the order their checks run, and the message of each
FAULTS = ("ragged", "size", "entry", "asymmetric", "diagonal")
MESSAGES = {
    "ragged": "los_override must be a rectangular matrix",
    "entry": "los_override entries must be 0 or 1",
    "asymmetric": "los_override must be symmetric",
    "diagonal": "los_override diagonal must be zero",
}
BAD_ENTRIES = (2, 0.5, "1", None, math.nan)


@st.composite
def symmetric_matrices(draw, min_size=1) -> list[list[int]]:
    """A symmetric 0/1 matrix of plain ints with a zero diagonal."""
    n = draw(st.integers(min_size, 10))
    upper = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return [[int(upper[min(i, j) * n + max(i, j)] and i != j) for j in range(n)]
            for i in range(n)]


def scene(override, n: int) -> Scene:
    """A row of n nodes 5 m apart, with the override as its LoS."""
    return Scene([(5.0 * i, 0.0, 0.0) for i in range(n)], n - 1, 0, los_override=override)


def raw_masks(matrix) -> tuple[int, ...]:
    """Bit j of row i set when j == i or entry (i, j) is 1."""
    n = len(matrix)
    return tuple(sum(1 << j for j in range(n) if j == i or matrix[i][j] == 1) for i in range(n))


@given(symmetric_matrices())
def test_every_form_of_a_matrix_gives_the_raw_masks(matrix):
    n = len(matrix)
    forms = [
        matrix,
        [[bool(x) for x in row] for row in matrix],
        [[float(x) for x in row] for row in matrix],
        tuple(map(tuple, matrix)),
        np.array(matrix, dtype=int),
        np.array(matrix, dtype=bool),
        np.array(matrix, dtype=float),
    ]
    expected = raw_masks(matrix)
    for form in forms:
        assert scene(form, n).los_masks == expected


@pytest.mark.parametrize("faults", [
    *((fault,) for fault in FAULTS),
    *((first, second) for k, first in enumerate(FAULTS) for second in FAULTS[k + 1:]),
], ids="+".join)
@settings(max_examples=25)
@given(matrix=symmetric_matrices(min_size=3), data=st.data())
def test_the_first_fault_in_check_order_is_reported(faults, matrix, data):
    n = len(matrix)
    # spoil in reverse check order, so no later fault can undo an earlier one
    m = [list(row) for row in matrix]
    if "diagonal" in faults:
        k = data.draw(st.integers(0, n - 1))
        m[k][k] = 1
    if "asymmetric" in faults:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[i][j] = 1 - m[i][j]
    if "entry" in faults:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        m[i][j] = data.draw(st.sampled_from(BAD_ENTRIES))
    if "size" in faults:
        if data.draw(st.booleans()):
            m = [[*row, 0] for row in m] + [[0] * (n + 1)]
        else:
            m = [row[:-1] for row in m[:-1]]
    if "ragged" in faults:
        row = m[data.draw(st.integers(0, len(m) - 1))]
        if data.draw(st.booleans()):
            row.append(0)
        else:
            row.pop()
    # the good entries as ints, bools or floats, the rows as lists or tuples
    kind = data.draw(st.sampled_from([int, bool, float]))
    rows = data.draw(st.sampled_from([list, tuple]))
    m = [rows(kind(x) if x in (0, 1) and type(x) is int else x for x in row) for row in m]

    first = next(fault for fault in FAULTS if fault in faults)
    size = (len(m), len(m[0]))
    message = MESSAGES.get(first, f"los_override must be {n}x{n}, got {size}")
    with pytest.raises(SceneError) as exc:
        scene(m, n)
    assert str(exc.value) == message
