"""Property tests: exact CSV round trips and batched stencil weights."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cocontact.dynamics import Trajectory, _fd_weights, trajectory_to_csv  # noqa: E402

CHANNELS = ("holonomy", "sdot", "herglotz", "constraint")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 6))
    start = draw(st.floats(-1e6, 1e6))
    gaps = draw(hnp.arrays(float, N - 1, elements=st.floats(1e-6, 1e3)))
    times = start + np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(times) > 0))
    lifted = draw(hnp.arrays(float, (N, 3 * n + 2), elements=finite))
    lifted[:, 0] = times
    residuals = {
        name: draw(hnp.arrays(float, N, elements=st.floats(0.0, allow_infinity=False)))
        for name in CHANNELS
    }
    return Trajectory("unified", n, times, lifted, lifted, lifted, residuals)


@given(trajectories())
def test_csv_rows_read_back_bit_for_bit(traj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        trajectory_to_csv(traj, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
    assert len(lines) == 1 + len(traj)
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    width = traj.lifted.shape[1]
    assert rows[:, :width].tobytes() == traj.lifted.tobytes()
    for k, name in enumerate(CHANNELS):
        assert rows[:, width + k].tobytes() == traj.residuals[name].tobytes()


@st.composite
def windows(draw):
    B = draw(st.integers(1, 8))
    start = draw(hnp.arrays(float, B, elements=st.floats(-100.0, 100.0)))
    gaps = draw(hnp.arrays(float, (B, 4), elements=st.floats(1e-3, 10.0)))
    nodes = start[:, None] + np.concatenate((np.zeros((B, 1)), np.cumsum(gaps, axis=1)), axis=1)
    at = draw(hnp.arrays(np.intp, B, elements=st.integers(0, 4)))
    return nodes[np.arange(B), at], nodes


@given(windows(), st.integers(1, 3))
def test_batched_weights_equal_scalar_ones(window, m):
    z, nodes = window
    assert np.all(np.diff(nodes, axis=1) > 0)
    batched = _fd_weights(z, nodes, m)
    for k in range(len(z)):
        assert np.array_equal(batched[k], _fd_weights(z[k], nodes[k], m))
