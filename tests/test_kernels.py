import numpy as np
import pytest

from gridfreq.kernels import jump, k_step_map, rk4_segment


def _workload(rng, dim=30):
    A = rng.normal(size=(dim, dim)) / dim - 0.5 * np.eye(dim)
    b = rng.normal(size=dim)
    x0 = rng.normal(size=dim)
    return np.ascontiguousarray(A), b, x0


def test_recording_offsets():
    rng = np.random.default_rng(1)
    A, b, x0 = _workload(rng, dim=4)
    x = x0.copy()
    out = np.empty((3, 4))
    got = rk4_segment(A, b, x, 1e-3, 25, 7, 9, out)   # records after steps 7, 16, 25
    assert got == 3
    x2 = x0.copy()
    for steps, row in [(7, 0), (9, 1), (9, 2)]:
        rk4_segment(A, b, x2, 1e-3, steps, 0, 1, np.empty((0, 4)))
        assert np.abs(x2 - out[row]).max() <= 1e-15


def test_no_recording_sentinel():
    rng = np.random.default_rng(2)
    A, b, x0 = _workload(rng, dim=4)
    x = x0.copy()
    assert rk4_segment(A, b, x, 1e-3, 50, 0, 1, np.empty((0, 4))) == 0
    assert not np.array_equal(x, x0)


def _rk4_steps(A, b, x, h, n_steps):
    """Plain RK4, one step at a time."""
    for _ in range(n_steps):
        k1 = A @ x + b
        k2 = A @ (x + 0.5 * h * k1) + b
        k3 = A @ (x + 0.5 * h * k2) + b
        k4 = A @ (x + h * k3) + b
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return x


def test_numpy_kernel_matches_stepwise_rk4():
    rng = np.random.default_rng(0)
    A, b, x0 = _workload(rng)
    x = x0.copy()
    out = np.empty((100, len(x0)))
    assert rk4_segment(A, b, x, 1e-3, 10000, 100, 100, out) == 100
    ref = x0.copy()
    for row in range(100):
        ref = _rk4_steps(A, b, ref, 1e-3, 100)
        assert np.abs(out[row] - ref).max() <= 1e-12
    assert np.abs(x - ref).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_jump_leaves_nonfinite_state():
    A = 50.0 * np.eye(3)       # grows by about 5e21 per 1000 steps at h = 1e-3
    x = np.ones(3)
    out = np.empty((40, 3))
    got = rk4_segment(A, np.zeros(3), x, 1e-3, 40000, 1000, 1000, out)
    assert not np.isfinite(x).all()
    assert 0 < got < 40
    assert np.isfinite(out[:got]).all()


def test_k_step_map_and_jump_match_stepwise_rk4():
    """The k-step map with held inputs (several input columns), and jumps
    over repeated maps, against plain RK4 with b = B w."""
    rng = np.random.default_rng(3)
    A, _, x0 = _workload(rng, dim=12)
    B = rng.normal(size=(12, 3))
    w = rng.normal(size=3)
    h, k = 1e-3, 37
    D, G = k_step_map(A, B, h, k)
    ref = _rk4_steps(A, B @ w, x0, h, k)
    assert np.abs(x0 + D @ x0 + G @ w - ref).max() <= 1e-12
    x = x0.copy()
    jump(D, G @ w, x, 50)
    ref = _rk4_steps(A, B @ w, x0, h, 50 * k)
    assert np.abs(x - ref).max() <= 1e-12


def test_recorded_jump_matches_stepwise_map():
    """jump records x after application first_record + i * stride, at most
    out.shape[0] rows, and ends where k stepwise applications of (D, g) end."""
    rng = np.random.default_rng(4)
    D = rng.normal(size=(9, 9)) * 0.01 - 0.02 * np.eye(9)
    g = rng.normal(size=9) * 0.01
    x0 = rng.normal(size=9)
    steps = [x0]
    for _ in range(200):
        steps.append(steps[-1] + D @ steps[-1] + g)
    for first, stride, room in [(3, 7, 100), (1, 1, 200), (200, 5, 3), (10, 40, 2)]:
        x = x0.copy()
        out = np.full((room, 9), np.nan)
        got = jump(D, g, x, 200, first, stride, out)
        want = list(range(first, 201, stride))[:room]
        assert got == len(want)
        for row, s in enumerate(want):
            assert np.abs(out[row] - steps[s]).max() <= 1e-12
        assert np.isnan(out[got:]).all()
        assert np.abs(x - steps[200]).max() <= 1e-12
