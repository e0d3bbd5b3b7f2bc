import numpy as np
import pytest

from gridfreq.kernels import jump, k_step_map, one_step_map


def _workload(rng, dim=30):
    A = rng.normal(size=(dim, dim)) / dim - 0.5 * np.eye(dim)
    b = rng.normal(size=dim)
    x0 = rng.normal(size=dim)
    return np.ascontiguousarray(A), b, x0


def _segment(A, b, x, h, n_steps, first_record, stride, out):
    """n_steps RK4 steps of x' = A x + b: one jump of RK4's one-step map,
    with b as the single column of the input matrix and w = 1."""
    D, G = one_step_map(A, b[:, None], h)
    return jump(D, G, np.ones(1), x, n_steps, first_record, stride, out)


def test_recording_offsets():
    rng = np.random.default_rng(1)
    A, b, x0 = _workload(rng, dim=4)
    x = x0.copy()
    out = np.empty((3, 4))
    got = _segment(A, b, x, 1e-3, 25, 7, 9, out)   # records after steps 7, 16, 25
    assert got == 3
    x2 = x0.copy()
    for steps, row in [(7, 0), (9, 1), (9, 2)]:
        _segment(A, b, x2, 1e-3, steps, 0, 1, np.empty((0, 4)))
        assert np.abs(x2 - out[row]).max() <= 1e-15


def test_no_recording_sentinel():
    rng = np.random.default_rng(2)
    A, b, x0 = _workload(rng, dim=4)
    x = x0.copy()
    assert _segment(A, b, x, 1e-3, 50, 0, 1, np.empty((0, 4))) == 0
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
    assert _segment(A, b, x, 1e-3, 10000, 100, 100, out) == 100
    ref = x0.copy()
    for row in range(100):
        ref = _rk4_steps(A, b, ref, 1e-3, 100)
        assert np.abs(out[row] - ref).max() <= 1e-12
    assert np.abs(x - ref).max() <= 1e-12
    # unrecorded, the same 10 000 steps are one squared jump
    x = x0.copy()
    assert _segment(A, b, x, 1e-3, 10000, 0, 1, out[:0]) == 0
    assert np.abs(x - ref).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_jump_leaves_nonfinite_state():
    A = 50.0 * np.eye(3)       # grows by about 5e21 per 1000 steps at h = 1e-3
    x = np.ones(3)
    out = np.empty((40, 3))
    got = _segment(A, np.zeros(3), x, 1e-3, 40000, 1000, 1000, out)
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
    D, G = k_step_map(*one_step_map(A, B, h), k)
    ref = _rk4_steps(A, B @ w, x0, h, k)
    assert np.abs(x0 + D @ x0 + G @ w - ref).max() <= 1e-12
    x = x0.copy()
    jump(D, G, w, x, 50)
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
        got = jump(D, g[:, None], np.ones(1), x, 200, first, stride, out)
        want = list(range(first, 201, stride))[:room]
        assert got == len(want)
        for row, s in enumerate(want):
            assert np.abs(out[row] - steps[s]).max() <= 1e-12
        assert np.isnan(out[got:]).all()
        assert np.abs(x - steps[200]).max() <= 1e-12


def _stepwise_map(dim, n_steps, seed=5):
    """A map x -> x + D x + g at state size dim, a start x0 and its states
    after 0, 1, ..., n_steps single applications."""
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(dim, dim)) * (0.002 / np.sqrt(dim)) - 0.005 * np.eye(dim)
    g = rng.normal(size=dim) * 0.01
    x0 = rng.normal(size=dim)
    steps = np.empty((n_steps + 1, dim))
    steps[0] = x0
    for s in range(n_steps):
        steps[s + 1] = steps[s] + D @ steps[s] + g
    return D, g, steps


@pytest.mark.parametrize("dim", [6, 30])
@pytest.mark.parametrize("stride", [1, 7])
def test_block_rows_match_stepwise_map(stride, dim):
    """Rows written in blocks by lag maps, at every row count around the
    block sizes: each row, and the state after the unrecorded tail, is
    within 1e-12 of single applications. At dim 6, 1200 rows reach the top
    lag of _REC_BLOCK = 512 strides. The record buffer has room for the
    requested rows only, though the jump could record two more."""
    first = 3
    D, g, steps = _stepwise_map(dim, first + stride * 1202 + 5)
    for rows in (1, 2, 3, 511, 512, 513, 1200):
        k = first + stride * (rows + 1) + 5
        x = steps[0].copy()
        out = np.full((rows, dim), np.nan)
        assert jump(D, g[:, None], np.ones(1), x, k, first, stride, out, {}) == rows
        want = steps[first:first + stride * rows:stride]
        assert np.abs(out - want).max() <= 1e-12
        assert np.abs(x - steps[k]).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_block_rows_stop_at_first_nonfinite_row():
    """A stride-1 overflow: blocks write rows from rows a lag earlier, so a
    finite row can follow a non-finite one. The count ends at the first
    non-finite row, within one row of where single RK4 steps overflow."""
    A = 50.0 * np.eye(3)
    x = np.ones(3)
    out = np.empty((20000, 3))
    got = _segment(A, np.zeros(3), x, 1e-3, 20000, 1, 1, out)
    assert np.isfinite(out[:got]).all() and not np.isfinite(out[got]).all()
    assert not np.isfinite(x).all()
    D, _ = one_step_map(A, np.zeros((3, 1)), 1e-3)
    v, steps = np.ones(3), 0
    while np.isfinite(v).all():
        v = v + D @ v
        steps += 1
    assert abs(got - (steps - 1)) <= 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_block_rows_after_overflow_are_not_counted():
    """A growing rotation by 45 degrees a step: a row on an axis overflows
    while the next true row, between the axes, is back in range. Blocks
    write that next row from a finite row a lag earlier, so it is finite;
    the count still ends at the first non-finite row, the row where single
    applications overflow, also when the call ends on a finite row."""
    c = np.cos(np.pi / 4)
    D = 1.05 * np.array([[c, -c], [c, c]]) - np.eye(2)
    out = np.empty((16000, 2))
    got = jump(D, np.zeros((2, 1)), np.ones(1), np.array([1.0, 0.0]), 16000, 1, 1, out)
    finite = np.isfinite(out).all(axis=1)
    assert finite[:got].all() and not finite[got] and finite[got + 1:].any()
    x = np.array([1.0, 0.0])        # ends on the finite row after it
    assert jump(D, np.zeros((2, 1)), np.ones(1), x, got + 2, 1, 1, out) == got
    assert np.isfinite(x).all()
    v, row = np.array([1.0, 0.0]), -1
    while np.isfinite(v).all():
        v = v + D @ v
        row += 1
    assert got == row


def test_lag_maps_pay_for_their_products(monkeypatch):
    """At dim 257 thirty rows do not pay for a lag map: the call builds at
    most the stride map. At dim 30 a 512-row call builds at most ten maps,
    each by one squaring, and a second call with the same dict reuses them
    without a product."""
    from gridfreq import kernels
    square, squarings = kernels._square, []

    def counted(*args):
        squarings.append(args)
        square(*args)
    monkeypatch.setattr(kernels, "_square", counted)
    for stride in (1, 7):
        D, g, steps = _stepwise_map(257, 30 * stride)
        powers = {}
        jump(D, g[:, None], np.ones(1), steps[0].copy(), 30 * stride, stride, stride,
             np.empty((30, 257)), powers)
        assert set(powers) <= {stride}
    D, g, steps = _stepwise_map(30, 512)
    powers, squarings[:] = {}, []
    jump(D, g[:, None], np.ones(1), steps[0].copy(), 512, 1, 1, np.empty((512, 30)), powers)
    assert 0 < len(powers) == len(squarings) <= 10
    built, squarings[:] = dict(powers), []
    jump(D, g[:, None], np.ones(1), steps[0].copy(), 512, 1, 1, np.empty((512, 30)), powers)
    assert not squarings
    assert powers.keys() == built.keys()
    assert all(powers[k] is built[k] for k in built)
