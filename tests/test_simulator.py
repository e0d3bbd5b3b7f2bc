import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (random_grid, reference_csv, reference_integrate, sequential_context,
                      shared_links, trajectory_states)
from gridfreq.controllers import ControlContext, init_artificial
from gridfreq.dispatch import cost_of, optimal_dispatch
from gridfreq.model import (HOLD_SCHEMES, SCHEMES, CommGraph, DisturbanceEvent, Line,
                            NodeParams, PowerGrid, Scenario, SystemState, with_overrides)
from gridfreq.kernels import k_step_map, one_step_map
from gridfreq.simulator import (IntegrationError, Trajectory, context_matrices, context_step,
                                context_system, convergence_time, derivative, modes,
                                first_crossing_time, held_messages, initial_flows,
                                integrate, interval_map, law_base, rotation_reset,
                                run_scenario, schedule, state_to_vector, vector_to_state,
                                write_trajectory_csv)
from gridfreq.stability import assemble_state_matrix


def pair_scenario(m=(0.1, 0.2), d=(0.8, 1.2), c=(0.1, 0.2), b=1.0,
                  p=(1.0, -1.0), **kw):
    nodes = tuple(NodeParams(k + 1, m[k], d[k], c[k], p[k]) for k in range(2))
    grid = PowerGrid(nodes, (Line(0, 1, b),))
    defaults = dict(scheme="PAIR_FLOW", horizon=10.0, dt=1e-3, record_stride=10)
    defaults.update(kw)
    return Scenario(grid=grid, comm=CommGraph(links=((0, 1),)), **defaults)


def test_derivative_single_node():
    grid = PowerGrid((NodeParams(1, 0.5, 2.0, 1.0, 1.0),), ())
    st = SystemState(t=0.0, omega=np.zeros(1), flow=np.zeros(0), u=np.zeros(1),
                     q=np.zeros(1))
    dx = derivative(st, grid, CommGraph(links=()), ControlContext(scheme="CONSENSUS"))
    assert dx[0] == pytest.approx(2.0)


def test_derivative_matches_state_matrix_product():
    scn = pair_scenario()
    ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
    sm = assemble_state_matrix(scn.grid, scn.comm, ctx)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=7)
        st = vector_to_state(0.0, x, scn.grid)
        dx = derivative(st, scn.grid, scn.comm, ctx, p=np.zeros(2))
        assert np.abs(sm.A @ x - dx).max() <= 1e-12


def test_balanced_start_stays_at_rest(toy):
    quiet = dataclasses.replace(toy, disturbances=(), horizon=20.0)
    traj = integrate(quiet)
    assert np.abs(traj.omega).max() <= 1e-9
    assert np.abs(traj.cost_series).max() <= 1e-9


def test_toy_consensus_reaches_reported_optimum(toy):
    traj, summary = run_scenario(toy)
    assert summary.steady_cost_paper == pytest.approx(23.278, abs=0.05)
    assert np.abs(traj.omega[-1]).max() <= 1e-6
    assert summary.t_star is not None
    # power balance at convergence
    assert summary.steady_cost_paper == cost_of(toy.grid, traj.u[-1])[0]


def test_dt_halving_self_consistency(toy):
    short = with_overrides(toy, horizon=50.0)
    a = integrate(short)
    b = integrate(with_overrides(short, dt=toy.dt / 2, record_stride=200))
    xa = np.concatenate([a.omega[-1], a.flow[-1], a.u[-1], a.q[-1]])
    xb = np.concatenate([b.omega[-1], b.flow[-1], b.u[-1], b.q[-1]])
    assert a.times[-1] == b.times[-1]
    assert np.abs(xa - xb).max() <= 1e-6


def test_determinism(toy):
    short = with_overrides(toy, horizon=5.0)
    a, b = integrate(short), integrate(short)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.flow, b.flow)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.q, b.q)


def _traj_with_costs(costs, times=None, events=()):
    k = len(costs)
    times = np.arange(k, dtype=float) if times is None else np.asarray(times)
    z = np.zeros((k, 1))
    return Trajectory(times=times, omega=z, flow=z, u=z, q=z,
                      cost_series=np.asarray(costs, dtype=float), events=tuple(events))


class TestConvergenceTime:
    def test_constant_at_target(self):
        traj = _traj_with_costs([5.0, 5.0, 5.0])
        assert convergence_time(traj, 5.0) == 0.0

    def test_never_in_band(self):
        traj = _traj_with_costs([5.0, 5.0])
        assert convergence_time(traj, 6.0) is None

    def test_band_reentry_uses_robust_time(self):
        costs = [9.0, 5.001, 9.0, 5.001, 5.002, 5.003]
        traj = _traj_with_costs(costs)
        assert first_crossing_time(traj, 5.0) == 1.0
        assert convergence_time(traj, 5.0) == 3.0

    def test_measured_after_last_disturbance(self):
        traj = _traj_with_costs([5.0] * 6, events=[(3.0, "disturbance", "x")])
        assert convergence_time(traj, 5.0) == 3.0

    @pytest.mark.parametrize("metric", [convergence_time, first_crossing_time])
    @pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_target(self, metric, target):
        with pytest.raises(ValueError):
            metric(_traj_with_costs([1.0]), target)


def test_two_node_matches_matrix_exponential():
    """Linear-system oracle: RK4 against expm over 10 s, per component."""
    scn = pair_scenario(disturbances=(DisturbanceEvent(time=0.0, node=0,
                                                       delta_p=0.5),))
    traj = integrate(scn)
    ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
    sm = assemble_state_matrix(scn.grid, scn.comm, ctx)
    p = scn.grid.fixed_power()
    p[0] += 0.5
    b = np.zeros(7)
    b[:2] = p / scn.grid.inertia()
    x0 = np.zeros(7)
    x0[2:3] = initial_flows(scn.grid, scn.grid.fixed_power())
    for k in range(0, len(traj), 100):
        t = traj.times[k]
        aug = np.zeros((8, 8))
        aug[:7, :7] = sm.A * t
        aug[:7, 7] = b * t
        ex = expm(aug)
        x_ref = ex[:7, :7] @ x0 + ex[:7, 7]
        x_sim = np.concatenate([traj.omega[k], traj.flow[k], traj.u[k], traj.q[k]])
        assert np.abs(x_sim - x_ref).max() <= 1e-6


def test_steady_controls_match_dispatch_per_node(toy):
    """Averaging with connected comm, the hybrid law after a power-adjacent
    failure, and the two-node flow law all land on the optimal dispatch to
    within 1e-3 p.u. per node."""
    p_star = toy.grid.fixed_power()
    p_star[2] -= 5.0
    target = optimal_dispatch(toy.grid, p_star).u_star
    traj = integrate(toy)
    assert np.abs(traj.u[-1] - target).max() <= 1e-3
    traj = integrate(with_overrides(toy, scheme="HYBRID_SINGLE",
                                    failures=(((1, 6), 0.5),)))
    assert np.abs(traj.u[-1] - target).max() <= 1e-3

    scn = pair_scenario(disturbances=(DisturbanceEvent(time=0.5, node=0,
                                                       delta_p=-0.4),),
                        horizon=60.0)
    traj = integrate(scn)
    pair_target = optimal_dispatch(scn.grid, scn.grid.fixed_power()
                                   + np.array([-0.4, 0.0])).u_star
    assert np.abs(traj.u[-1] - pair_target).max() <= 1e-3


def test_hybrid_keeps_frequency_response_close(toy):
    _, full = run_scenario(with_overrides(toy, horizon=30.0))
    _, hybrid = run_scenario(with_overrides(toy, scheme="HYBRID_SINGLE",
                                            failures=(((1, 6), 0.5),),
                                            horizon=30.0))
    rel = abs(hybrid.max_freq_excursion - full.max_freq_excursion) \
        / full.max_freq_excursion
    assert rel <= 0.25


def test_trajectory_csv_format(tmp_path, toy):
    traj = integrate(with_overrides(toy, horizon=2.0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:11] == [f"omega_{k}" for k in range(1, 11)]
    assert header[11:21] == [f"u_{k}" for k in range(1, 11)]
    assert header[21:31] == [f"q_{k}" for k in range(1, 11)]
    assert header[31:41] == [f"f_{k}" for k in range(1, 11)]
    assert header[41] == "cost_paper"
    assert len(lines) == 1 + len(traj)
    got = np.array([float(v) for v in lines[-1].split(",")])
    assert got[0] == pytest.approx(traj.times[-1])
    # 9 significant digits survive the round trip at that precision
    assert got[41] == pytest.approx(traj.cost_series[-1], rel=1e-8)
    for cell in lines[1].split(","):
        mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) <= 9


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_state_reports_step(toy):
    wild = with_overrides(toy, dt=0.05, horizon=20.0)  # RK4-unstable step size
    with pytest.raises(IntegrationError) as err:
        integrate(wild)
    assert err.value.step > 0


def test_records_follow_stride(toy):
    scn = with_overrides(toy, horizon=1.5)  # disturbance at t=1 inside horizon
    traj = integrate(scn)
    expected = [k * 0.1 for k in range(15 + 1)]
    assert traj.times == pytest.approx(expected)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.cost_series) == len(traj.times) == len(trajectory_states(traj))


def test_event_log_contents(toy):
    scn = with_overrides(toy, scheme="HYBRID_SINGLE", failures=(((1, 6), 0.5),),
                         horizon=2.0)
    traj = integrate(scn)
    kinds = [k for _, k, _ in traj.events]
    assert kinds == ["comm_failure", "init_artificial", "disturbance"]
    times = [t for t, _, _ in traj.events]
    assert times == [0.5, 0.5, 1.0]


def test_hybrid_fallback_without_power_line():
    # failed comm link (1,3) has no power line; averaging must continue
    nodes = tuple(NodeParams(k + 1, 0.1, 1.0, (1.0, 2.0, 4.0)[k], (1.0, 0.0, -1.0)[k])
                  for k in range(3))
    grid = PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 1.0)))
    comm = CommGraph(links=((0, 1), (0, 2), (1, 2)), failed=(((0, 2), 0.5),))
    scn = Scenario(grid=grid, comm=comm, scheme="HYBRID_SINGLE", horizon=120.0,
                   dt=1e-3, record_stride=100)
    traj, summary = run_scenario(scn)
    assert any(k == "fallback_consensus" for _, k, _ in traj.events)
    opt = optimal_dispatch(grid, grid.fixed_power())
    assert summary.steady_cost_paper == pytest.approx(opt.cost_paper, abs=1e-4)


def test_failure_before_any_message_warns_and_still_balances():
    """A pair that never exchanged a message starts its artificial variables
    at zero with a warning; the run still reaches a balanced (if not
    optimal) point."""
    nodes = (NodeParams(1, 0.1, 0.8, 0.1, 1.0), NodeParams(2, 0.2, 1.2, 0.2, -1.0))
    grid = PowerGrid(nodes, (Line(0, 1, 1.0),))
    comm = CommGraph(links=((0, 1),), failed=(((0, 1), 0.0),),
                     message_interval=0.01)
    scn = Scenario(grid=grid, comm=comm,
                   disturbances=(DisturbanceEvent(time=0.5, node=0, delta_p=-0.4),),
                   scheme="HYBRID_SINGLE", horizon=80.0, dt=1e-3, record_stride=100)
    traj, summary = run_scenario(scn)
    assert any(kind == "warning" for _, kind, _ in traj.events)
    assert np.abs(traj.omega[-1]).max() <= 1e-6


def test_sampled_consensus_drops_failed_link(toy):
    """Under hold messaging a failed link leaves both the degree term and
    the pickup; the run converges to the same point as a run that never had
    the link."""
    never = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.01,
                           horizon=400.0, record_stride=1000)
    never = dataclasses.replace(
        never, comm=CommGraph(links=tuple(l for l in toy.comm.links if l != (1, 6)),
                              message_interval=0.01))
    failed = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.01,
                            horizon=400.0, record_stride=1000,
                            failures=(((1, 6), 0.2),))
    a = integrate(never)
    b = integrate(failed)
    assert np.abs(a.u[-1] - b.u[-1]).max() <= 1e-6


def test_sequential_rotation_skips_failed_link(toy):
    scn = with_overrides(toy, scheme="SEQUENTIAL", message_interval=0.05,
                         horizon=2.0, failures=(((0, 1), 0.6),))
    traj = integrate(scn)
    assert any(kind == "comm_failure" for _, kind, _ in traj.events)
    # after the failure, q on the dropped link's non-shared activations is
    # consistent: the run stays finite and the state well behaved
    assert np.all(np.isfinite(traj.q))


class TestReferenceIntegratorParity:
    """The production event/kernel machinery against the naive RK4 oracle."""

    def _compare(self, scn, n_steps):
        traj = integrate(with_overrides(scn, horizon=n_steps * scn.dt,
                                        record_stride=n_steps))
        x_fast = np.concatenate([traj.omega[-1], traj.flow[-1], traj.u[-1],
                                 traj.q[-1]])
        x_ref = reference_integrate(scn, n_steps)
        assert np.abs(x_fast - x_ref).max() <= 1e-12

    def test_consensus_with_disturbance(self, toy):
        scn = dataclasses.replace(toy, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 200)

    def test_consensus_sampled(self, toy):
        scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.05)
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    def test_hybrid_failure_midway(self, toy):
        scn = with_overrides(toy, scheme="HYBRID_SINGLE", failures=(((1, 6), 0.1),))
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 250)

    def test_multi_failure_midway(self, toy):
        scn = with_overrides(toy, scheme="MULTI_FAILURE",
                             failures=(((0, 1), 0.1), ((1, 4), 0.15)))
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 250)

    def test_pair_flow_averages_until_its_link_fails(self):
        scn = pair_scenario(disturbances=(DisturbanceEvent(time=0.05, node=0,
                                                           delta_p=-0.4),))
        scn = dataclasses.replace(scn, comm=CommGraph(links=((0, 1),),
                                                      failed=(((0, 1), 0.1),)))
        self._compare(scn, 250)

    def test_multi_failure_reinitializes_at_every_failure(self):
        """The second failure, on a link with no power line, leaves F as it
        is but re-initializes the artificial variables from the messages
        held then."""
        nodes = tuple(NodeParams(k + 1, 0.1, 1.0, (1.0, 2.0, 4.0)[k], (1.0, 0.0, -1.0)[k])
                      for k in range(3))
        comm = CommGraph(links=((0, 1), (0, 2), (1, 2)), message_interval=0.05,
                         failed=(((0, 1), 0.11), ((0, 2), 0.17)))
        scn = Scenario(grid=PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 1.0))), comm=comm,
                       disturbances=(DisturbanceEvent(time=0.05, node=0, delta_p=0.5),),
                       scheme="MULTI_FAILURE", dt=1e-3)
        self._compare(scn, 250)

    def test_sequential(self, toy):
        scn = with_overrides(toy, scheme="SEQUENTIAL", message_interval=0.05)
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    def test_sampled_with_failure(self, toy):
        scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.05,
                             failures=(((1, 6), 0.12),))
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    def test_sequential_with_failure(self, toy):
        scn = with_overrides(toy, scheme="SEQUENTIAL", message_interval=0.05,
                             failures=(((0, 1), 0.12),))
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    def test_consensus_sampled_1ms(self, toy):
        scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=1e-3)
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    @pytest.mark.parametrize("scheme", ["CONSENSUS_SAMPLED", "SEQUENTIAL"])
    def test_record_stride_not_multiple_of_interval(self, toy, scheme):
        """Records every 7 steps split the 10-step message intervals; every
        recorded state matches the oracle."""
        scn = with_overrides(toy, scheme=scheme, message_interval=0.01,
                             horizon=0.1, record_stride=7)
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.02, node=2, delta_p=-5.0),))
        traj = integrate(scn)
        assert list(np.round(traj.times / scn.dt)) == list(range(0, 100, 7)) + [100]
        for k, t in enumerate(traj.times):
            x_ref = reference_integrate(scn, int(round(t / scn.dt)))
            x_fast = np.concatenate([traj.omega[k], traj.flow[k], traj.u[k], traj.q[k]])
            assert np.abs(x_fast - x_ref).max() <= 1e-12

    def test_disturbance_between_sampling_instants(self, toy):
        scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.05)
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.073, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    @pytest.mark.parametrize("scheme", ["CONSENSUS_SAMPLED", "SEQUENTIAL"])
    def test_failure_on_sampling_instant(self, toy, scheme):
        scn = with_overrides(toy, scheme=scheme, message_interval=0.05,
                             failures=(((1, 6), 0.2),))
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 300)

    @pytest.mark.parametrize("t_fail", [0.2, 0.223])
    def test_hybrid_at_finite_interval(self, toy, t_fail):
        """Held values feed only the artificial-variable initialization,
        at a failure on a sampling instant and between two."""
        scn = with_overrides(toy, scheme="HYBRID_SINGLE", message_interval=0.05,
                             failures=(((1, 6), t_fail),))
        scn = dataclasses.replace(scn, disturbances=(
            DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
        self._compare(scn, 250)


def test_rx_series_holds_failed_and_marks_never_received(toy):
    """A link that fails on a sampling instant keeps the value received at
    the instant before; a link that failed before the first refresh never
    received anything and reads NaN; a live link read between two instants
    carries the earlier one's value. Records every 60 steps fall between
    the 50-step sampling instants."""
    scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.05,
                         horizon=0.5, record_stride=60,
                         failures=(((1, 6), 0.2), ((0, 1), 0.0)))
    traj = integrate(scn)
    col = {link: c for c, link in enumerate(traj.rx_links)}
    steps = np.round(traj.times / scn.dt)
    cost = toy.grid.cost()
    n, e = toy.grid.n_nodes, toy.grid.n_lines

    def sent(step):
        return cost * reference_integrate(scn, step)[n + e:2 * n + e]

    held = sent(150)
    after = steps >= 200
    assert after.sum() == 6
    assert np.abs(traj.rx_series[after, col[(1, 6)]] - held[1]).max() <= 1e-12
    assert np.abs(traj.rx_series[after, col[(6, 1)]] - held[6]).max() <= 1e-12
    assert np.isnan(traj.rx_series[:, col[(0, 1)]]).all()
    assert np.isnan(traj.rx_series[:, col[(1, 0)]]).all()
    k120 = int(np.searchsorted(steps, 120))
    assert steps[k120] == 120
    assert abs(traj.rx_series[k120, col[(1, 4)]] - sent(100)[1]) <= 1e-12
    assert (0, 1) not in traj.state_at(k120).last_rx


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_sampled_nonfinite_state_keeps_last_finite_record(toy):
    wild = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.1,
                          dt=0.05, horizon=20.0, record_stride=4)
    with pytest.raises(IntegrationError) as err:
        integrate(wild)
    assert err.value.step > 0
    last = err.value.last_state
    assert last is not None
    assert all(np.isfinite(v).all() for v in (last.omega, last.flow, last.u, last.q))


def test_sampled_hold_matches_derivative_rebuild(toy):
    """Sampled runs are deterministic, and the interval maps that carry the
    held messages across sampling instants agree with the oracle, which
    rebuilds the derivative from the held values at every step."""
    scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.01,
                         horizon=1.2)
    a = integrate(scn)
    b = integrate(scn)
    assert np.array_equal(a.u, b.u)
    x_ref = reference_integrate(scn, int(round(1.2 / scn.dt)))
    x_fast = np.concatenate([a.omega[-1], a.flow[-1], a.u[-1], a.q[-1]])
    assert np.abs(x_fast - x_ref).max() <= 1e-12


# ---------------------------------------------------------------------------
# Matrices from one evaluation on the identity stack, against the per-column
# loops they replace (kept here as the reference)

def loop_affine(grid, comm, ctx, p, last_rx, t):
    dim = 3 * grid.n_nodes + grid.n_lines
    b = derivative(vector_to_state(t, np.zeros(dim), grid, last_rx), grid, comm, ctx, p)
    A = np.empty((dim, dim))
    for k in range(dim):
        x = np.zeros(dim)
        x[k] = 1.0
        A[:, k] = derivative(vector_to_state(t, x, grid, last_rx), grid, comm, ctx, p) - b
    return A, b


def loop_inputs(grid, comm, ctx):
    n = grid.n_nodes
    zero = np.zeros(3 * n + grid.n_lines)
    B = np.empty((zero.size, 2 * n))
    for k in range(2 * n):
        w = np.zeros(2 * n)
        w[k] = 1.0
        rx = held_messages(w[:n], comm.links)
        B[:, k] = derivative(vector_to_state(0.0, zero, grid, rx), grid, comm, ctx, w[n:])
    return B


def loop_reset(grid, comm, ctx):
    """The q rows of the rotation reset, one init_artificial call per unit state."""
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    pair_ctx = ControlContext(scheme="PAIR_FLOW", F=ctx.F)
    RQ = np.empty((n, dim))
    for k in range(dim):
        x = np.zeros(dim)
        x[k] = 1.0
        rx = held_messages(grid.cost() * x[n + e:2 * n + e], comm.links)
        RQ[:, k], _ = init_artificial(vector_to_state(0.0, x, grid, rx), grid, pair_ctx, comm)
    return RQ


def scheme_cases(grid, comm):
    """(scheme, context, live comm graph) for all six schemes; the flow-based
    laws take over the first one or two shared links, which have failed."""
    shared = shared_links(grid, comm)
    one, two = shared[0], shared[-1]

    def without(*links):
        return CommGraph(links=tuple(l for l in comm.links if l not in links),
                         message_interval=comm.message_interval)

    def flow_ctx(scheme, *links):
        return ControlContext(scheme=scheme, F=frozenset(i for l in links for i in l))

    return [
        ("CONSENSUS", ControlContext(scheme="CONSENSUS"), without(one)),
        ("CONSENSUS_SAMPLED", ControlContext(scheme="CONSENSUS_SAMPLED"), without(one)),
        ("PAIR_FLOW", flow_ctx("PAIR_FLOW", one), comm),
        ("HYBRID_SINGLE", flow_ctx("HYBRID_SINGLE", one), without(one)),
        ("MULTI_FAILURE", flow_ctx("MULTI_FAILURE", one, two), without(one, two)),
        ("SEQUENTIAL", sequential_context(shared[1]), comm),
    ]


def named_grid(toy, grid_name):
    """(grid, comm) of a named test grid: the toy grid without its failures,
    or a seeded random grid ("n30", "n60") whose links are its lines."""
    if grid_name == "toy":
        return toy.grid, dataclasses.replace(toy.comm, failed=())
    grid = random_grid(4, 30) if grid_name == "n30" else random_grid(0, 60)
    return grid, CommGraph(links=tuple((ln.i, ln.j) for ln in grid.lines))


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("grid_name", ["toy", "n30", "n60"])
def test_stacked_assembly_equals_per_column_loops(toy, grid_name, case):
    """[A B] assembled from the swing rows and one control_rate call is
    byte-equal, signed zeros included, to one derivative() call on the
    identity stack (direct_matrices), and so is the stability report's A
    sliced from it; both equal the per-column loops of derivative() calls,
    and the reset's q rows equal a loop of init_artificial calls."""
    grid, comm = named_grid(toy, grid_name)
    scheme, ctx, live = scheme_cases(grid, comm)[case]
    n = grid.n_nodes
    rng = np.random.default_rng(case)
    y = rng.normal(size=n)
    last_rx = {}
    if scheme in ("CONSENSUS_SAMPLED", "SEQUENTIAL"):
        last_rx = held_messages(y, live.links)
    p = rng.normal(size=n)
    got, want = context_matrices(grid, live, ctx), direct_matrices(grid, live, ctx)
    for g, w in zip(got, want):
        assert (g is w is None) or (g.shape == w.shape and g.tobytes() == w.tobytes())
    e = grid.n_lines
    keep = list(range(2 * n + e)) + [2 * n + e + i for i in sorted(ctx.F)]
    A_kept = want[0][np.ix_(keep, keep)]
    assert assemble_state_matrix(grid, live, ctx).A.tobytes() == A_kept.tobytes()
    A, B, _ = got
    A_ref, _ = loop_affine(grid, live, ctx, np.zeros(n), held_messages(np.zeros(n), live.links),
                           0.3)
    assert np.array_equal(A, A_ref)
    assert np.array_equal(B, loop_inputs(grid, live, ctx))
    # at nonzero inputs (y unread by the laws without held messages)
    A_ref, b_ref = loop_affine(grid, live, ctx, p, last_rx, 0.3)
    assert np.abs(A - A_ref).max() <= 1e-12
    assert np.abs(B @ np.concatenate([y, p]) - b_ref).max() <= 1e-12
    if ctx.F:
        R = rotation_reset(law_base(grid, live, False), ctx)
        assert R.shape == (n, len(A))
        assert np.array_equal(R, loop_reset(grid, live, ctx))
        assert np.abs(R).max() > 0.0


@pytest.mark.parametrize("scheme", ["CONSENSUS", "CONSENSUS_SAMPLED"])
def test_assembly_sums_the_links_one_at_a_time(scheme):
    """The law's u rows of [A B] sum a node's links one directed link at a
    time, in link order, as a per-link loop of scalar updates does. On a
    star whose hub has six links and cost C = 1.75 + 2^-51, the hub's entry
    in its own u column is -C - C - ... - C = -(10.5 + 2^-49), not the
    rounded product -6 C = -(10.5 + 2^-48)."""
    hold = scheme == "CONSENSUS_SAMPLED"
    C = 1.75 + 2.0 ** -51
    costs = np.array([C] + [1.0 + k / 8 for k in range(6)])
    grid = PowerGrid(tuple(NodeParams(k + 1, 0.1, 1.0, c, 0.0) for k, c in enumerate(costs)),
                     tuple(Line(0, j, 1.0) for j in range(1, 7)))
    comm = CommGraph(links=tuple((0, j) for j in range(1, 7)),
                     message_interval=0.01 if hold else None)
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    A, B, _ = context_matrices(grid, comm, ControlContext(scheme))
    want = np.empty((n, dim + 2 * n))
    for k, z in enumerate(np.eye(dim + 2 * n)):
        omega, y, held = z[:n], costs * z[n + e:2 * n + e], z[dim:dim + n]
        du = -omega / costs
        for a, b in comm.links:
            for src, dst in ((a, b), (b, a)):
                du[dst] -= y[dst] - (held[src] if hold else y[src])
        want[:, k] = du
    got = np.concatenate([A, B], axis=1)[n + e:2 * n + e]
    assert got.tobytes() == want.tobytes()
    assert A[n + e, n + e] == -(10.5 + 2.0 ** -49) != -6 * C


# ---------------------------------------------------------------------------
# Maps on the moving states

@pytest.mark.parametrize("grid_name", ["toy", "n30"])
def test_reduced_maps_embed_to_full_maps(toy, grid_name):
    """For every context of every scheme (MULTI_FAILURE over two pairs, and
    SEQUENTIAL for each of its pairs) context_step's map on the moving
    states, embedded into full coordinates, equals RK4's one-step map of the
    full (A, B) within 1e-14 of its largest entry, and so do their k-step
    maps (k = 10, 100). The frozen states are the q_i outside F, and the
    full maps' rows of them are exactly zero."""
    grid, comm = named_grid(toy, grid_name)
    n, e = grid.n_nodes, grid.n_lines
    cases = [(ctx, live) for scheme, ctx, live in scheme_cases(grid, comm)
             if scheme != "SEQUENTIAL"]
    cases += [(ctx, comm) for ctx in modes("SEQUENTIAL", grid.edge_set(), comm.links)]
    assert len(cases) == 5 + len(shared_links(grid, comm))
    h = 1e-3
    for ctx, live in cases:
        A, B, _ = context_matrices(grid, live, ctx)
        step = context_step(law_base(grid, live, ctx.scheme in HOLD_SCHEMES), ctx, h)
        frozen = np.setdiff1d(np.arange(len(A)), step.moving)
        assert list(frozen) == [2 * n + e + i for i in range(n) if i not in ctx.F]
        full = one_step_map(A, B, h)
        for k in (1, 10, 100):
            D, G = full if k == 1 else k_step_map(*full, k)
            reduced = (step.D, step.G) if k == 1 else k_step_map(step.D, step.G, k)
            assert not D[frozen].any() and not G[frozen].any()
            for got, want in zip(step.embed(*reduced), (D, G)):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("grid_name", ["toy", "n30"])
def test_rotation_reset_folds_through_q_rows(toy, grid_name):
    """A SEQUENTIAL context keeps its reset R as R's N q rows, and
    interval_map folds R into the interval map through them alone. For
    every SEQUENTIAL context the result equals D R + R - I with the full R,
    the identity with its q rows replaced, within 1e-14 of its largest
    entry, and G_K is the unreset map's."""
    if grid_name == "toy":
        grid, comm = toy.grid, toy.comm
    else:
        grid = random_grid(4, 30)
        comm = CommGraph(links=tuple((ln.i, ln.j) for ln in grid.lines))
    contexts = modes("SEQUENTIAL", grid.edge_set(), comm.links)
    assert len(contexts) == len(shared_links(grid, comm))
    n, e = grid.n_nodes, grid.n_lines
    base = law_base(grid, comm, True)
    for ctx in contexts:
        step = context_step(base, ctx, 1e-3)
        assert step.R.shape == (n, 3 * n + e)
        D, G = interval_map(grid, step, 10)
        D0, G0 = interval_map(grid, dataclasses.replace(step, R=None), 10)
        R = np.eye(len(D0))
        R[2 * n + e:] = step.R
        want = D0 @ R + R - np.eye(len(D0))
        assert np.abs(D - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(G, G0)


@pytest.mark.parametrize("scheme, T", [("CONSENSUS", None), ("HYBRID_SINGLE", None),
                                       ("CONSENSUS_SAMPLED", 0.01)])
def test_frozen_states_keep_their_values(toy, scheme, T):
    """A run started with nonzero q on every node keeps each q_i outside F
    bit-identical in every record: a frozen state is an input of the jumps
    and is copied into their records. Under HYBRID_SINGLE init_artificial
    resets q when link (2,7) fails at 0.5 s; from then on q outside the pair
    stays exactly 0 while the pair's q moves. Record stride 7 stops the
    sampled run inside message intervals. The records match the stepwise
    oracle from the same start within 1e-12."""
    failures = (((1, 6), 0.5),) if scheme == "HYBRID_SINGLE" else ()
    scn = with_overrides(toy, scheme=scheme, message_interval=T, horizon=1.2,
                         record_stride=7, failures=failures)
    grid = toy.grid
    n, e = grid.n_nodes, grid.n_lines
    x0 = np.zeros(3 * n + e)
    x0[n:n + e] = initial_flows(grid, grid.fixed_power())
    x0[2 * n + e:] = np.random.default_rng(7).uniform(-1.0, 1.0, n)
    start = vector_to_state(0.0, x0, grid)
    traj = integrate(scn, initial_state=start)
    before = traj.times < 0.5 if failures else np.ones(len(traj), dtype=bool)
    assert np.array_equal(traj.q[before], np.tile(x0[2 * n + e:], (before.sum(), 1)))
    if failures:
        outside = [i for i in range(n) if i not in (1, 6)]
        assert not traj.q[~before][:, outside].any()
        assert np.abs(traj.q[~before][:, [1, 6]]).min() > 0.0
    steps = np.round(traj.times / scn.dt).astype(int)
    ref = reference_integrate(scn, steps[-1], every=1, initial_state=start)
    for k, step in enumerate(steps):
        assert np.abs(state_to_vector(traj.state_at(k)) - ref[step]).max() <= 1e-12


def test_records_span_several_blocks(toy):
    """A continuous piece with more records than one block of moving-state
    rows (512) is several jumps: at record_stride 1 the 1100 steps after the
    failure of link (2,7) are three blocks, each spread to full rows with
    the frozen q copied in. Every row matches the stepwise oracle."""
    scn = with_overrides(toy, scheme="HYBRID_SINGLE", horizon=1.2, record_stride=1,
                         failures=(((1, 6), 0.1),))
    traj = integrate(scn)
    assert len(traj) == 1201
    ref = reference_integrate(scn, 1200, every=1)
    for k in range(len(traj)):
        assert np.abs(state_to_vector(traj.state_at(k)) - ref[k]).max() <= 1e-12


# ---------------------------------------------------------------------------
# Records on sampling instants without stopping

@pytest.mark.parametrize("T, stride", [(1e-3, 1), (1e-2, 10)])
def test_sampled_records_on_instants_without_stopping(toy, T, stride):
    """With record_stride a multiple of K = T / dt one recorded jump crosses
    the intervals between two events. Records match the oracle; a live link
    holds C u of its sender in the same row, a link that failed on an
    instant keeps the value sent at the instant before, a link that failed
    at t = 0 stays NaN, and at K = 10 the records and held values equal the
    path that stops at every record (stride 5)."""
    scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=T,
                         horizon=0.3, record_stride=stride,
                         failures=(((1, 6), 0.12), ((0, 1), 0.0)))
    scn = dataclasses.replace(scn, disturbances=(
        DisturbanceEvent(time=0.05, node=2, delta_p=-5.0),))
    traj = integrate(scn)
    steps = np.round(traj.times / scn.dt).astype(int)
    assert list(steps) == list(range(0, 301, stride))
    for k in list(range(0, len(traj), len(traj) // 6)) + [len(traj) - 1]:
        x_ref = reference_integrate(scn, steps[k])
        assert np.abs(state_to_vector(traj.state_at(k)) - x_ref).max() <= 1e-12

    col = {link: c for c, link in enumerate(traj.rx_links)}
    sent = toy.grid.cost() * traj.u
    for a, b in toy.comm.links:
        if (a, b) not in ((1, 6), (0, 1)):
            assert np.array_equal(traj.rx_series[:, col[(a, b)]], sent[:, a])
            assert np.array_equal(traj.rx_series[:, col[(b, a)]], sent[:, b])
    K = int(round(T / scn.dt))
    before = steps < 120
    held = sent[steps == 120 - K][0]
    assert np.array_equal(traj.rx_series[before, col[(1, 6)]], sent[before, 1])
    assert (traj.rx_series[~before, col[(1, 6)]] == held[1]).all()
    assert (traj.rx_series[~before, col[(6, 1)]] == held[6]).all()
    assert np.isnan(traj.rx_series[:, [col[(0, 1)], col[(1, 0)]]]).all()

    if K > 1:
        per_stop = integrate(with_overrides(scn, record_stride=stride // 2))
        assert np.array_equal(per_stop.times[::2], traj.times)
        for field in ("omega", "flow", "u", "q"):
            assert np.abs(getattr(per_stop, field)[::2] - getattr(traj, field)).max() <= 1e-12
        rx = per_stop.rx_series[::2]
        assert np.array_equal(np.isnan(rx), np.isnan(traj.rx_series))
        assert np.nanmax(np.abs(rx - traj.rx_series)) <= 1e-12


@pytest.mark.parametrize("links", [((0, 1), (0, 2)), ((0, 1), (1, 2))])
def test_sequential_records_match_oracle(links):
    """SEQUENTIAL over one shared link has one interval map; over two the
    records (stride K = 10) fall on instants of both phases and are written
    inside the interval loop. Either way every record on a sampling instant
    matches the oracle, and the path that stops at records between instants
    (stride 5)."""
    nodes = tuple(NodeParams(k + 1, 0.1, 1.0, (1.0, 2.0, 4.0)[k], (1.0, 0.0, -1.0)[k])
                  for k in range(3))
    grid = PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 1.0)))
    scn = Scenario(grid=grid, comm=CommGraph(links=links, message_interval=0.01),
                   disturbances=(DisturbanceEvent(time=0.05, node=0, delta_p=0.5),),
                   scheme="SEQUENTIAL", horizon=0.3, dt=1e-3, record_stride=10)
    traj = integrate(scn)
    assert len(traj) == 31 and np.abs(traj.q).max() > 0.0
    for k in range(0, 31, 3):
        x_ref = reference_integrate(scn, 10 * k)
        assert np.abs(state_to_vector(traj.state_at(k)) - x_ref).max() <= 1e-12
    per_stop = integrate(dataclasses.replace(scn, record_stride=5))
    for field in ("omega", "flow", "u", "q", "rx_series"):
        assert np.abs(getattr(per_stop, field)[::2] - getattr(traj, field)).max() <= 1e-12


def rotation_scenario(stride, horizon=0.6):
    """SEQUENTIAL on a four-node ring whose four lines are shared links
    (L = 4, K = 10, a cycle of 40 steps). A disturbance at step 57 lies off
    a sampling instant, in an interval of phase 1; link (2,3) fails at step
    263, mid-interval, and leaves L = 3 (a cycle of 30 steps); link (1,3),
    without a power line, is lost at t = 0 and never carries a value."""
    nodes = tuple(NodeParams(k + 1, (0.1, 0.2, 0.15, 0.3)[k], 1.0, (1.0, 2.0, 4.0, 3.0)[k],
                             (1.0, 0.0, -1.0, 0.0)[k]) for k in range(4))
    lines = (Line(0, 1, 1.0), Line(1, 2, 1.0), Line(2, 3, 0.5), Line(0, 3, 0.7))
    comm = CommGraph(links=((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)), message_interval=0.01,
                     failed=(((0, 2), 0.0), ((1, 2), 0.263)))
    return Scenario(grid=PowerGrid(nodes, lines), comm=comm,
                    disturbances=(DisturbanceEvent(time=0.057, node=1, delta_p=0.5),),
                    scheme="SEQUENTIAL", horizon=horizon, dt=1e-3, record_stride=stride)


@pytest.fixture(scope="module")
def rotation_oracle():
    """The oracle's state at every sampling instant of rotation_scenario."""
    return reference_integrate(rotation_scenario(10), 600, every=10)


@pytest.mark.parametrize("stride", [40, 10, 20, 120])
def test_rotation_records_match_oracle(rotation_oracle, stride):
    """Records of a rotation over several links, at L K (whole cycles
    before the failure, single intervals after it), K and 2 K (every
    phase) and 120 (whole cycles on both sides of it): every row matches
    the oracle, q reset for its instant's pair included; a live link holds
    C u of its sender in the same row, the failed link the value sent at
    the last instant before its failure, and the lost link NaN."""
    scn = rotation_scenario(stride)
    traj = integrate(scn)
    steps = np.round(traj.times / scn.dt).astype(int)
    assert list(steps) == list(range(0, 601, stride)) + ([600] if 600 % stride else [])
    for k, step in enumerate(steps):
        assert np.abs(state_to_vector(traj.state_at(k)) - rotation_oracle[step]).max() <= 1e-12

    grid = scn.grid
    n, e = grid.n_nodes, grid.n_lines
    col = {link: c for c, link in enumerate(traj.rx_links)}
    sent = grid.cost() * traj.u
    for a, b in ((0, 1), (0, 3), (2, 3)):
        assert np.array_equal(traj.rx_series[:, col[(a, b)]], sent[:, a])
        assert np.array_equal(traj.rx_series[:, col[(b, a)]], sent[:, b])
    held = grid.cost() * rotation_oracle[260][n + e:2 * n + e]
    before = steps < 263
    assert np.array_equal(traj.rx_series[before, col[(1, 2)]], sent[before, 1])
    assert np.abs(traj.rx_series[~before, col[(1, 2)]] - held[1]).max() <= 1e-12
    assert np.abs(traj.rx_series[~before, col[(2, 1)]] - held[2]).max() <= 1e-12
    assert np.array_equal(np.isnan(traj.rx_series),
                          np.isin(np.arange(len(traj.rx_links)),
                                  [col[(0, 2)], col[(2, 0)]])[None, :].repeat(len(traj), 0))


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls of controllers.init_artificial,
    controllers.control_rate, kernels.jump, kernels.one_step_map,
    kernels.k_step_map and simulator.derivative made from here on."""
    from gridfreq import controllers, kernels, simulator
    counts = dict.fromkeys(["init_artificial", "control_rate", "jump", "one_step_map",
                            "k_step_map", "derivative"], 0)

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kw):
            counts[name] += 1
            return inner(*args, **kw)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((controllers, "init_artificial"), (controllers, "control_rate"),
                         (kernels, "jump"),
                         (simulator, "jump"), (kernels, "one_step_map"),
                         (simulator, "one_step_map"), (kernels, "k_step_map"),
                         (simulator, "k_step_map"), (simulator, "derivative")):
        count(module, name)
    return counts


def test_pieces_that_share_a_context_square_once(toy, calls):
    """Toy HYBRID_SINGLE at record_stride 100 with link (2,7) failing at
    0.5 s and the disturbance at 1 s runs two contexts over three pieces:
    averaging, then the pair law on both sides of the disturbance. Each
    context squares its one-step map to the 100-step map once; the new
    powers after the disturbance cost one product with that map."""
    scn = with_overrides(toy, scheme="HYBRID_SINGLE", horizon=2.0, record_stride=100,
                         failures=(((1, 6), 0.5),))
    traj = integrate(scn)
    assert [pc.start for pc in schedule(scn).pieces] == [0, 500, 1000, 2000]
    assert calls["k_step_map"] == 2
    x_ref = reference_integrate(scn, 2000)
    assert np.abs(state_to_vector(traj.state_at(len(traj) - 1)) - x_ref).max() <= 1e-12


def ring_scenario(n, stride):
    """SEQUENTIAL on an n-node ring whose n lines are all shared links
    (K = 10), over two and a half rotation cycles."""
    nodes = tuple(NodeParams(k + 1, 0.1 + 0.01 * k, 1.0, 1.0 + k % 3, (1.0, -1.0)[k % 2])
                  for k in range(n))
    lines = tuple(Line(min(k, (k + 1) % n), max(k, (k + 1) % n), 1.0) for k in range(n))
    comm = CommGraph(links=tuple((ln.i, ln.j) for ln in lines), message_interval=0.01)
    return Scenario(grid=PowerGrid(nodes, lines), comm=comm, scheme="SEQUENTIAL",
                    horizon=n * 0.025, dt=1e-3, record_stride=stride)


@pytest.mark.parametrize("case", ["toy", "ring"])
def test_one_step_map_built_once_per_context(toy, calls, case):
    """A run builds RK4's one-step map once per live links and context:
    interval maps square the cached map and partial intervals jump with it.
    A rotation calls control_rate once per set of live links, for its base,
    and derivative never; each pair context is the base with its pair's
    rows replaced. Toy SEQUENTIAL at record_stride 105 stops inside
    intervals of its ten contexts; the ring rotates over 20 shared links and
    stops inside intervals of each at record_stride 7."""
    if case == "toy":
        scn = with_overrides(toy, scheme="SEQUENTIAL", message_interval=0.01, horizon=10.0,
                             record_stride=105)
    else:
        scn = ring_scenario(20, 7)
    traj = integrate(scn)
    pieces = schedule(scn).pieces
    contexts = {(pc.comm, c) for pc in pieces for c in pc.contexts + (pc.lead,)}
    assert len(contexts) == (10 if case == "toy" else 20)
    assert calls["one_step_map"] == len(contexts)
    assert calls["control_rate"] == len({pc.comm for pc in pieces}) == 1
    assert calls["derivative"] == 0
    if case == "ring":
        x_ref = reference_integrate(scn, 500)
        assert np.abs(state_to_vector(traj.state_at(len(traj) - 1)) - x_ref).max() <= 1e-12


def direct_matrices(grid, comm, ctx):
    """(A, B, R) of ctx from one derivative() call of ctx itself on the
    identity stack of [x; y; p], and for a SEQUENTIAL context R, the q rows
    of its reset, from one init_artificial call per unit state (loop_reset;
    None otherwise)."""
    n = grid.n_nodes
    dim = 3 * n + grid.n_lines
    W = np.eye(dim + 2 * n)
    X, Y, P = W[:, :dim], W[:, dim:dim + n], W[:, dim + n:]
    dx = derivative(vector_to_state(0.0, X, grid, held_messages(Y, comm.links)),
                    grid, comm, ctx, P)
    R = loop_reset(grid, comm, ctx) if ctx.scheme == "SEQUENTIAL" else None
    return dx[:dim].T, dx[dim:].T, R


def rotation_failing_mid_interval(n=30):
    """SEQUENTIAL on a seeded n-node grid (30 or 60) whose links are all
    shared (K = 10): the link of the third interval fails at step 25, inside
    that interval, so the second piece leads with the failed pair on the
    remaining links."""
    grid = random_grid(4, 30) if n == 30 else random_grid(0, 60)
    links = tuple((ln.i, ln.j) for ln in grid.lines)
    failing = sorted(links)[2]
    comm = CommGraph(links=links, message_interval=0.01, failed=((failing, 0.025),))
    return Scenario(grid=grid, comm=comm, scheme="SEQUENTIAL", horizon=0.06, dt=1e-3,
                    record_stride=7), failing


def run_case(toy, case):
    """The scenario of a named run: a rotation ("toy", "ring", "n30_failure",
    "n60_failure"), or toy HYBRID_SINGLE, MULTI_FAILURE, CONSENSUS_SAMPLED
    at T = 10 ms and the two-node PAIR_FLOW with a link failing at 50 ms
    (MULTI_FAILURE a second one at 100 ms, which leaves F four nodes)."""
    if case == "toy":
        return with_overrides(toy, scheme="SEQUENTIAL", message_interval=0.01, horizon=0.2,
                              record_stride=7)
    if case == "ring":
        return ring_scenario(20, 7)
    if case in ("n30_failure", "n60_failure"):
        return rotation_failing_mid_interval(int(case[1:3]))[0]
    if case == "pair_flow":
        return with_overrides(pair_scenario(horizon=0.2, record_stride=7),
                              failures=(((0, 1), 0.05),))
    scheme, T, failures = {
        "hybrid_single": ("HYBRID_SINGLE", None, (((1, 6), 0.05),)),
        "multi_failure": ("MULTI_FAILURE", None, (((1, 6), 0.05), ((8, 9), 0.1))),
        "sampled_failure": ("CONSENSUS_SAMPLED", 0.01, (((1, 6), 0.05),)),
    }[case]
    return with_overrides(toy, scheme=scheme, message_interval=T, horizon=0.2,
                          record_stride=7, failures=failures)


@pytest.mark.parametrize("case", ["toy", "ring", "n30_failure", "n60_failure", "hybrid_single",
                                  "multi_failure", "pair_flow", "sampled_failure"])
def test_run_contexts_equal_direct_assembly(toy, calls, case):
    """Every context a run builds (each piece's contexts and lead), from the
    law_base of its live links, has [A B] (context_system) byte-equal,
    signed zeros included, to one derivative() call of that context on the
    identity stack, and R, the q rows of a SEQUENTIAL context's reset, from
    the base's stack, byte-equal to one init_artificial call per unit state
    (direct_matrices). The run calls control_rate once per set of live
    links, for its base, and derivative never, and its records match the
    oracle. On the 30- and 60-node grids the second piece of the rotation
    leads with the failed pair on the links that remain; MULTI_FAILURE ends
    with F = {2, 7, 9, 10}."""
    scn = run_case(toy, case)
    grid = scn.grid
    pieces = schedule(scn).pieces
    if case in ("n30_failure", "n60_failure"):
        failing = rotation_failing_mid_interval(int(case[1:3]))[1]
        assert pieces[1].start == 25 and pieces[1].lead.F == set(failing)
        assert failing not in pieces[1].comm.links
    if case == "multi_failure":
        assert pieces[-1].contexts[0].F == {1, 6, 8, 9}
    for comm in {pc.comm for pc in pieces}:
        base = law_base(grid, comm, scn.scheme in HOLD_SCHEMES)
        contexts = {c for pc in pieces if pc.comm == comm for c in pc.contexts + (pc.lead,)}
        if scn.scheme == "SEQUENTIAL":
            assert len(contexts) == len({tuple(sorted(c.F)) for c in contexts}) > 1
        for ctx in contexts:
            A, B, R = direct_matrices(grid, comm, ctx)
            got, got_R = context_system(base, ctx)
            want = np.hstack([A, B])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert (got_R is R is None) or (got_R.shape == R.shape
                                             and got_R.tobytes() == R.tobytes())
    calls["derivative"] = calls["control_rate"] = 0
    traj = integrate(scn)
    assert calls["control_rate"] == len({pc.comm for pc in pieces})
    assert calls["derivative"] == 0
    oracle = reference_integrate(scn, schedule(scn).n_steps, every=1)
    for k, step in enumerate(np.round(traj.times / scn.dt).astype(int)):
        assert np.abs(state_to_vector(traj.state_at(k)) - oracle[step]).max() <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrate_calls_the_law_once_per_base(toy, calls, scheme):
    """integrate() never calls derivative(): under every scheme it
    assembles [A B] from the swing rows and one control_rate call per
    law_base, one per distinct live links and hold, whose contexts take
    flow_rate's rows. Toy grid, link (2,7) failing at 0.3 s (PAIR_FLOW
    runs the two-node grid)."""
    if scheme == "PAIR_FLOW":
        scn = with_overrides(pair_scenario(horizon=0.6), failures=(((0, 1), 0.3),))
    else:
        T = 0.01 if scheme in ("CONSENSUS_SAMPLED", "SEQUENTIAL") else None
        scn = with_overrides(toy, scheme=scheme, message_interval=T, horizon=0.6,
                             failures=(((1, 6), 0.3),))
    maps = integrate(scn).diagnostics["maps"]
    bases = {(pc.comm, c.scheme in HOLD_SCHEMES) for pc in schedule(scn).pieces
             for c in pc.contexts}
    assert calls["control_rate"] == maps["base"] == len(bases) == 2
    assert calls["derivative"] == 0


def test_run_counts_its_maps_and_kernel_calls(toy):
    """Trajectory.diagnostics counts the maps a run builds and its kernel
    calls, by kind. Toy SEQUENTIAL at T = 10 ms builds one law base and
    the one-step maps of its ten pairs; toy HYBRID_SINGLE with a failure
    builds one base on each side of it."""
    scn = with_overrides(toy, scheme="SEQUENTIAL", message_interval=0.01, horizon=1.0,
                         record_stride=100)
    diag = integrate(scn).diagnostics
    assert diag["maps"] == {"base": 1, "stretch": 10, "intervals": 10, "cycles": 1}
    assert set(diag["kernel_calls"]) == {"stretch", "intervals", "cycles"}
    assert diag["kernel_calls"]["cycles"] >= 1
    scn = with_overrides(toy, scheme="HYBRID_SINGLE", horizon=2.0, record_stride=100,
                         failures=(((1, 6), 0.5),))
    diag = integrate(scn).diagnostics
    assert diag["maps"] == {"base": 2, "stretch": 2, "intervals": 0, "cycles": 0}
    assert diag["kernel_calls"]["intervals"] == diag["kernel_calls"]["cycles"] == 0
    assert diag["kernel_calls"]["stretch"] == 3       # one per piece


def test_rotation_records_without_stopping(calls):
    """With record_stride a multiple of the cycle before and after the
    failure, the run stops only at its pieces: it runs no sampling event on
    the state at a record and crosses whole cycles with one recorded jump,
    so init_artificial and jump are called a number of times bounded by the
    pieces and the maps, not by the 101 records."""
    scn = rotation_scenario(120, horizon=12.0)
    traj = integrate(scn)
    pieces, maps = len(schedule(scn).pieces), 4 + 3
    assert len(traj) == 101
    # per map one reset, shared by its rows; per piece one sampling stop
    assert calls["init_artificial"] <= maps + 2 * pieces
    # per piece two partial intervals, L - 1 head and tail intervals each,
    # and one cycle jump
    assert calls["jump"] <= pieces * (2 + 2 * 3 + 1)


def test_sampling_stops_call_no_control_law(calls):
    """With record_stride 7 the rotation stops at every record, mostly
    between instants, and at an instant before each record. No stop calls
    a control law: the offset of a partial interval is G [y; p] and an
    instant resets q by the cached R, so control_rate runs at most once per
    context, to build the matrices, derivative never, and init_artificial
    only to build R and at the pieces' inits. Every row matches the
    oracle."""
    scn = rotation_scenario(7)
    traj = integrate(scn)
    pieces = schedule(scn).pieces
    contexts = {(pc.comm, c) for pc in pieces for c in pc.contexts + (pc.lead,)}
    inits = sum(pc.init is not None for pc in pieces)
    assert calls["init_artificial"] <= len(contexts) + inits
    assert calls["control_rate"] <= len(contexts)
    assert calls["derivative"] == 0
    steps = np.round(traj.times / scn.dt).astype(int)
    assert list(steps) == list(range(0, 601, 7)) + [600]
    oracle = reference_integrate(scn, 600, every=1)
    for k, step in enumerate(steps):
        assert np.abs(state_to_vector(traj.state_at(k)) - oracle[step]).max() <= 1e-12


def test_sampled_records_off_instants_cross_intervals_at_once(toy, calls):
    """Averaging on held messages with record_stride 105, not a multiple of
    K = 10: the run stops at every record, and between two records one jump
    crosses the whole message intervals, so jump is called a number of
    times bounded by the records, not by the ten intervals between two of
    them. Every record matches the oracle."""
    scn = with_overrides(toy, scheme="CONSENSUS_SAMPLED", message_interval=0.01,
                         horizon=2.1, record_stride=105)
    traj = integrate(scn)
    steps = np.round(traj.times / scn.dt).astype(int)
    assert list(steps) == list(range(0, 2101, 105))
    # per record an RK4 segment (itself a jump) up to an instant, one jump up
    # to the last instant before the next record and one for the interval
    # from there, when that ends on an instant
    assert calls["jump"] <= 3 * (len(traj) + len(schedule(scn).pieces))
    oracle = reference_integrate(scn, 2100, every=105)
    for k, step in enumerate(steps):
        assert np.abs(state_to_vector(traj.state_at(k)) - oracle[step]).max() <= 1e-12


def held_coupling_blowup(cost=160.0, T=0.02):
    """Sampled averaging whose own-value term is RK4-unstable at dt = 0.01
    (h C degree = 3.2 at the middle node at cost 160), so the held
    messages, refreshed at every instant, drive the growth."""
    nodes = tuple(NodeParams(k + 1, 0.1, 1.0, cost, (1.0, 0.0, -1.0)[k]) for k in range(3))
    grid = PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 1.0)))
    return Scenario(grid=grid, comm=CommGraph(links=((0, 1), (1, 2)), message_interval=T),
                    disturbances=(DisturbanceEvent(time=0.1, node=0, delta_p=0.5),),
                    scheme="CONSENSUS_SAMPLED", horizon=60.0, dt=0.01, record_stride=1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("stride", [1, 5, 7, 10, 11, 100])
@pytest.mark.parametrize("case", ["continuous", "sampled", "held_coupling", "held_coupling_170"])
def test_nonfinite_step_is_first_stepwise_one(toy, case, stride):
    """IntegrationError names the same step at every record stride: the
    first step whose RK4 state, or at a sampling instant the messages C u
    it sends, is not finite. A kernel call that fails that check is
    replayed one step at a time, refreshing the held messages at each
    instant; an interval map folds C into its matrix and can stay finite
    past the step where the held messages overflow. The last finite record
    precedes the step, and at stride 1 it is the step before it."""
    wild = with_overrides(toy, dt=0.05, horizon=20.0)
    if case == "sampled":
        wild = with_overrides(wild, scheme="CONSENSUS_SAMPLED", message_interval=0.1)
    elif case == "held_coupling":
        wild = held_coupling_blowup()
    elif case == "held_coupling_170":
        wild = held_coupling_blowup(cost=170.0, T=0.03)
    err = {}
    for s in (1, stride):
        with pytest.raises(IntegrationError) as info:
            integrate(with_overrides(wild, record_stride=s))
        err[s] = info.value
    assert err[stride].step == err[1].step < round(wild.horizon / wild.dt)
    assert round(err[1].last_state.t / wild.dt) == err[1].step - 1
    assert round(err[stride].last_state.t / wild.dt) < err[stride].step


# ---------------------------------------------------------------------------
# Rounding onto the dt grid

def test_off_grid_times_are_rounded_with_a_warning(toy):
    scn = with_overrides(toy, scheme="HYBRID_SINGLE", horizon=2.0004,
                         failures=(((1, 6), 0.5003),))
    scn = dataclasses.replace(scn, disturbances=(
        DisturbanceEvent(time=1.0004, node=2, delta_p=-5.0),))
    traj = integrate(scn)
    warns = [d for t, kind, d in traj.events if kind == "warning" and "dt grid" in d]
    assert warns == [
        "horizon t=2.0004 is off the dt grid; rounded to step 2000 (t=2)",
        "disturbance at node 3 t=1.0004 is off the dt grid; rounded to step 1000 (t=1)",
        "failure of link (2,7) t=0.5003 is off the dt grid; rounded to step 500 (t=0.5)",
    ]
    assert traj.times[-1] == pytest.approx(2.0)
    # 0.7 / 1e-3 is 699.9999999999999 in floating point: on the grid; the
    # disturbance past the horizon is not applied, so not rounded either,
    # but dropped with a warning
    on_grid = integrate(with_overrides(scn, horizon=0.8, failures=(((1, 6), 0.7),)))
    assert [d for _, kind, d in on_grid.events if kind == "warning"] == [
        "disturbance at node 3 t=1.0004 ignored: past the horizon (t=0.8)"]
    assert "disturbance" not in [kind for _, kind, _ in on_grid.events]


def test_schedule_drops_failed_link_at_its_failure_step(toy):
    """Link (2,7) failing at 2.0 s is live in the pieces before step 2000
    and not from step 2000 on, which leave 9 live links; the last piece is
    the one in force at the horizon."""
    scn = dataclasses.replace(toy, horizon=5.0, comm=CommGraph(
        links=toy.comm.links, failed=(((1, 6), 2.0),)))
    plan = schedule(scn)
    assert [(pc.start, pc.stop) for pc in plan.pieces] == [
        (0, 1000), (1000, 2000), (2000, 5000), (5000, 5000)]
    for pc in plan.pieces:
        assert ((1, 6) in pc.comm.links) == (pc.start < 2000)
        assert len(pc.comm.links) == (10 if pc.start < 2000 else 9)
    assert plan.pieces[2].events == (("comm_failure", "link (2,7)"),)



@pytest.mark.parametrize("scheme, failures", [
    ("CONSENSUS", ()), ("CONSENSUS", (((1, 6), 1.0),)), ("HYBRID_SINGLE", (((1, 6), 5.0),))])
def test_ignored_message_interval_runs_as_continuous(toy, scheme, failures):
    """A message interval that nothing reads is warned about and compiled
    as continuous messaging: CONSENSUS, with or without a failure, and
    HYBRID_SINGLE whose link fails past the horizon run the continuous
    run's plan at T = 0.5. Their records equal the continuous run's bit for
    bit at record stride 1, and they hold no messages."""
    runs = {T: with_overrides(toy, scheme=scheme, message_interval=T, horizon=2.0,
                              record_stride=1, failures=failures) for T in (0.5, None)}
    assert schedule(runs[0.5]).interval_steps is None
    assert schedule(runs[0.5]).warnings[0].startswith("message_interval T=0.5 ignored")
    sampled, continuous = (integrate(scn) for scn in runs.values())
    assert sampled.rx_series is None and sampled.rx_links == ()
    for field in ("times", "omega", "flow", "u", "q", "cost_series"):
        assert np.array_equal(getattr(sampled, field), getattr(continuous, field))


# ---------------------------------------------------------------------------
# Trajectory CSV: block formatting against a per-value reference writer

def test_trajectory_csv_equals_per_value_writer(tmp_path, toy):
    z = np.array([[-0.0, 1e-300], [5e-324, 1e300], [np.inf, -np.nan]])
    odd = Trajectory(times=np.array([0.0, 0.1, 1e-7]), omega=z, flow=z[:, :1],
                     u=-z, q=z[:, ::-1], cost_series=np.array([5e-324, -1e300, 0.5]),
                     events=())
    trajs = {
        "continuous": integrate(with_overrides(toy, horizon=2.0)),
        "sampled": integrate(with_overrides(toy, scheme="CONSENSUS_SAMPLED",
                                            message_interval=0.01, horizon=0.5,
                                            record_stride=10)),
        "blocks": integrate(with_overrides(toy, horizon=1.2, record_stride=1)),
        "odd": odd,
    }
    assert len(trajs["blocks"]) > 2 * 512
    for name, traj in trajs.items():
        path = tmp_path / f"{name}.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == reference_csv(traj), name
