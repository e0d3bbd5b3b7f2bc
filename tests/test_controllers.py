import dataclasses

import numpy as np
import pytest

from gridfreq.controllers import (ControlContext, PowerAdjacencyError, control_rate,
                                  init_artificial, sequential_active_link)
from gridfreq.model import CommGraph, Line, NodeParams, PowerGrid, SystemState
from gridfreq.simulator import (derivative, held_messages, integrate, run_scenario,
                                sequential_context, vector_to_state)
from gridfreq.model import Scenario, with_overrides


def make_grid(costs, lines, inertia=0.1, droop=1.0):
    nodes = tuple(NodeParams(k + 1, inertia, droop, c, 0.0) for k, c in enumerate(costs))
    return PowerGrid(nodes, tuple(Line(i, j, b) for i, j, b in lines))


def make_state(grid, t=0.0, omega=None, u=None, q=None, last_rx=None):
    n, e = grid.n_nodes, grid.n_lines
    z = lambda v, m: np.zeros(m) if v is None else np.asarray(v, dtype=float)
    return SystemState(t=t, omega=z(omega, n), flow=np.zeros(e), u=z(u, n),
                       q=z(q, n), last_rx=last_rx or {})


def averaging_rate(st, grid, comm, scheme="CONSENSUS"):
    """du/dt of the law with no flow-controlled node: instantaneous values
    under CONSENSUS, held ones under CONSENSUS_SAMPLED."""
    return control_rate(st, grid, comm, ControlContext(scheme))[0]


class TestConsensus:
    def test_two_node_example(self):
        grid = make_grid([1.0, 2.0], [(0, 1, 1.0)])
        comm = CommGraph(links=((0, 1),))
        st = make_state(grid, omega=[0.1, -0.1])
        assert averaging_rate(st, grid, comm) == pytest.approx([-0.1, 0.05])

    def test_consensus_manifold_is_equilibrium(self):
        grid = make_grid([2.0, 4.0, 8.0], [(0, 1, 1.0), (1, 2, 1.0)])
        comm = CommGraph(links=((0, 1), (1, 2)))
        st = make_state(grid, u=[4.0, 2.0, 1.0])  # C_i u_i = 8 for all i
        assert averaging_rate(st, grid, comm) == pytest.approx([0, 0, 0], abs=1e-15)

    def test_path_laplacian_action(self):
        grid = make_grid([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 2, 1.0)])
        comm = CommGraph(links=((0, 1), (1, 2)))
        st = make_state(grid, u=[1.0, 0.0, 0.0])
        assert averaging_rate(st, grid, comm) == pytest.approx([-1.0, 1.0, 0.0])


class TestConsensusSampled:
    def test_fresh_samples_match_instantaneous(self):
        grid = make_grid([3.0, 5.0], [(0, 1, 1.0)])
        comm = CommGraph(links=((0, 1),), message_interval=0.5)
        u = np.array([0.4, -0.2])
        y = grid.cost() * u
        st = make_state(grid, omega=[0.05, -0.3], u=u,
                        last_rx={(0, 1): y[0], (1, 0): y[1]})
        np.testing.assert_allclose(averaging_rate(st, grid, comm, "CONSENSUS_SAMPLED"),
                                   averaging_rate(st, grid, comm), atol=1e-15)

    def test_hold_value_used(self):
        grid = make_grid([1.0, 1.0], [(0, 1, 1.0)])
        comm = CommGraph(links=((0, 1),), message_interval=0.5)
        st = make_state(grid, omega=[0.02, 0.0], u=[0.5, 0.0],
                        last_rx={(1, 0): 0.2, (0, 1): 0.5})
        du = averaging_rate(st, grid, comm, "CONSENSUS_SAMPLED")
        assert du[0] == pytest.approx(-0.02 - (0.5 - 0.2))

    def test_missing_hold_raises(self):
        grid = make_grid([1.0, 1.0], [(0, 1, 1.0)])
        comm = CommGraph(links=((0, 1),), message_interval=0.5)
        st = make_state(grid, u=[0.5, 0.0], last_rx={(0, 1): 0.5})
        with pytest.raises(KeyError):
            averaging_rate(st, grid, comm, "CONSENSUS_SAMPLED")

    def test_hold_trajectories_approach_continuous(self, toy):
        """Tightening the message interval shrinks the gap to the
        continuous-messaging trajectory."""
        cont = integrate(with_overrides(toy, horizon=20.0))
        gaps = []
        for T in (0.1, 0.01, 0.001):
            samp = integrate(with_overrides(toy, scheme="CONSENSUS_SAMPLED",
                                            message_interval=T, horizon=20.0))
            gaps.append(np.abs(samp.u - cont.u).max())
        assert gaps[0] > gaps[1] > gaps[2]


class TestPairFlow:
    def test_direct_substitution(self):
        grid = make_grid([1.0, 2.0], [(0, 1, 1.0)])
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
        st = make_state(grid, q=[0.5, -0.5])
        du, dq = control_rate(st, grid, CommGraph(links=((0, 1),)), ctx)
        assert du[0] == pytest.approx(-0.5)
        assert dq[0] == pytest.approx(-1.0)

    def test_equal_frequencies_zero_q_is_equilibrium(self):
        grid = make_grid([1.0, 2.0], [(0, 1, 1.0)])
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
        st = make_state(grid, omega=[0.3, 0.3])
        _, dq = control_rate(st, grid, CommGraph(links=((0, 1),)), ctx)
        assert dq[0] == 0.0 and dq[1] == 0.0

    def test_rejects_non_adjacent_pair(self):
        grid = make_grid([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 2, 1.0)])
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 2}))
        with pytest.raises(PowerAdjacencyError):
            control_rate(make_state(grid), grid, CommGraph(links=((0, 1), (1, 2))), ctx)
        with pytest.raises(PowerAdjacencyError):     # the same partner rule
            init_artificial(make_state(grid), grid, ctx)

    def test_antisymmetry_along_trajectory(self):
        """q_1(t) = -q_2(t) holds to machine precision when initialized so."""
        nodes = (NodeParams(1, 0.1, 0.8, 0.1, 1.0), NodeParams(2, 0.2, 1.2, 0.2, -1.0))
        grid = PowerGrid(nodes, (Line(0, 1, 1.0),))
        scn = Scenario(grid=grid, comm=CommGraph(links=((0, 1),)),
                       scheme="PAIR_FLOW", horizon=10.0, dt=1e-3, record_stride=10)
        start = make_state(grid, q=[0.3, -0.3])
        start = dataclasses.replace(start, flow=np.array([1.0]))
        traj = integrate(scn, initial_state=start)
        assert np.abs(traj.q[:, 0] + traj.q[:, 1]).max() <= 1e-9


class TestHybridAndMulti:
    def _toy_ctx(self, toy):
        return ControlContext(scheme="HYBRID_SINGLE", F=frozenset({1, 6}))

    def test_pair_ignores_messages_others_use_them(self, toy):
        grid = toy.grid
        comm = CommGraph(links=tuple(l for l in toy.comm.links if l != (1, 6)))
        ctx = self._toy_ctx(toy)
        rng = np.random.default_rng(0)
        base = make_state(grid, omega=rng.normal(size=10) * 0.1,
                          u=rng.normal(size=10) * 0.1, q=rng.normal(size=10) * 0.1)
        du0, dq0 = control_rate(base, grid, comm, ctx)
        bumped = dataclasses.replace(base, u=base.u + np.eye(10)[4] * 0.7)
        du1, dq1 = control_rate(bumped, grid, comm, ctx)
        # node 2 (index 1) runs on local quantities only
        assert du1[1] == du0[1]
        assert dq1[1] == dq0[1]
        # node 5's comm neighbor (node 3) reacts to its changed broadcast value
        assert du1[2] != du0[2]

    def test_flat_state_is_equilibrium(self, toy):
        grid = toy.grid
        comm = CommGraph(links=tuple(l for l in toy.comm.links if l != (1, 6)))
        st = make_state(grid, u=0.1 / grid.cost())  # on the consensus manifold
        du, dq = control_rate(st, grid, comm, self._toy_ctx(toy))
        assert np.abs(du).max() < 1e-15
        assert np.abs(dq).max() < 1e-15

    def test_multi_failure_rate_example(self):
        grid = make_grid([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 2, 1.0)])
        comm = CommGraph(links=((0, 1), (1, 2)), failed=(((0, 1), 0.0),))
        ctx = ControlContext(scheme="MULTI_FAILURE", F=frozenset({0, 1}))
        st = make_state(grid, omega=[0.2, -0.1, 0.0], q=[0.4, -0.4, 0.0], t=1.0)
        du, dq = control_rate(st, grid, comm, ctx)
        assert dq[0] == pytest.approx(-(0.2 - (-0.1)) - 2 * 0.4)

    def test_empty_F_reduces_to_consensus(self, toy):
        """With F empty the law is averaging over the comm Laplacian:
        du = -omega / C - L_c (C u)."""
        grid, comm = toy.grid, toy.comm
        rng = np.random.default_rng(1)
        st = make_state(grid, omega=rng.normal(size=10), u=rng.normal(size=10))
        ctx = ControlContext(scheme="MULTI_FAILURE")
        du, dq = control_rate(st, grid, comm, ctx)
        C = grid.cost()
        L_c = comm.laplacian(comm.links, grid.n_nodes)
        ref = -st.omega / C - L_c @ (C * st.u)
        # within 1e-15 of the sum of the terms' magnitudes (rounding only)
        scale = np.abs(st.omega / C) + np.abs(L_c) @ np.abs(C * st.u)
        assert np.all(np.abs(du - ref) <= 1e-15 * scale)
        assert not dq.any()

    def test_empty_F_with_held_values(self, toy):
        """Under a hold scheme each neighbour term reads the held value:
        du_i = -omega_i / C_i - deg_i C_i u_i + sum over neighbours of y_j,
        that is -omega / C - diag(L_c) (C u) + (diag(L_c) - L_c) y."""
        grid = toy.grid
        comm = dataclasses.replace(toy.comm, message_interval=0.01)
        rng = np.random.default_rng(2)
        y = rng.normal(size=10)
        st = make_state(grid, omega=rng.normal(size=10), u=rng.normal(size=10),
                        last_rx=held_messages(y, comm.links))
        du, dq = control_rate(st, grid, comm, ControlContext("CONSENSUS_SAMPLED"))
        C = grid.cost()
        L_c = comm.laplacian(comm.links, grid.n_nodes)
        deg = np.diag(L_c)
        ref = -st.omega / C - deg * (C * st.u) + (np.diag(deg) - L_c) @ y
        scale = (np.abs(st.omega / C) + deg * np.abs(C * st.u)
                 + (np.diag(deg) - L_c) @ np.abs(y))
        assert np.all(np.abs(du - ref) <= 1e-15 * scale)
        assert not dq.any()


class TestInitArtificial:
    def test_pair_antisymmetric_value(self):
        grid = make_grid([3.0, 1.0], [(0, 1, 1.0)])
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
        st = make_state(grid, u=[1.0, 1.0])  # C u = [3, 1]
        q, warns = init_artificial(st, grid, ctx)
        assert q == pytest.approx([2.0, -2.0])
        assert warns == []

    def test_consensus_manifold_gives_zero(self):
        grid = make_grid([2.0, 5.0], [(0, 1, 1.0)])
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 1}))
        st = make_state(grid, u=[0.5, 0.2])  # both weighted values equal 1
        q, _ = init_artificial(st, grid, ctx)
        assert q == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_multi_failure_sum(self):
        grid = make_grid([1.0] * 5, [(0, 1, 1.0), (1, 4, 1.0), (2, 3, 1.0),
                                     (0, 4, 1.0), (3, 4, 1.0)])
        ctx = ControlContext(scheme="MULTI_FAILURE", F=frozenset({0, 1, 4}))
        st = make_state(grid, u=[1.0, 2.0, 9.0, 9.0, 7.0])
        q, _ = init_artificial(st, grid, ctx)
        # node 2 of the pair set: (u2-u1) + (u2-u5), with unit costs
        assert q[1] == pytest.approx((2.0 - 1.0) + (2.0 - 7.0))
        # node 1 pairs with both 2 and 5 (power lines (1,2) and (1,5) exist)
        assert q[0] == pytest.approx((1.0 - 2.0) + (1.0 - 7.0))

    def test_missing_held_value_warns_and_zeroes(self):
        grid = make_grid([1.0, 1.0], [(0, 1, 1.0)])
        comm = CommGraph(links=((0, 1),), message_interval=0.5,
                         failed=(((0, 1), 0.0),))
        ctx = ControlContext(scheme="HYBRID_SINGLE", F=frozenset({0, 1}))
        st = make_state(grid, u=[0.7, -0.7])
        q, warns = init_artificial(st, grid, ctx, comm)
        assert q == pytest.approx([0.0, 0.0])
        assert len(warns) == 2


class TestSequentialLink:
    ES = [(1, 2), (2, 3), (2, 4), (4, 5)]

    def test_first_interval(self):
        assert sequential_active_link(0, self.ES) == (1, 2)

    def test_wraparound(self):
        assert sequential_active_link(5, self.ES) == (2, 3)

    def test_single_link(self):
        assert sequential_active_link(17, [(3, 4)]) == (3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequential_active_link(0, [])


def test_converged_states_have_zero_frequency(toy):
    """Whenever the rates have died out, the frequency deviation is zero:
    power is balanced at every equilibrium of every law."""
    from gridfreq.simulator import derivative
    from gridfreq.model import CommGraph

    for scheme, failures in [("CONSENSUS", ()), ("HYBRID_SINGLE", (((1, 6), 0.5),)),
                             ("MULTI_FAILURE", (((0, 1), 0.5), ((1, 4), 0.5)))]:
        scn = with_overrides(toy, scheme=scheme, horizon=600.0, failures=failures)
        traj = integrate(scn)
        st = traj.state_at(len(traj) - 1)
        failed = {l for l, _ in scn.comm.failed}
        comm = CommGraph(links=tuple(l for l in scn.comm.links if l not in failed))
        if scheme == "CONSENSUS":
            ctx = ControlContext(scheme="CONSENSUS")
        elif scheme == "HYBRID_SINGLE":
            ctx = ControlContext(scheme=scheme, F=frozenset({1, 6}))
        else:
            ctx = ControlContext(scheme=scheme, F=frozenset({0, 1, 4}))
        p = toy.grid.fixed_power()
        p[2] -= 5.0
        rate = derivative(st, toy.grid, comm, ctx, p)
        assert np.abs(rate).max() < 1e-9
        # du_i = (-omega_i - ...) / C_i, so the frequency bound implied by a
        # rate bound carries a factor max(C)
        assert np.abs(st.omega).max() < toy.grid.cost().max() * 1e-9


class TestStackedStates:
    """Every law evaluates a stack of states, one per row, as it evaluates
    each row alone."""

    CASES = [
        ("CONSENSUS", ()),
        ("CONSENSUS_SAMPLED", ()),
        ("PAIR_FLOW", ((1, 6),)),
        ("HYBRID_SINGLE", ((1, 6),)),
        ("MULTI_FAILURE", ((0, 1), (1, 4))),
        ("SEQUENTIAL", ((1, 6),)),
    ]

    @staticmethod
    def _setup(toy, scheme, pairs):
        grid = toy.grid
        failed = set(pairs) if scheme in ("HYBRID_SINGLE", "MULTI_FAILURE") else set()
        comm = CommGraph(links=tuple(l for l in toy.comm.links if l not in failed),
                         message_interval=0.01)
        if scheme == "SEQUENTIAL":
            ctx = sequential_context(pairs[0])
        else:
            ctx = ControlContext(scheme=scheme, F=frozenset(i for l in pairs for i in l))
        return grid, comm, ctx

    @pytest.mark.parametrize("scheme,pairs", CASES)
    def test_derivative_of_stack_equals_row_by_row(self, toy, scheme, pairs):
        grid, comm, ctx = self._setup(toy, scheme, pairs)
        rng = np.random.default_rng(11)
        dim = 3 * grid.n_nodes + grid.n_lines
        X = rng.normal(size=(16, dim))
        Y = rng.normal(size=(16, grid.n_nodes))
        p = rng.normal(size=grid.n_nodes)
        stacked = derivative(vector_to_state(0.2, X, grid, held_messages(Y, comm.links)),
                             grid, comm, ctx, p)
        rows = np.array([derivative(vector_to_state(0.2, X[r], grid,
                                                    held_messages(Y[r], comm.links)),
                                    grid, comm, ctx, p) for r in range(16)])
        assert stacked.shape == (16, dim)
        assert np.abs(stacked - rows).max() <= 1e-14 * np.abs(rows).max()

    def test_stack_missing_held_value_names_link(self, toy):
        grid, comm, ctx = self._setup(toy, "CONSENSUS_SAMPLED", ())
        X = np.ones((4, 3 * grid.n_nodes + grid.n_lines))
        rx = held_messages(np.ones((4, grid.n_nodes)), comm.links)
        del rx[(6, 1)]
        with pytest.raises(KeyError, match="7->2"):
            derivative(vector_to_state(0.0, X, grid, rx), grid, comm, ctx)

    def test_stack_non_adjacent_pair_rejected(self):
        grid = make_grid([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 2, 1.0)])
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset({0, 2}))
        X = np.ones((4, 3 * 3 + 2))
        with pytest.raises(PowerAdjacencyError):
            derivative(vector_to_state(0.0, X, grid), grid, CommGraph(links=()), ctx)

    def test_init_artificial_of_stack_equals_row_by_row(self, toy):
        grid, comm, ctx = self._setup(toy, "MULTI_FAILURE", ((0, 1), (1, 4)))
        sampled = CommGraph(links=toy.comm.links, message_interval=0.01)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(16, 3 * grid.n_nodes + grid.n_lines))
        Y = rng.normal(size=(16, grid.n_nodes))
        for c in (None, sampled):
            q, warns = init_artificial(vector_to_state(0.0, X, grid,
                                                       held_messages(Y, c.links) if c else {}),
                                       grid, ctx, c)
            rows = [init_artificial(vector_to_state(0.0, X[r], grid,
                                                    held_messages(Y[r], c.links) if c else {}),
                                    grid, ctx, c)[0] for r in range(16)]
            assert warns == []
            assert np.array_equal(q, np.array(rows))
