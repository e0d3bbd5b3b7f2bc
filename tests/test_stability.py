import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import random_grid, shared_links
from gridfreq.controllers import ControlContext
from gridfreq.model import CommGraph, Line, NodeParams, PowerGrid
from gridfreq.simulator import derivative, vector_to_state
from gridfreq.stability import (IdentityReport, assemble_state_matrix,
                                build_Lc_star, characteristic_identity_check,
                                check_sufficient_multi_node,
                                check_sufficient_two_node, failed_pair_last,
                                interval_map_spectrum, spectrum)

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def two_node_grid(M=(1.0, 1.0), D=(1.0, 1.0), C=(1.0, 1.0), B=1.0):
    nodes = tuple(NodeParams(k + 1, M[k], D[k], C[k], 0.0) for k in range(2))
    return PowerGrid(nodes, (Line(0, 1, B),))


def pair_ctx(i=0, j=1):
    return ControlContext(scheme="PAIR_FLOW", F=frozenset({i, j}))


def rand_points(rng, k=10):
    return rng.uniform(0.5, 5.0, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))


class TestAssemble:
    def test_flow_row_structure(self):
        grid = two_node_grid()
        sm = assemble_state_matrix(grid, CommGraph(links=((0, 1),)), pair_ctx())
        assert sm.labels == ("omega_1", "omega_2", "f_1_2", "u_1", "u_2",
                             "q_1", "q_2")
        assert sm.A[2] == pytest.approx([1.0, -1.0, 0, 0, 0, 0, 0])

    def test_matches_derivative_on_random_states(self, toy):
        rng = np.random.default_rng(11)
        failed = (1, 6)
        comm = CommGraph(links=tuple(l for l in toy.comm.links if l != failed))
        cases = [
            ("CONSENSUS", ControlContext(scheme="CONSENSUS"), toy.comm),
            ("HYBRID_SINGLE", ControlContext(scheme="HYBRID_SINGLE",
                                             F=frozenset(failed)), comm),
            ("MULTI_FAILURE", ControlContext(scheme="MULTI_FAILURE",
                                             F=frozenset({0, 1, 4})),
             CommGraph(links=tuple(l for l in toy.comm.links
                                   if l not in {(0, 1), (1, 4)}))),
        ]
        n, e = toy.grid.n_nodes, toy.grid.n_lines
        for _, ctx, c in cases:
            sm = assemble_state_matrix(toy.grid, c, ctx)
            keep = list(range(2 * n + e)) + [2 * n + e + i for i in sm.q_nodes]
            for _ in range(30):
                x_red = rng.normal(size=len(keep))
                x_full = np.zeros(3 * n + e)
                x_full[keep] = x_red
                dx = derivative(vector_to_state(0.0, x_full, toy.grid), toy.grid,
                                c, ctx, p=np.zeros(n))
                assert np.abs(sm.A @ x_red - dx[keep]).max() <= 1e-12
                # inactive artificial variables have no dynamics at all
                drop = [k for k in range(3 * n + e) if k not in keep]
                assert np.abs(dx[drop]).max() == 0.0

    def test_zero_state_maps_to_zero(self):
        grid = two_node_grid()
        sm = assemble_state_matrix(grid, CommGraph(links=((0, 1),)), pair_ctx())
        assert np.abs(sm.A @ np.zeros(7)).max() == 0.0

    def test_exact_linearization_for_hold_schemes(self, toy):
        """For the sampled laws the held messages are an affine offset, so
        A x must equal derivative(x) - derivative(0) at any frozen holds."""
        rng = np.random.default_rng(3)
        grid, comm = toy.grid, toy.comm
        n, e = grid.n_nodes, grid.n_lines
        y = rng.normal(size=n)
        rx = {}
        for a, b in comm.links:
            rx[(a, b)] = y[a]
            rx[(b, a)] = y[b]
        for ctx in (ControlContext(scheme="CONSENSUS_SAMPLED"),
                    ControlContext(scheme="SEQUENTIAL", F=frozenset({1, 6}))):
            sm = assemble_state_matrix(grid, comm, ctx)
            keep = list(range(2 * n + e)) + [2 * n + e + i for i in sm.q_nodes]
            zero = vector_to_state(0.0, np.zeros(3 * n + e), grid, rx)
            b0 = derivative(zero, grid, comm, ctx, p=np.zeros(n))
            for _ in range(30):
                x_red = rng.normal(size=len(keep))
                x_full = np.zeros(3 * n + e)
                x_full[keep] = x_red
                dx = derivative(vector_to_state(0.0, x_full, grid, rx), grid,
                                comm, ctx, p=np.zeros(n))
                assert np.abs(sm.A @ x_red - (dx - b0)[keep]).max() <= 1e-12


class TestIntervalMapSpectrum:
    def test_sampled_rates_on_toy_grid(self, toy):
        """Decay rates of the 1 ms to 1 s interval maps. They fall as T
        grows, the order of criterion 6's measured t* (112, 141, 318 and
        2466 s)."""
        rates = [interval_map_spectrum(toy.grid, toy.comm, "CONSENSUS_SAMPLED",
                                       toy.dt, T).rate
                 for T in (1e-3, 1e-2, 0.1, 1.0)]
        assert rates == pytest.approx([0.0501, 0.0474, 0.0258, 0.0034], abs=5e-5)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_unit_eigenvalues_counted_apart(self, toy):
        rep = interval_map_spectrum(toy.grid, toy.comm, "CONSENSUS_SAMPLED",
                                    toy.dt, 0.01)
        # one flow cycle (E - N + 1) and the ten q states no law moves
        assert rep.unit_eigenvalue_count == 1 + 10
        assert rep.period == 0.01
        assert rep.spectral_radius_excl_unit == pytest.approx(
            math.exp(-rep.rate * rep.period), rel=1e-12)

    def test_sequential_uses_one_rotation_cycle(self, toy):
        """The map of a full cycle over the ten shared links at T = 1 s
        decays at 0.0207 per second."""
        rep = interval_map_spectrum(toy.grid, toy.comm, "SEQUENTIAL", toy.dt, 1.0)
        assert len(shared_links(toy.grid, toy.comm)) == 10
        assert rep.period == pytest.approx(10.0)
        assert rep.rate == pytest.approx(0.0207, abs=5e-5)

    def test_rejects_laws_without_held_messages(self, toy):
        with pytest.raises(ValueError):
            interval_map_spectrum(toy.grid, toy.comm, "CONSENSUS", toy.dt, 0.01)

    @pytest.mark.parametrize("T, needle", [(1e-4, "shorter than dt"),
                                           (0.0155, "does not divide"),
                                           (math.inf, "does not divide")])
    def test_rejects_a_period_off_the_step_grid(self, toy, T, needle):
        """T must be a whole number of steps dt, as validate requires: at
        T = 0.1 ms the map would be one step's (K = 0 rounds to no steps,
        and k_step_map(D, G, 0) is the one-step map), at 15.5 ms 16 steps
        divided by a period of 15.5 ms; an infinite T is no whole number of
        steps either."""
        with pytest.raises(ValueError, match=needle):
            interval_map_spectrum(toy.grid, toy.comm, "CONSENSUS_SAMPLED", 1e-3, T)


class TestSpectrum:
    def test_diagonal(self):
        rep = spectrum(np.diag([-1.0, -2.0]))
        assert rep.structural_zero_count == 0
        assert rep.spectral_abscissa_excl_zeros == pytest.approx(-1.0)

    def test_comm_laplacian(self):
        rep = spectrum(L2)
        assert sorted(np.round(rep.eigenvalues.real, 9)) == [0.0, 2.0]
        assert rep.structural_zero_count == 1

    def test_two_node_flow_law_has_single_structural_zero(self):
        grid = two_node_grid(M=(0.01, 0.02), D=(1.0, 1.0), C=(0.1, 0.1), B=1.0)
        sm = assemble_state_matrix(grid, CommGraph(links=((0, 1),)), pair_ctx())
        rep = spectrum(sm)
        assert rep.structural_zero_count == 1
        assert rep.spectral_abscissa_excl_zeros < 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSufficientTwoNode:
    def test_reference_point_all_hold(self):
        v = check_sufficient_two_node(np.diag([0.01, 0.02]), np.eye(2),
                                      np.diag([0.1, 0.1]), 1.0, L2)
        assert all(v.values())

    def test_cholesky_oracle_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            M = np.diag(rng.uniform(0.001, 1.0, 2))
            D = np.diag(rng.uniform(0.0, 3.0, 2))
            C = np.diag(rng.uniform(0.02, 10.0, 2))
            B = rng.uniform(0.1, 3.0)
            v = check_sufficient_two_node(M, D, C, B, L2)

            def pd(X):
                try:
                    np.linalg.cholesky(0.5 * (X + X.T))
                    return True
                except np.linalg.LinAlgError:
                    return False

            Ap = np.array([[1.0], [-1.0]])
            LpB = B * (Ap @ Ap.T)
            Cinv = np.linalg.inv(C)
            margins = {
                "inertia_positive": pd(M),
                "inertia_cross_term": pd(0.5 * (L2 @ M + M @ L2) + D),
                "damping_cross_term": pd(0.5 * (L2 @ D + D @ L2) + LpB + Cinv),
            }
            for key, expect in margins.items():
                # the checker uses a 1e-9 margin; skip razor-edge draws
                if v[key] != expect:
                    X = {"inertia_positive": M,
                         "inertia_cross_term": 0.5 * (L2 @ M + M @ L2) + D,
                         "damping_cross_term": 0.5 * (L2 @ D + D @ L2) + LpB + Cinv}[key]
                    assert abs(np.linalg.eigvalsh(0.5 * (X + X.T))[0]) < 1e-8
    def test_zero_inertia_fails_first_condition(self):
        v = check_sufficient_two_node(np.diag([0.0, 0.02]), np.eye(2),
                                      np.diag([0.1, 0.1]), 1.0, L2)
        assert not v["inertia_positive"]

    def test_conditions_imply_stability(self):
        """All four verdicts true implies a strictly negative abscissa apart
        from the single structural zero (checked on 200 qualifying draws)."""
        rng = np.random.default_rng(42)
        found = 0
        while found < 200:
            M = np.diag(rng.uniform(0.005, 0.3, 2))
            D = np.diag(rng.uniform(0.2, 3.0, 2))
            C = np.diag(rng.uniform(0.02, 0.5, 2))
            B = rng.uniform(0.2, 3.0)
            if not all(check_sufficient_two_node(M, D, C, B, L2).values()):
                continue
            found += 1
            grid = two_node_grid(M=np.diag(M), D=np.diag(D), C=np.diag(C), B=B)
            sm = assemble_state_matrix(grid, CommGraph(links=((0, 1),)), pair_ctx())
            rep = spectrum(sm)
            assert rep.structural_zero_count == 1
            assert rep.spectral_abscissa_excl_zeros < 0


class TestSufficientMultiNode:
    def test_two_node_reduction_matches(self):
        M = np.diag([0.05, 0.2])
        D = np.diag([0.7, 1.1])
        C = np.diag([0.1, 0.25])
        B = 1.3
        Ap = np.array([[1.0], [-1.0]])
        LpB = B * (Ap @ Ap.T)
        Lstar = L2 @ np.linalg.inv(C)
        multi = check_sufficient_multi_node(M, D, C, Lstar, LpB)
        two = check_sufficient_two_node(M, D, C, B, L2)
        for key in two:
            assert multi[key] == two[key]

    def test_zero_coupling_case(self):
        M = np.diag([0.1, 0.2, 0.3])
        D = np.eye(3)
        C = np.diag([1.0, 2.0, 4.0])
        LpB = np.zeros((3, 3))
        v = check_sufficient_multi_node(M, D, C, np.zeros((3, 3)), LpB)
        assert v["inertia_positive"] and v["inertia_cross_term"] \
            and v["damping_cross_term"]
        assert v["coupling_margin"]  # lam_max of the zero matrix is 0

    def test_each_matrix_is_solved_once(self, toy, monkeypatch):
        """The cross terms are the symmetric parts of the coupling factors,
        so the check makes three symmetric and three general eigen-solves,
        none on the diagonal M; its verdict on the toy failed pair (2,7)
        is the one of the per-condition solves."""
        grid = toy.grid
        pair = (1, 6)
        comm = CommGraph(links=tuple(l for l in toy.comm.links if l != pair))
        P, Lstar = failed_pair_last(grid, comm, pair)
        M, D, C = (P @ np.diag(v) @ P.T for v in (grid.inertia(), grid.droop(), grid.cost()))
        LpB = P @ grid.weighted_laplacian() @ P.T
        solves = []
        for name in ("eigvalsh", "eigvals"):
            inner = getattr(np.linalg, name)

            def counted(X, inner=inner, name=name):
                solves.append(name)
                return inner(X)
            monkeypatch.setattr(np.linalg, name, counted)
        verdict = check_sufficient_multi_node(M, D, C, Lstar, LpB)
        assert sorted(solves) == ["eigvals"] * 3 + ["eigvalsh"] * 3
        monkeypatch.undo()

        def lam(X, pick):
            return pick(np.linalg.eigvalsh(0.5 * (X + X.T)))
        LC = Lstar @ C
        cond2 = 0.5 * (LC @ M + M @ C @ Lstar.T) + D
        cond3 = LpB + 0.5 * (LC @ D + D @ C @ Lstar.T) + np.linalg.inv(C)
        lhs = lam(LpB + LC @ D + np.linalg.inv(C), min) * lam(LC @ M + D, min)
        assert verdict == {
            **verdict,
            "inertia_positive": lam(M, min) > 1e-9,
            "inertia_cross_term": lam(cond2, min) > 1e-9,
            "damping_cross_term": lam(cond3, min) > 1e-9,
            "coupling_margin": lhs > lam(LC @ LpB, max) * lam(M, max) * (1 + 1e-9),
        }

    def test_toy_failed_pair_verdict_consistent_with_spectrum(self, toy):
        grid = toy.grid
        n = grid.n_nodes
        pair = (1, 6)
        comm = CommGraph(links=tuple(l for l in toy.comm.links if l != pair))
        order = [k for k in range(n) if k not in pair] + list(pair)
        P = np.eye(n)[order]
        M = np.diag(grid.inertia())
        D = np.diag(grid.droop())
        C = np.diag(grid.cost())
        Lstar = build_Lc_star(P @ comm.laplacian(comm.links, n) @ P.T,
                              P @ C @ P.T, (n - 2, n - 1))
        verdict = check_sufficient_multi_node(
            P @ M @ P.T, P @ D @ P.T, P @ C @ P.T, Lstar,
            P @ grid.weighted_laplacian() @ P.T)
        ctx = ControlContext(scheme="HYBRID_SINGLE", F=frozenset(pair))
        rep = spectrum(assemble_state_matrix(grid, comm, ctx))
        # sufficient, not necessary: a positive verdict must mean stable
        if all(verdict[k] for k in ("inertia_positive", "inertia_cross_term",
                                    "damping_cross_term", "coupling_margin")):
            assert rep.spectral_abscissa_excl_zeros < 0
        assert rep.spectral_abscissa_excl_zeros < 0  # the toy loop is stable


class TestBuildLcStar:
    def test_two_node_case_is_scaled_laplacian(self):
        C = np.diag([2.0, 4.0])
        out = build_Lc_star(L2, C, (0, 1))
        assert out == pytest.approx(L2 @ np.linalg.inv(C))

    def test_three_node_path(self):
        comm = CommGraph(links=((0, 1), (1, 2)))
        Lc_surv = comm.laplacian([(0, 1)], 3)  # failed pair (1,2) removed
        C = np.diag([1.0, 2.0, 4.0])
        out = build_Lc_star(Lc_surv, C, (1, 2))
        assert out[1:, 1:] == pytest.approx(np.array([[1 / 2.0, -1 / 4.0],
                                                      [-1 / 2.0, 1 / 4.0]]))
        assert out[0] == pytest.approx(Lc_surv[0])

    def test_requires_relabeled_pair(self):
        with pytest.raises(ValueError):
            build_Lc_star(np.zeros((3, 3)), np.eye(3), (0, 1))


class TestCharacteristicIdentity:
    def test_two_node_exact(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            grid = two_node_grid(M=rng.uniform(0.01, 1.0, 2),
                                 D=rng.uniform(0.1, 3.0, 2),
                                 C=rng.uniform(0.5, 100.0, 2),
                                 B=rng.uniform(0.1, 2.0))
            rep = characteristic_identity_check(grid, CommGraph(links=((0, 1),)),
                                                pair_ctx(), rand_points(rng))
            worst = max(worst, rep.max_residual)
            assert rep.consistent
        assert worst <= 1e-8

    def test_two_node_sign_is_constant_minus_one(self):
        rng = np.random.default_rng(1)
        grid = two_node_grid(M=(0.05, 0.2), D=(0.5, 1.0), C=(2.0, 5.0), B=0.7)
        rep = characteristic_identity_check(grid, CommGraph(links=((0, 1),)),
                                            pair_ctx(), rand_points(rng))
        assert rep.sign == pytest.approx(-1.0, abs=1e-9)

    def test_zero_and_minus_two_are_roots(self):
        grid = two_node_grid(M=(0.5, 0.8), D=(1.0, 1.5), C=(1.0, 2.0), B=1.0)
        sm = assemble_state_matrix(grid, CommGraph(links=((0, 1),)), pair_ctx())
        assert abs(np.linalg.det(sm.A)) <= 1e-12
        assert abs(np.linalg.det(sm.A + 2.0 * np.eye(7))) <= 1e-9

    def test_sample_near_singularity_rejected(self):
        grid = two_node_grid()
        with pytest.raises(ValueError):
            characteristic_identity_check(grid, CommGraph(links=((0, 1),)),
                                          pair_ctx(), [1.0 + 0j, -2.0 + 1e-8j])

    def test_no_sample_points_rejected(self):
        with pytest.raises(ValueError, match="no sample points"):
            characteristic_identity_check(two_node_grid(), CommGraph(links=((0, 1),)),
                                          pair_ctx(), [])

    def _three_node(self, costs):
        nodes = tuple(NodeParams(k + 1, (0.05, 0.1, 0.2)[k], (0.5, 1.0, 0.8)[k],
                                 costs[k], 0.0) for k in range(3))
        grid = PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 0.5)))
        comm = CommGraph(links=((0, 1), (1, 2)))
        ctx = ControlContext(scheme="HYBRID_SINGLE", F=frozenset({1, 2}))
        return grid, comm, ctx

    def test_multi_node_uniform_costs_validate(self):
        rng = np.random.default_rng(2)
        grid, comm, ctx = self._three_node([4.0, 4.0, 4.0])
        rep = characteristic_identity_check(grid, comm, ctx, rand_points(rng, 8))
        assert rep.consistent
        assert rep.max_residual <= 1e-8

    def test_multi_node_heterogeneous_costs_flagged(self):
        """The multi-node block factorization commutes the cost matrix with
        a Laplacian; with unequal costs it does not hold, and the check must
        say so rather than silently pass."""
        rng = np.random.default_rng(3)
        grid, comm, ctx = self._three_node([2.0, 5.0, 10.0])
        rep = characteristic_identity_check(grid, comm, ctx, rand_points(rng, 8))
        assert not rep.consistent
        assert rep.max_residual > 1e-3

    @pytest.mark.parametrize("cost", [None, 100.0])
    def test_large_grid_stays_finite(self, cost):
        """At N = 100 (331 states) det(A - lam I) leaves the float range; the
        check compares log-determinants, so the residuals and the sign stay
        finite and nothing overflows. With equal costs the identity holds,
        here with the factor lam^(1+E-N) = lam^30 of a meshed grid."""
        grid = random_grid(0, 100)
        if cost is not None:
            grid = PowerGrid(tuple(dataclasses.replace(nd, cost=cost) for nd in grid.nodes),
                             grid.lines)
        assert grid.n_lines == 129
        pair = (grid.lines[0].i, grid.lines[0].j)
        comm = CommGraph(links=tuple((l.i, l.j) for l in grid.lines[1:]))
        ctx = ControlContext(scheme="HYBRID_SINGLE", F=frozenset(pair))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = characteristic_identity_check(grid, comm, ctx,
                                                rand_points(np.random.default_rng(0), 6))
        assert len(rep.residuals) == 6
        assert all(math.isfinite(r) for r in rep.residuals)
        assert math.isfinite(rep.sign.real) and math.isfinite(rep.sign.imag)
        if cost is not None:
            assert rep.consistent
            assert rep.max_residual <= 1e-8
            assert rep.sign == pytest.approx(-1.0, abs=1e-9)


def identity_oracle(grid, comm, ctx, pts):
    """(residuals, sigma) of the identity check with one complex LU per
    point: log det(A - z I) by slogdet, and the pencil summed term by term
    at each point."""
    A = assemble_state_matrix(grid, comm, ctx).A
    n, e = grid.n_nodes, grid.n_lines
    M, D, C = (np.diag(v) for v in (grid.inertia(), grid.droop(), grid.cost()))
    LpB = grid.weighted_laplacian()
    if ctx.scheme == "PAIR_FLOW":
        K, exp_lam, sign_n = L2, 0, 0.0

        def tail(z):
            return (2.0 + z) * LpB
    else:
        P, Lstar = failed_pair_last(grid, comm, tuple(sorted(ctx.F)))
        M, D, C, LpB = (P @ X @ P.T for X in (M, D, C, LpB))
        K, exp_lam, sign_n = Lstar @ C, 1 + e - n, 1j * math.pi * (n % 2)

        def tail(z):
            return (K + z * np.eye(n)) @ LpB

    def logdet(X):
        sign, logabs = np.linalg.slogdet(X)
        return np.log(sign) + logabs

    def log_ratio(z):
        H = (z ** 2 * D + z ** 3 * M + z * np.linalg.inv(C) + z * (K @ D)
             + z ** 2 * (K @ M) + tail(z))
        return (logdet(A - z * np.eye(A.shape[0]))
                - (sign_n + exp_lam * np.log(z) + np.log(z + 2.0) - logdet(M) + logdet(H)))

    lr = np.array([log_ratio(complex(z)) for z in pts])
    r = np.exp(lr - lr[0])
    return np.abs(r - 1.0) / np.maximum(np.abs(r), 1.0), np.exp(lr[0])


def oracle_cases():
    """HYBRID_SINGLE on seeded grids (N = 3 to 60, unequal and equal costs,
    the first power line failed) and PAIR_FLOW on 20 two-node grids."""
    for n in (3, 10, 30, 60):
        for seed in (0, 1):
            grid = random_grid(seed, n)
            for equal in (False, True):
                if equal:
                    grid = PowerGrid(tuple(dataclasses.replace(nd, cost=7.0)
                                           for nd in grid.nodes), grid.lines)
                pair = (grid.lines[0].i, grid.lines[0].j)
                comm = CommGraph(links=tuple((l.i, l.j) for l in grid.lines[1:]))
                yield grid, comm, ControlContext(scheme="HYBRID_SINGLE", F=frozenset(pair))
    rng = np.random.default_rng(4)
    for _ in range(20):
        grid = two_node_grid(M=rng.uniform(0.01, 1.0, 2), D=rng.uniform(0.1, 3.0, 2),
                             C=rng.uniform(0.5, 100.0, 2), B=rng.uniform(0.1, 2.0))
        yield grid, CommGraph(links=((0, 1),)), pair_ctx()


def test_identity_check_matches_lu_oracle():
    """The spectrum-based left side and the stacked pencil agree with one
    LU per point: the same consistent flags, residuals within 1e-10 and
    sigma within 1e-9; both flag values occur."""
    rng = np.random.default_rng(6)
    flags = []
    for grid, comm, ctx in oracle_cases():
        pts = rand_points(rng)
        rep = characteristic_identity_check(grid, comm, ctx, pts)
        residuals, sigma = identity_oracle(grid, comm, ctx, pts)
        assert rep.consistent == (residuals.max() <= 1e-8)
        assert np.abs(np.array(rep.residuals) - residuals).max() <= 1e-10
        assert abs(rep.sign - sigma) <= 1e-9
        flags.append(rep.consistent)
    assert len(flags) == 36 and 0 < sum(flags) < 36


def test_identity_check_takes_the_spectrum():
    """Passing the spectrum of A gives the report the check computes
    without it."""
    grid = random_grid(2, 30)
    pair = (grid.lines[0].i, grid.lines[0].j)
    comm = CommGraph(links=tuple((l.i, l.j) for l in grid.lines[1:]))
    ctx = ControlContext(scheme="HYBRID_SINGLE", F=frozenset(pair))
    pts = rand_points(np.random.default_rng(7))
    lam = spectrum(assemble_state_matrix(grid, comm, ctx)).eigenvalues
    assert (characteristic_identity_check(grid, comm, ctx, pts, eigenvalues=lam)
            == characteristic_identity_check(grid, comm, ctx, pts))


def test_routh_hurwitz_cubic_consistency():
    """For random unit vectors, whenever the quadratic-form coefficients are
    positive with a_0 a_3 < a_1 a_2, the cubic has no root in the open right
    half-plane (root-finder oracle)."""
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(200):
        M = np.diag(rng.uniform(0.005, 1.0, 2))
        D = np.diag(rng.uniform(0.05, 3.0, 2))
        C = np.diag(rng.uniform(0.02, 10.0, 2))
        B = rng.uniform(0.1, 3.0)
        Ap = np.array([[1.0], [-1.0]])
        LpB = B * (Ap @ Ap.T)
        Cinv = np.linalg.inv(C)
        x = rng.normal(size=2)
        x /= np.linalg.norm(x)
        a0 = x @ (2 * LpB) @ x
        a1 = x @ (LpB + 0.5 * (L2 @ D + D @ L2) + Cinv) @ x
        a2 = x @ (0.5 * (L2 @ M + M @ L2) + D) @ x
        a3 = x @ M @ x
        if min(a0, a1, a2, a3) > 0 and a0 * a3 < a1 * a2:
            roots = np.roots([a3, a2, a1, a0])
            assert np.max(roots.real) <= 1e-9
            checked += 1
    assert checked > 50  # the regime is actually exercised
