import numpy as np
import pytest

from gridfreq.dispatch import cost_of, optimal_dispatch
from gridfreq.model import Line, NodeParams, PowerGrid


def two_node_grid(costs):
    nodes = tuple(NodeParams(k + 1, 0.1, 1.0, c, 0.0) for k, c in enumerate(costs))
    return PowerGrid(nodes, (Line(0, 1, 1.0),))


def test_toy_post_disturbance_cost(toy):
    p = toy.grid.fixed_power()
    p[2] -= 5.0
    res = optimal_dispatch(toy.grid, p)
    assert res.cost_paper == pytest.approx(23.278, abs=0.01)
    assert res.cost_quadratic == pytest.approx(res.cost_paper / 2)


def test_balanced_system_needs_no_control(toy):
    res = optimal_dispatch(toy.grid, toy.grid.fixed_power())
    assert np.all(res.u_star == 0)
    assert res.cost_paper == 0 and res.cost_quadratic == 0


def test_equal_costs_split_equally():
    grid = two_node_grid([1.0, 1.0])
    res = optimal_dispatch(grid, np.array([-1.0, -1.0]))
    assert res.u_star == pytest.approx([1.0, 1.0])
    assert res.cost_paper == pytest.approx(2.0)


def test_result_invariants(toy):
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.normal(size=toy.grid.n_nodes) * 5
        res = optimal_dispatch(toy.grid, p)
        weighted = toy.grid.cost() * res.u_star
        assert np.allclose(weighted, res.lam, rtol=1e-12, atol=1e-12)
        assert res.u_star.sum() == pytest.approx(-p.sum(), rel=1e-12, abs=1e-12)


def test_cost_of_examples(toy):
    grid = PowerGrid((NodeParams(1, 0.1, 1.0, 10.0, 0.0),), ())
    assert cost_of(grid, np.array([2.0])) == (40.0, 20.0)
    assert cost_of(toy.grid, np.zeros(10)) == (0.0, 0.0)
    p = toy.grid.fixed_power()
    p[2] -= 5.0
    res = optimal_dispatch(toy.grid, p)
    assert cost_of(toy.grid, res.u_star)[0] == pytest.approx(23.278, abs=1e-3)


def test_cost_of_rejects_length_mismatch(toy):
    with pytest.raises(ValueError):
        cost_of(toy.grid, np.zeros(3))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        optimal_dispatch(PowerGrid((), ()), np.array([]))


def test_optimal_dispatch_rejects_length_mismatch(toy):
    with pytest.raises(ValueError, match=r"p_star must have length 10, got \(3,\)"):
        optimal_dispatch(toy.grid, np.zeros(3))


def _projected_gradient(cost, total, iters=20000, eta=None):
    """Independent minimizer of sum(C u^2)/2 subject to sum(u) = total."""
    n = len(cost)
    u = np.full(n, total / n)
    eta = 0.9 / cost.max() if eta is None else eta
    for _ in range(iters):
        u = u - eta * cost * u
        u += (total - u.sum()) / n
    return u


def test_optimum_matches_projected_gradient_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(2, 8)
        cost = rng.uniform(0.5, 50.0, n)
        nodes = tuple(NodeParams(k + 1, 0.1, 1.0, c, 0.0) for k, c in enumerate(cost))
        lines = tuple(Line(k, k + 1, 1.0) for k in range(n - 1))
        grid = PowerGrid(nodes, lines)
        p = rng.normal(size=n) * 3
        res = optimal_dispatch(grid, p)
        u_pg = _projected_gradient(cost, -p.sum())
        assert np.abs(res.u_star - u_pg).max() < 1e-6
        # no same-sum vector beats it
        for _ in range(25):
            u = u_pg + rng.normal(size=n)
            u += (-p.sum() - u.sum()) / n
            assert cost_of(grid, u)[1] >= res.cost_quadratic - 1e-9


def test_cost_scaling_leaves_dispatch_unchanged(toy):
    p = toy.grid.fixed_power()
    p[2] -= 5.0
    base = optimal_dispatch(toy.grid, p)
    scaled_nodes = tuple(
        NodeParams(n.id, n.inertia, n.droop, 7.5 * n.cost, n.fixed_power)
        for n in toy.grid.nodes)
    scaled = optimal_dispatch(PowerGrid(scaled_nodes, toy.grid.lines), p)
    assert np.allclose(scaled.u_star, base.u_star, rtol=1e-12)
    assert scaled.cost_paper == pytest.approx(7.5 * base.cost_paper, rel=1e-12)
    assert scaled.cost_quadratic == pytest.approx(7.5 * base.cost_quadratic, rel=1e-12)
