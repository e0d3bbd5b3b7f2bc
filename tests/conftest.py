"""Shared fixtures and reference oracles.

reference_integrate is a deliberately naive RK4 loop driven by the public
derivative() function with inline event handling; the production
integrator's segment/kernel machinery is checked against it on short
horizons. random_grid builds seeded connected grids larger than the toy one.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from gridfreq import toy_grid
from gridfreq.controllers import ControlContext, init_artificial, sequential_active_link
from gridfreq.model import CONTINUOUS, CommGraph, Line, NodeParams, PowerGrid, Scenario
from gridfreq.simulator import derivative, initial_flows, state_to_vector, vector_to_state


@pytest.fixture(scope="session")
def toy():
    return toy_grid()


@pytest.fixture(scope="session")
def experiment_results():
    """Run each bundled experiment once; records wall time per experiment."""
    from gridfreq import experiments

    out = {}
    for name, fn in experiments.EXPERIMENTS.items():
        t0 = time.perf_counter()
        out[name] = fn()
        out[name + "_wall"] = time.perf_counter() - t0
    return out


def random_grid(seed: int, n: int) -> PowerGrid:
    """Connected grid with n nodes and n - 1 + round(0.3 n) lines: a random
    spanning tree plus random chords, unequal costs, balanced fixed powers."""
    rng = np.random.default_rng(seed)
    costs = (5.0, 7.0, 9.0, 10.0, 100.0)
    p = rng.uniform(-5.0, 5.0, n)
    p -= p.mean()
    nodes = tuple(NodeParams(k + 1, float(rng.uniform(0.01, 1.0)),
                             float(rng.uniform(0.3, 3.4)),
                             costs[rng.integers(len(costs))], float(p[k]))
                  for k in range(n))
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a, b = int(order[k]), int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n - 1 + round(0.3 * n):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((min(a, b), max(a, b)))
    lines = tuple(Line(a, b, float(rng.uniform(0.1, 1.0))) for a, b in sorted(edges))
    return PowerGrid(nodes, lines)


def reference_integrate(scenario: Scenario, n_steps: int, every: int = 0):
    """Step-by-step RK4 using derivative() directly; returns the state vector
    after n_steps, or with every > 0 a dict from each step that is a
    multiple of every to the state then. A state is taken after the events
    of its step. Handles disturbances, failures, sampling and sequential
    rotation inline, in the same event order as integrate().
    """
    grid, comm = scenario.grid, scenario.comm
    n, e = grid.n_nodes, grid.n_lines
    dt = scenario.dt
    p = grid.fixed_power().copy()
    x = np.zeros(3 * n + e)
    x[n:n + e] = initial_flows(grid, p)
    T = comm.message_interval
    steps_per_T = None if T is CONTINUOUS else int(round(T / dt))
    last_rx = {}
    failed = set()
    states = {}
    scheme = scenario.scheme
    mode_ctx = ControlContext(scheme="CONSENSUS")
    if scheme in ("CONSENSUS", "CONSENSUS_SAMPLED"):
        mode_ctx = ControlContext(scheme=scheme)
    pair_edge = sorted((ln.i, ln.j) for ln in grid.lines)[0] if scheme == "PAIR_FLOW" else None
    if scheme == "PAIR_FLOW" and pair_edge not in {l for l, _ in comm.failed}:
        mode_ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset(pair_edge))

    def live_comm():
        return CommGraph(links=tuple(l for l in comm.links if l not in failed),
                         failed=(), message_interval=T)

    for step in range(n_steps + 1):
        t = step * dt
        # events at this step, spec order
        for d in scenario.disturbances:
            if int(round(d.time / dt)) == step:
                p[d.node] += d.delta_p
        for link, t0 in comm.failed:
            if int(round(t0 / dt)) == step and link not in failed:
                failed.add(link)
                power = grid.edge_set()
                if scheme in ("HYBRID_SINGLE", "PAIR_FLOW") and link in power:
                    new_mode = scheme
                    mode_ctx = ControlContext(scheme=new_mode, F=frozenset(link))
                    st = vector_to_state(t, x, grid, last_rx)
                    q0, _ = init_artificial(st, grid, mode_ctx, comm)
                    x[2 * n + e:] = q0
                elif scheme == "MULTI_FAILURE":
                    pairs = frozenset(l for l in failed if l in power)
                    F = frozenset(i for l in pairs for i in l)
                    mode_ctx = ControlContext(scheme="MULTI_FAILURE", F=F)
                    st = vector_to_state(t, x, grid, last_rx)
                    q0, _ = init_artificial(st, grid, mode_ctx, comm)
                    x[2 * n + e:] = q0
        if steps_per_T is not None and step % steps_per_T == 0:
            y = grid.cost() * x[n + e:2 * n + e]
            for a, b in live_comm().links:
                last_rx[(a, b)] = y[a]
                last_rx[(b, a)] = y[b]
        if scheme == "SEQUENTIAL" and step % steps_per_T == 0:
            K = step // steps_per_T
            shared = sorted(set((ln.i, ln.j) for ln in grid.lines)
                            & set(live_comm().links))
            link = sequential_active_link(K, shared)
            mode_ctx = ControlContext(scheme="SEQUENTIAL", F=frozenset(link))
            pair_ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset(link))
            st = vector_to_state(t, x, grid, last_rx)
            q0, _ = init_artificial(st, grid, pair_ctx, comm)
            x[2 * n + e:] = q0
        if every and step % every == 0:
            states[step] = x.copy()
        if step == n_steps:
            break

        lc = live_comm()

        def f(xv):
            return derivative(vector_to_state(t, xv, grid, last_rx), grid, lc,
                              mode_ctx, p)

        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return states if every else x
