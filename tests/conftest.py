"""Shared fixtures and reference oracles.

derivative() is the reference dynamics, the swing and line rates of
simulator.swing_rate joined with the control law of
controllers.control_rate, on the full state [omega, flow, u, q];
angle_derivative() is the same dynamics on a run's coordinates [omega,
theta, u, q], and identity_system() the [A B] of either from one call on
the identity stack. reference_integrate is a deliberately naive RK4
loop driven by it with inline event handling; the production integrator,
a plan of kernel calls and the loop that executes it, is checked against
it on short horizons. random_grid builds seeded connected
grids larger than the toy one. sequential_active_link, sequential_context
and shared_links spell out SEQUENTIAL's rotation for the oracle and the
tests; trajectory_states lists a trajectory's recorded states,
reference_csv writes a trajectory's CSV one f"{v:.9g}" at a time, and
lift writes a map on a run's coordinates in full coordinates.
"""
from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from gridfreq import toy_grid
from gridfreq.controllers import ControlContext, Link, control_rate, init_artificial
from gridfreq.model import (CONTINUOUS, CommGraph, Line, NodeParams, PowerGrid, Scenario,
                            SystemState)
from gridfreq.simulator import (Trajectory, held_messages, initial_flows, modes, state_to_vector,
                                swing_rate, vector_to_state)


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


def transposed_Lc_star(L_c: np.ndarray, C: np.ndarray, pair: Link) -> np.ndarray:
    """A deliberately wrong L_c*: stability.build_Lc_star's with the pair
    block written L2 C_P^-1 in place of C_P^-1 L2. The law's pair rows
    give C_P^-1 L2 C_P in K = L_c* C, so with this block the
    characteristic identity fails wherever the pair's two costs differ."""
    out = np.array(L_c, dtype=float)
    idx = np.array(pair)
    out[idx] = 0.0
    out[np.ix_(idx, idx)] = np.array([[1.0, -1.0], [-1.0, 1.0]]) / np.diag(C)[idx]
    return out


def sequential_active_link(K: int, shared_links: Sequence[Link]) -> Link:
    """Round-robin selection over the ordered shared links for interval K."""
    if not shared_links:
        raise ValueError("no shared power/communication links to rotate over")
    return shared_links[K % len(shared_links)]


def sequential_context(link: Link) -> ControlContext:
    """SEQUENTIAL's context while `link` is the active pair."""
    return modes("SEQUENTIAL", [link], [link])[0]


def shared_links(grid: PowerGrid, comm: CommGraph) -> List[Link]:
    """Links of comm that are also power lines, in SEQUENTIAL's rotation order."""
    return [tuple(sorted(c.F)) for c in modes("SEQUENTIAL", grid.edge_set(), comm.links)]


def trajectory_states(traj: Trajectory) -> Tuple[SystemState, ...]:
    """Every recorded state of traj, in order."""
    return tuple(traj.state_at(k) for k in range(len(traj)))


def reference_csv(traj: Trajectory) -> bytes:
    """The bytes write_trajectory_csv must write, one value at a time."""
    n, e = traj.omega.shape[1], traj.flow.shape[1]
    cols = (["t"] + [f"omega_{k + 1}" for k in range(n)] + [f"u_{k + 1}" for k in range(n)]
            + [f"q_{k + 1}" for k in range(n)] + [f"f_{k + 1}" for k in range(e)]
            + ["cost_paper"])
    lines = [",".join(cols)]
    for k in range(len(traj)):
        row = np.concatenate([[traj.times[k]], traj.omega[k], traj.u[k], traj.q[k],
                              traj.flow[k], [traj.cost_series[k]]])
        lines.append(",".join(f"{v:.9g}" for v in row))
    return ("\n".join(lines) + "\n").encode()


def lift(grid: PowerGrid, m) -> Tuple[np.ndarray, np.ndarray]:
    """A simulator.StepMap m on the run's coordinates z = [omega, theta,
    u, q] in full coordinates: (D, G) of x -> x + D x + G [y; p], x =
    [omega, f, u, q]. m starts from x with theta zero and reads p net of
    the flows of x; the flows advance by PowerGrid.angle_flows() times
    theta's increment. The rows of the states m holds are zero."""
    n, e = grid.n_nodes, grid.n_lines
    a, dim = len(grid.angle_rates()), 3 * n + e

    def full(k):        # an index into [z; y; p - B f0], theta's excepted, into [x; y; p]
        return np.where(k < n, k, k + e - a)

    theta = (m.states >= n) & (m.states < n + a)
    dz = np.zeros((len(m.D), dim + 2 * n))      # m's increment per entry of [x; y; p]
    dz[:, full(m.states[~theta])] = m.D[:, ~theta]
    dz[:, full(m.inputs)] = m.G
    p = m.inputs >= 4 * n + a
    dz[:, n:n + e] = -(m.G[:, p] @ grid.incidence()[m.inputs[p] - 4 * n - a])
    out = np.zeros((dim, dim + 2 * n))
    out[full(m.states[~theta])] = dz[~theta]
    out[n:n + e] = grid.angle_flows()[:, m.states[theta] - n] @ dz[theta]
    return out[:, :dim], out[:, dim:]


def derivative(state: SystemState, grid: PowerGrid, comm: CommGraph,
               ctx: ControlContext, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Time derivative of the full state vector [omega, flow, u, q]: dω and
    df from simulator.swing_rate, du and dq from the control law of ctx
    (controllers.control_rate). p defaults to the grid's fixed powers; pass
    the disturbed vector when evaluating mid-run.

    Stacked states: every array field of state (and p) may carry leading
    batch axes, one state per row, as vector_to_state makes from a (k, dim)
    stack; each held value in state.last_rx is then a scalar or a (k,)
    array. The result has the same leading axes, row r the derivative of
    state r. One code path serves single and stacked states.
    """
    if p is None:
        p = grid.fixed_power()
    du, dq = control_rate(state, grid, comm, ctx)
    return np.concatenate([*swing_rate(state, grid, p), du, dq], axis=-1)


def angle_derivative(z: np.ndarray, grid: PowerGrid, comm: CommGraph, ctx: ControlContext,
                     p: Optional[np.ndarray] = None, f0=0.0, last_rx=None) -> np.ndarray:
    """Time derivative of a run's state z = [omega, theta (N - c), u, q]:
    derivative() at x = [omega, f0 + angle_flows() theta, u, q], its flow
    rates replaced by theta' = angle_rates() omega. A stack z of shape
    (k, 3N + N - c) gives the stacked rates, as derivative() does."""
    n, a = grid.n_nodes, len(grid.angle_rates())
    flow = f0 + z[..., n:n + a] @ grid.angle_flows().T
    state = SystemState(0.0, z[..., :n], flow, z[..., n + a:2 * n + a], z[..., 2 * n + a:],
                        last_rx or {})
    dx = derivative(state, grid, comm, ctx, p)
    return np.concatenate([dx[..., :n], z[..., :n] @ grid.angle_rates().T,
                           dx[..., n + grid.n_lines:]], axis=-1)


def identity_system(grid: PowerGrid, comm: CommGraph, ctx: ControlContext,
                    angles: bool = True) -> np.ndarray:
    """[A B] of ctx, the rates of one angle_derivative() call on the
    identity stack of [z; y; p], one column per unit vector, with y the
    held messages; with angles False, of one derivative() call on the
    identity stack of the full [x; y; p], x = [omega, flow, u, q]."""
    n = grid.n_nodes
    dim = 3 * n + (len(grid.angle_rates()) if angles else grid.n_lines)
    W = np.eye(dim + 2 * n)
    X, rx, P = W[:, :dim], held_messages(W[:, dim:dim + n], comm.links), W[:, dim + n:]
    if angles:
        return angle_derivative(X, grid, comm, ctx, P, last_rx=rx).T
    return derivative(vector_to_state(0.0, X, grid, rx), grid, comm, ctx, P).T


def reference_integrate(scenario: Scenario, n_steps: int, every: int = 0,
                        initial_state: Optional[SystemState] = None):
    """Step-by-step RK4 using derivative() directly; returns the state vector
    after n_steps, or with every > 0 a dict from each step that is a
    multiple of every to the state then. A state is taken after the events
    of its step. Starts from initial_state, as integrate() does, or else at
    rest with the initial flows. Handles disturbances, failures, sampling
    and sequential rotation inline, in the same event order as integrate().
    The held values are refreshed from the live links at every sampling
    instant, and under continuous messaging at the start of every step,
    before that step's events; a failed link keeps its last value.
    """
    grid, comm = scenario.grid, scenario.comm
    n, e = grid.n_nodes, grid.n_lines
    dt = scenario.dt
    p = grid.fixed_power().copy()
    if initial_state is None:
        x = np.zeros(3 * n + e)
        x[n:n + e] = initial_flows(grid, p)
    else:
        x = state_to_vector(initial_state).astype(float)
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

    def refresh():
        y = grid.cost() * x[n + e:2 * n + e]
        for a, b in live_comm().links:
            last_rx[(a, b)] = y[a]
            last_rx[(b, a)] = y[b]

    for step in range(n_steps + 1):
        t = step * dt
        if steps_per_T is None:     # continuous messaging: live links carry the current C u
            refresh()
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
                    q0, _ = init_artificial(st, grid, mode_ctx)
                    x[2 * n + e:] = q0
                elif scheme == "MULTI_FAILURE":
                    pairs = frozenset(l for l in failed if l in power)
                    F = frozenset(i for l in pairs for i in l)
                    mode_ctx = ControlContext(scheme="MULTI_FAILURE", F=F)
                    st = vector_to_state(t, x, grid, last_rx)
                    q0, _ = init_artificial(st, grid, mode_ctx)
                    x[2 * n + e:] = q0
        if steps_per_T is not None and step % steps_per_T == 0:
            refresh()
        if scheme == "SEQUENTIAL" and step % steps_per_T == 0:
            K = step // steps_per_T
            shared = sorted(set((ln.i, ln.j) for ln in grid.lines)
                            & set(live_comm().links))
            link = sequential_active_link(K, shared)
            mode_ctx = ControlContext(scheme="SEQUENTIAL", F=frozenset(link))
            pair_ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset(link))
            st = vector_to_state(t, x, grid, last_rx)
            q0, _ = init_artificial(st, grid, pair_ctx)
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
