"""Fixed-step closed-loop integration with discrete events.

Between events (disturbances, link failures, message sampling instants,
sequential link rotation) the closed loop is an affine system
dx/dt = A x + b over the state layout [omega (N), flow (E), u (N), q (N)].
derivative() is the single definition of those dynamics and takes stacked
states, one state per row, so the integrator assembles (A, b), like the
input and reset matrices of a message interval, from one evaluation on the
identity stack, and hands each stretch between events to the RK4 kernel.
With a finite message interval each sampling instant is a linear reset
(the held messages refresh to C u, and SEQUENTIAL re-initializes q), so a
whole message interval is one exact affine map (interval_map): the
integrator advances runs of intervals with it and stops at events, and at
records too unless they all fall on sampling instants of intervals that
share one map. The trajectory is bit-reproducible for identical inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import controllers
from .controllers import ControlContext
from .dispatch import cost_of, optimal_dispatch
from .kernels import jump, k_step_map, rk4_segment
from .model import CONTINUOUS, CommGraph, PowerGrid, Scenario, SystemState, validate


class ScenarioError(ValueError):
    """integrate() was handed a scenario that fails validation."""


class IntegrationError(RuntimeError):
    """The state left the finite range; carries the first step whose RK4
    state is not finite and the last finite recorded state."""

    def __init__(self, step: int, last_state: Optional[SystemState]):
        self.step = step
        self.last_state = last_state
        super().__init__(f"non-finite state at step {step}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray          # (S,)
    omega: np.ndarray          # (S, N)
    flow: np.ndarray           # (S, E)
    u: np.ndarray              # (S, N)
    q: np.ndarray              # (S, N)
    cost_series: np.ndarray    # (S,) cost_paper per snapshot
    events: Tuple[Tuple[float, str, str], ...]
    rx_links: Tuple[Tuple[int, int], ...] = ()
    rx_series: Optional[np.ndarray] = None   # (S, len(rx_links)) held values

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> SystemState:
        last_rx = {}
        if self.rx_series is not None:
            last_rx = {link: self.rx_series[k, c] for c, link in enumerate(self.rx_links)
                       if np.isfinite(self.rx_series[k, c])}
        return SystemState(t=float(self.times[k]), omega=self.omega[k].copy(),
                           flow=self.flow[k].copy(), u=self.u[k].copy(),
                           q=self.q[k].copy(), last_rx=last_rx)

    @property
    def states(self) -> Tuple[SystemState, ...]:
        return tuple(self.state_at(k) for k in range(len(self)))


@dataclass(frozen=True)
class RunSummary:
    steady_u: np.ndarray
    steady_cost_paper: float
    t_star: Optional[float]                 # None = not converged
    t_star_first_crossing: Optional[float]
    max_freq_excursion: float

    def to_dict(self) -> dict:
        return {
            "steady_u": [float(v) for v in self.steady_u],
            "steady_cost_paper": self.steady_cost_paper,
            "converged": self.t_star is not None,
            "t_star": self.t_star,
            "t_star_first_crossing": self.t_star_first_crossing,
            "max_freq_excursion": self.max_freq_excursion,
        }


# ---------------------------------------------------------------------------
# Continuous-time derivative (the reference dynamics; the integrator's
# affine matrices are assembled from one evaluation on the identity stack)

def state_to_vector(state: SystemState) -> np.ndarray:
    return np.concatenate([state.omega, state.flow, state.u, state.q], axis=-1)


def vector_to_state(t: float, x: np.ndarray, grid: PowerGrid,
                    last_rx: Optional[dict] = None) -> SystemState:
    """The state of vector x; a stack x of shape (k, dim) gives a stacked state."""
    n, e = grid.n_nodes, grid.n_lines
    return SystemState(t=t, omega=x[..., :n], flow=x[..., n:n + e],
                       u=x[..., n + e:2 * n + e], q=x[..., 2 * n + e:],
                       last_rx=last_rx or {})


def state_labels(grid: PowerGrid, q_nodes: Optional[Sequence[int]] = None) -> Tuple[str, ...]:
    """Row labels for the state layout; q_nodes limits the q block."""
    qs = range(grid.n_nodes) if q_nodes is None else q_nodes
    return tuple(
        [f"omega_{k + 1}" for k in range(grid.n_nodes)]
        + [f"f_{ln.i + 1}_{ln.j + 1}" for ln in grid.lines]
        + [f"u_{k + 1}" for k in range(grid.n_nodes)]
        + [f"q_{k + 1}" for k in qs]
    )


def derivative(state: SystemState, grid: PowerGrid, comm: CommGraph,
               ctx: ControlContext, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Time derivative of the full state vector [omega, flow, u, q].

    Swing dynamics: M dω = -D ω + p + u - (incidence) f; line dynamics:
    df = B (ω_i - ω_j). du and dq are delegated to the control law selected
    by ctx.scheme. p defaults to the grid's fixed powers; pass the
    disturbed vector when evaluating mid-run.

    Stacked states: every array field of state (and p) may carry leading
    batch axes, one state per row, as vector_to_state makes from a (k, dim)
    stack; each held value in state.last_rx is then a scalar or a (k,)
    array. The result has the same leading axes, row r the derivative of
    state r. One code path serves single and stacked states.
    """
    if p is None:
        p = grid.fixed_power()
    inc = grid.incidence()
    domega = (-grid.droop() * state.omega + p + state.u - state.flow @ inc.T) / grid.inertia()
    dflow = grid.susceptance() * (state.omega @ inc)

    dq = np.zeros(np.shape(state.u))
    scheme = ctx.scheme
    if scheme == "CONSENSUS":
        du = controllers.consensus_rate(state, grid, comm)
    elif scheme == "CONSENSUS_SAMPLED":
        du = controllers.consensus_sampled_rate(state, grid, comm)
    elif scheme == "PAIR_FLOW":
        du_pair, dq_pair = controllers.pair_flow_rate(state, grid, ctx)
        du = np.zeros(np.shape(state.u))
        for i, v in du_pair.items():
            du[..., i] = v
        for i, v in dq_pair.items():
            dq[..., i] = v
    elif scheme == "HYBRID_SINGLE":
        du, dq_pair = controllers.hybrid_single_failure_rate(state, grid, comm, ctx)
        for i, v in dq_pair.items():
            dq[..., i] = v
    elif scheme == "MULTI_FAILURE":
        du, dq_pair = controllers.multi_failure_rate(state, grid, comm, ctx)
        for i, v in dq_pair.items():
            dq[..., i] = v
    elif scheme == "SEQUENTIAL":
        du = controllers.consensus_sampled_rate(state, grid, comm)
        pair_ctx = ControlContext(scheme="PAIR_FLOW",
                                  F=frozenset(ctx.active_link),
                                  pair_edges=frozenset([ctx.active_link]))
        du_pair, dq_pair = controllers.pair_flow_rate(state, grid, pair_ctx)
        for i, v in du_pair.items():
            du[..., i] = v
        for i, v in dq_pair.items():
            dq[..., i] = v
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return np.concatenate([domega, dflow, du, dq], axis=-1)


def assemble_affine(grid: PowerGrid, comm: CommGraph, ctx: ControlContext,
                    p: np.ndarray, last_rx: dict, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (A, b) with derivative(x) == A x + b, from one evaluation on
    the identity stack: row k of derivative(I) - b is column k of A.

    Exact because every control law is linear in the state once event data
    (p, held messages, the active structure) is frozen.
    """
    dim = 3 * grid.n_nodes + grid.n_lines
    b = derivative(vector_to_state(t, np.zeros(dim), grid, last_rx), grid, comm, ctx, p)
    dx = derivative(vector_to_state(t, np.eye(dim), grid, last_rx), grid, comm, ctx, p)
    dx -= b
    return np.ascontiguousarray(dx.T), b


def held_messages(y: np.ndarray, links: Sequence[Tuple[int, int]]) -> dict:
    """The refresh rule of a sampling instant: each link carries the weighted
    control y = C u of either endpoint to the other one. For a stack y of
    shape (k, N) each held value is the (k,) column of its sender."""
    rx = {}
    for a, b in links:
        rx[(a, b)] = y[..., a]
        rx[(b, a)] = y[..., b]
    return rx


def assemble_inputs(grid: PowerGrid, comm: CommGraph, ctx: ControlContext) -> np.ndarray:
    """Exact B with derivative(0) == B @ [y; p] for held messages
    held_messages(y, comm.links) and fixed powers p, from one evaluation on
    the identity stack W = I_2N, whose row k is one unit [y; p].

    The y columns are zero for laws that read no held message. Every law is
    linear, so derivative(0) vanishes at y = 0 and p = 0.
    """
    n = grid.n_nodes
    W = np.eye(2 * n)
    zero = np.zeros((2 * n, 3 * n + grid.n_lines))
    rx = held_messages(W[:, :n], comm.links)
    dx = derivative(vector_to_state(0.0, zero, grid, rx), grid, comm, ctx, W[:, n:])
    return np.ascontiguousarray(dx.T)


def sequential_context(link: Tuple[int, int]) -> ControlContext:
    """SEQUENTIAL's context while `link` is the active pair."""
    return ControlContext(scheme="SEQUENTIAL", F=frozenset(link),
                          pair_edges=frozenset([link]), active_link=link)


def shared_links(grid: PowerGrid, comm: CommGraph) -> List[Tuple[int, int]]:
    """Links of comm that are also power lines, in SEQUENTIAL's rotation order."""
    return sorted(grid.edge_set() & set(comm.links))


def rotation_reset(grid: PowerGrid, comm: CommGraph, ctx: ControlContext) -> np.ndarray:
    """Exact R with R x the state after a SEQUENTIAL rotation to
    ctx.active_link at a sampling instant: messages refreshed from x, then q
    re-initialized by init_artificial for the new pair. From one evaluation
    of init_artificial on the identity stack."""
    n, e = grid.n_nodes, grid.n_lines
    R = np.eye(3 * n + e)
    pair_ctx = ControlContext(scheme="PAIR_FLOW", F=ctx.F, pair_edges=ctx.pair_edges)
    rx = held_messages(grid.cost() * R[:, n + e:2 * n + e], comm.links)
    q0, _ = controllers.init_artificial(vector_to_state(0.0, R, grid, rx),
                                        grid, pair_ctx, comm)
    R[2 * n + e:] = q0.T
    return R


def interval_map(grid: PowerGrid, comm: CommGraph, ctx: ControlContext, h: float,
                 K: int, A: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Exact map of one message interval, K RK4 steps of size h from one
    sampling instant to the next, as (D, G) with

        x(next instant) = x + D x + G p

    for fixed powers p. At the instant the messages are refreshed from x by
    held_messages and, under SEQUENTIAL (ctx.active_link set), q is reset
    by rotation_reset; then the held values y = C u stay constant for K
    steps of x' = A x + B [y; p] (assemble_inputs). Refresh and reset are
    linear and RK4's K-step map with constant inputs is affine
    (kernels.k_step_map), so the map is exact. Both leave a state whose
    sampling events have already been applied unchanged, so the map also
    advances such a state.

    comm holds the live links only. A, when given, is assemble_affine's
    matrix for (comm, ctx). D is dim x dim and G dim x N.
    """
    n, e = grid.n_nodes, grid.n_lines
    if A is None:
        A, _ = assemble_affine(grid, comm, ctx, np.zeros(n),
                               held_messages(np.zeros(n), comm.links), 0.0)
    D, G = k_step_map(A, assemble_inputs(grid, comm, ctx), h, K)
    D[:, n + e:2 * n + e] += G[:, :n] * grid.cost()
    if ctx.active_link is not None:
        R = rotation_reset(grid, comm, ctx)
        D = D @ R
        D += R
        D[np.diag_indices_from(D)] -= 1.0
    return D, np.ascontiguousarray(G[:, n:])


def initial_flows(grid: PowerGrid, p: np.ndarray) -> np.ndarray:
    """Minimum-norm DC flow solution balancing the injections at ω = 0
    (zero cycle-space component)."""
    f, *_ = np.linalg.lstsq(grid.incidence(), p, rcond=None)
    return f


# ---------------------------------------------------------------------------
# Event-driven integration

def _live_comm(comm: CommGraph, failed_so_far: set) -> CommGraph:
    """Comm graph restricted to links that have not failed yet."""
    links = tuple(l for l in comm.links if l not in failed_so_far)
    return CommGraph(links=links, failed=(), message_interval=comm.message_interval)


def integrate(scenario: Scenario, initial_state: Optional[SystemState] = None) -> Trajectory:
    """Run the scenario and record every record_stride-th step (plus the
    final one). Events at the same instant apply in a fixed order:
    disturbance, link failure (with artificial-variable initialization),
    message sampling, sequential link rotation; a snapshot that coincides
    with an event reflects the post-event state. The event log keeps
    discrete occurrences (disturbances, failures, initializations,
    warnings); routine sampling refreshes and rotations are not logged. A
    disturbance time, failure time or horizon off the dt grid is rounded to
    the nearest step, and a warning names both.

    Under continuous messaging each stretch between two events is one
    rk4_segment call, which also writes the records inside it. With a
    finite message interval whole message intervals advance by
    interval_map, and a part of an interval that a stop splits by
    rk4_segment under the held messages. When every record falls on a
    sampling instant (record_stride a multiple of K = T / dt) and the
    intervals share one map (every scheme but SEQUENTIAL over more than one
    shared link), the run stops only at events: one kernels.jump call
    crosses the intervals between two events and writes the records inside
    them. Otherwise it also stops at every record. The state matrices and
    interval maps are cached for the run, keyed by structure (failures so
    far and the control context). An interval map holds dim * (dim + N)
    floats, so a SEQUENTIAL rotation over L links keeps L of them:
    8 L dim (dim + N) bytes.

    A kernel call that leaves the finite range raises IntegrationError with
    the first non-finite step, found by replaying that call one RK4 step at
    a time from a copy of its start state; no event lies inside a call, so
    the replay is exact and finite runs pay one state copy per call.
    """
    violations = validate(scenario)
    if violations:
        raise ScenarioError("; ".join(violations))

    grid, comm = scenario.grid, scenario.comm
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    dt = scenario.dt
    stride = scenario.record_stride
    T = comm.message_interval
    K = None if T is CONTINUOUS else int(round(T / dt))
    cost_vec = grid.cost()
    events_log: List[Tuple[float, str, str]] = []

    def grid_step(t: float, what: str) -> int:
        """Step of time t; logs a warning when t lies off the dt grid."""
        k = int(round(t / dt))
        if abs(t / dt - k) > 1e-9 * max(1.0, t / dt):
            events_log.append((0.0, "warning",
                               f"{what} t={t:g} is off the dt grid; "
                               f"rounded to step {k} (t={k * dt:g})"))
        return k

    n_total = grid_step(scenario.horizon, "horizon")
    p = grid.fixed_power().copy()
    if initial_state is None:
        x = np.zeros(dim)
        x[n:n + e] = initial_flows(grid, p)
    else:
        x = state_to_vector(initial_state).astype(float).copy()

    last_rx: Dict[Tuple[int, int], float] = {}

    disturbances = sorted(
        ((grid_step(d.time, f"disturbance at node {d.node + 1}"), d)
         for d in scenario.disturbances if round(d.time / dt) <= n_total),
        key=lambda sd: sd[0],
    )
    failures = sorted(
        ((grid_step(t0, f"failure of link ({link[0] + 1},{link[1] + 1})"), link)
         for link, t0 in comm.failed if round(t0 / dt) <= n_total),
        key=lambda sf: sf[0],
    )
    failed_set: set = set()
    live = _live_comm(comm, failed_set)
    shared = shared_links(grid, live)

    # Controller context, updated by events. For PAIR_FLOW the pair edge is
    # the first power line; it activates at t=0 unless the matching comm link
    # has a scheduled failure (then averaging runs until the failure instant).
    scheme = scenario.scheme
    ctx = ControlContext(scheme="CONSENSUS")
    pair_edge = min((ln.i, ln.j) for ln in grid.lines) if scheme == "PAIR_FLOW" else None
    pair_pending = (scheme == "PAIR_FLOW"
                    and pair_edge in {link for _, link in failures})
    if scheme == "PAIR_FLOW" and not pair_pending:
        ctx = ControlContext(scheme="PAIR_FLOW", F=frozenset(pair_edge),
                             pair_edges=frozenset([pair_edge]))
    elif scheme in ("CONSENSUS_SAMPLED", "SEQUENTIAL"):
        ctx = ControlContext(scheme=scheme)  # SEQUENTIAL's active link is set at step 0
    # else averaging; the flow-based laws engage at the failure instant

    a_cache: Dict[tuple, np.ndarray] = {}
    map_cache: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
    cache_epoch = 0     # counts failures, which change the live links

    def state_matrix(c: ControlContext) -> np.ndarray:
        key = (cache_epoch, c)
        A = a_cache.get(key)
        if A is None:
            A, _ = assemble_affine(grid, live, c, p,
                                   held_messages(np.zeros(n), live.links), 0.0)
            a_cache[key] = A
        return A

    def step_map(c: ControlContext) -> Tuple[np.ndarray, np.ndarray]:
        key = (cache_epoch, c)
        m = map_cache.get(key)
        if m is None:
            m = map_cache[key] = interval_map(grid, live, c, dt, K, state_matrix(c))
        return m

    def one_map() -> bool:
        """Whether every message interval has the same map."""
        return scheme != "SEQUENTIAL" or len(shared) == 1

    def interval_ctx(k: int) -> ControlContext:
        """Context in force during message interval k."""
        if scheme != "SEQUENTIAL":
            return ctx
        return sequential_context(controllers.sequential_active_link(k, shared))

    def apply_events(step: int) -> None:
        """All events scheduled at this step, in the fixed order:
        disturbance -> comm failure (+ artificial-variable init) ->
        sampling refresh -> sequential rotation."""
        nonlocal ctx, live, shared, cache_epoch
        t = step * dt

        while disturbances and disturbances[0][0] == step:
            _, d = disturbances.pop(0)
            p[d.node] += d.delta_p
            events_log.append((t, "disturbance",
                               f"node {d.node + 1} delta_p {d.delta_p:+g}"))

        newly_failed = []
        while failures and failures[0][0] == step:
            _, link = failures.pop(0)
            if link in failed_set:
                continue
            failed_set.add(link)
            newly_failed.append(link)
            events_log.append((t, "comm_failure", f"link ({link[0] + 1},{link[1] + 1})"))
        if newly_failed:
            cache_epoch += 1
            live = _live_comm(comm, failed_set)
            shared = shared_links(grid, live)
            power_edges = grid.edge_set()
            if scheme in ("HYBRID_SINGLE", "PAIR_FLOW"):
                link = newly_failed[0]
                if link in power_edges and (scheme == "HYBRID_SINGLE" or link == pair_edge):
                    ctx = ControlContext(scheme=scheme, F=frozenset(link),
                                         pair_edges=frozenset([link]))
                    state_now = vector_to_state(t, x, grid, last_rx)
                    q0, warns = controllers.init_artificial(state_now, grid, ctx, comm)
                    x[2 * n + e:] = q0
                    events_log.append((t, "init_artificial",
                                       f"nodes {link[0] + 1},{link[1] + 1}"))
                    for w in warns:
                        events_log.append((t, "warning", w))
                else:
                    events_log.append((t, "fallback_consensus",
                                       f"failed link ({link[0] + 1},{link[1] + 1}) has no "
                                       "power line; averaging continues on surviving links"))
            elif scheme == "MULTI_FAILURE":
                pairs = frozenset(l for l in failed_set if l in power_edges)
                F = frozenset(i for l in pairs for i in l)
                ctx = ControlContext(scheme="MULTI_FAILURE", F=F, pair_edges=pairs)
                state_now = vector_to_state(t, x, grid, last_rx)
                q0, warns = controllers.init_artificial(state_now, grid, ctx, comm)
                x[2 * n + e:] = q0
                if F:
                    events_log.append((t, "init_artificial",
                                       f"nodes {','.join(str(i + 1) for i in sorted(F))}"))
                for w in warns:
                    events_log.append((t, "warning", w))

        if K is not None and step % K == 0:
            last_rx.update(held_messages(cost_vec * x[n + e:2 * n + e], live.links))
            if scheme == "SEQUENTIAL":
                ctx = interval_ctx(step // K)
                pair_ctx = ControlContext(scheme="PAIR_FLOW", F=ctx.F,
                                          pair_edges=ctx.pair_edges)
                state_now = vector_to_state(t, x, grid, last_rx)
                q0, _ = controllers.init_artificial(state_now, grid, pair_ctx, comm)
                x[2 * n + e:] = q0

    # --- record buffers -----------------------------------------------------
    n_rec_max = n_total // stride + 2
    rec_states = np.empty((n_rec_max, dim))
    rec_steps = np.empty(n_rec_max, dtype=np.int64)
    track_rx = K is not None
    rec_rx = np.full((n_rec_max, 2 * len(comm.links)), np.nan) if track_rx else None
    rx_links: Tuple[Tuple[int, int], ...] = ()
    if track_rx:
        rx_links = tuple(d for a_, b_ in comm.links for d in ((a_, b_), (b_, a_)))
    n_rec = 0

    def record(step: int) -> None:
        nonlocal n_rec
        rec_states[n_rec] = x
        rec_steps[n_rec] = step
        if track_rx:
            rec_rx[n_rec] = [last_rx.get(dlink, np.nan) for dlink in rx_links]
        n_rec += 1

    def records_between(step: int, stop: int) -> Tuple[int, int]:
        """Offset from step of the first record step after it, and the
        number of record steps strictly between step and stop."""
        first = stride - step % stride
        return first, max(0, (stop - step - 1 - first) // stride + 1)

    def book(first_step: int, got: int) -> None:
        """Count the got rows a kernel call recorded from first_step on."""
        nonlocal n_rec
        rec_steps[n_rec:n_rec + got] = first_step + stride * np.arange(got)
        n_rec += got

    def first_nonfinite(step: int, stop: int, x0: np.ndarray) -> int:
        """Replay the kernel call from x0 at step to stop one RK4 step at a
        time, refreshing the held messages at each sampling instant inside
        it as apply_events does; the first step whose state is not finite."""
        x[:] = x0
        while True:
            run = stop - step if K is None else min(K - step % K, stop - step)
            A = state_matrix(ctx)
            b = derivative(vector_to_state(step * dt, np.zeros(dim), grid, last_rx),
                           grid, live, ctx, p)
            for _ in range(run):
                rk4_segment(A, b, x, dt, 1, 0, 1, rec_states[:0])
                step += 1
                if not np.isfinite(x).all():
                    return step
            if step == stop:
                return stop
            apply_events(step)

    def check_finite(step: int, stop: int, x0: np.ndarray) -> None:
        """Raise IntegrationError if the kernel call from x0 at step to stop
        left the finite range."""
        if np.isfinite(x).all():
            return
        last = None
        if n_rec:
            traj = _finalize(grid, cost_vec, rec_states[:n_rec], rec_steps[:n_rec],
                             dt, events_log, rx_links,
                             rec_rx[:n_rec] if track_rx else None)
            last = traj.state_at(n_rec - 1)
        raise IntegrationError(first_nonfinite(step, stop, x0), last)

    def segment(step: int, stop: int) -> None:
        """RK4 from step to stop under the current context and held
        messages, recording the record steps between them."""
        first, rows = records_between(step, stop)
        x0 = x.copy()
        b = derivative(vector_to_state(step * dt, np.zeros(dim), grid, last_rx),
                       grid, live, ctx, p)
        got = rk4_segment(state_matrix(ctx), b, x, dt, stop - step, first if rows else 0,
                          stride, rec_states[n_rec:n_rec + rows])
        book(step + first, got)
        check_finite(step, stop, x0)

    def held_rows(rows: np.ndarray) -> np.ndarray:
        """Held values of rows recorded at sampling instants, as apply_events
        refreshes them there: a live link holds C u of its sender in that
        row, a failed link its frozen value, a link that never received one
        NaN. The rows need no other sampling event: SEQUENTIAL over one
        shared link re-pairs the same link at every instant, and from its
        first reset on the pair law keeps q_i = -q_j = C_i u_i - C_j u_j,
        so the reset changes q by rounding only."""
        y = cost_vec * rows[:, n + e:2 * n + e]
        held = held_messages(np.arange(n), live.links)   # link -> sender
        cols = [c for c, dlink in enumerate(rx_links) if dlink in held]
        rx = np.tile([last_rx.get(dlink, np.nan) for dlink in rx_links], (len(rows), 1))
        rx[:, cols] = y[:, [held[rx_links[c]] for c in cols]]
        return rx

    def intervals(step: int, end: int) -> None:
        """Whole message intervals from instant step to instant end. When
        they share one map, one jump crosses them all and records the record
        instants between them; otherwise each interval is one jump, and the
        run stops at every record, so none lies between."""
        x0 = x.copy()
        if one_map():
            first, rows = records_between(step, end)
            D, G = step_map(interval_ctx(step // K))
            got = jump(D, G @ p, x, (end - step) // K, first // K if rows else 0,
                       stride // K, rec_states[n_rec:n_rec + rows])
            if got:
                rec_rx[n_rec:n_rec + got] = held_rows(rec_states[n_rec:n_rec + got])
                book(step + first, got)
        else:
            for k in range(step // K, end // K):
                D, G = step_map(interval_ctx(k))
                jump(D, G @ p, x, 1)
        check_finite(step, end, x0)

    def pause(step: int) -> None:
        """A sampling instant inside an advance: its events and its record."""
        apply_events(step)
        if step % stride == 0:
            record(step)

    def advance_sampled(step: int, stop: int) -> None:
        """From step to stop, with no event in between: a part of an interval
        that step or stop splits by segment, whole intervals by intervals().
        The sampling events of the last instant before stop run in
        apply_events, so that records and failures at stop see the messages
        held then."""
        s_last = (stop - 1) // K * K
        if step % K and step < s_last:
            s = step - step % K + K
            segment(step, s)
            pause(s)
            step = s
        if step % K == 0 and step < s_last:
            intervals(step, s_last)
            pause(s_last)
            step = s_last
        if step % K == 0 and stop - step == K:
            intervals(step, stop)
        else:
            segment(step, stop)

    apply_events(0)
    record(0)

    step = 0
    while step < n_total:
        stop = n_total
        if disturbances:
            stop = min(stop, disturbances[0][0])
        if failures:
            stop = min(stop, failures[0][0])
        if K is None:
            segment(step, stop)
        else:
            if stride % K or not one_map():
                stop = min(stop, (step // stride + 1) * stride)
            advance_sampled(step, stop)
        step = stop
        apply_events(step)
        if step % stride == 0 or step == n_total:
            record(step)

    return _finalize(grid, cost_vec, rec_states[:n_rec], rec_steps[:n_rec], dt,
                     events_log, rx_links, rec_rx[:n_rec] if track_rx else None)


def _finalize(grid: PowerGrid, cost_vec: np.ndarray, states: np.ndarray,
              steps: np.ndarray, dt: float, events, rx_links, rx) -> Trajectory:
    n, e = grid.n_nodes, grid.n_lines
    u = states[:, n + e:2 * n + e]
    return Trajectory(
        times=steps * dt,
        omega=states[:, :n].copy(),
        flow=states[:, n:n + e].copy(),
        u=u.copy(),
        q=states[:, 2 * n + e:].copy(),
        cost_series=(u * u) @ cost_vec,
        events=tuple(events),
        rx_links=rx_links,
        rx_series=None if rx is None else rx.copy(),
    )


# ---------------------------------------------------------------------------
# Metrics

def convergence_time(traj: Trajectory, cost_star: float, band: float = 0.01,
                     after: Optional[float] = None) -> Optional[float]:
    """First recorded time after the last disturbance from which the cost
    stays inside the band until the end of the horizon; None if never.

    The raw first band crossing (which may be exited again) is available
    from first_crossing_time.
    """
    if not math.isfinite(cost_star):
        raise ValueError("cost_star must be finite")
    if after is None:
        after = max((t for t, kind, _ in traj.events if kind == "disturbance"),
                    default=0.0)
    eligible = traj.times >= after
    inside = np.abs(traj.cost_series - cost_star) < band
    ok = eligible & inside
    # last index where the condition fails; t* is the next recorded sample
    bad = np.nonzero(eligible & ~inside)[0]
    if bad.size == 0:
        idx = np.nonzero(eligible)[0]
        return float(traj.times[idx[0]]) if idx.size else None
    k = bad[-1] + 1
    if k >= len(traj.times) or not ok[k:].all() or not ok[k]:
        return None
    return float(traj.times[k])


def first_crossing_time(traj: Trajectory, cost_star: float, band: float = 0.01,
                        after: Optional[float] = None) -> Optional[float]:
    if after is None:
        after = max((t for t, kind, _ in traj.events if kind == "disturbance"),
                    default=0.0)
    hit = np.nonzero((traj.times >= after)
                     & (np.abs(traj.cost_series - cost_star) < band))[0]
    return float(traj.times[hit[0]]) if hit.size else None


def run_scenario(scenario: Scenario) -> Tuple[Trajectory, RunSummary]:
    """Integrate and summarize; t* is measured against the optimal dispatch
    for the post-disturbance fixed powers (all scheduled disturbances, so a
    horizon too short to even apply them reports non-convergence)."""
    traj = integrate(scenario)
    p_star = scenario.grid.fixed_power().copy()
    for d in scenario.disturbances:
        p_star[d.node] += d.delta_p
    cost_star = optimal_dispatch(scenario.grid, p_star).cost_paper
    steady_u = traj.u[-1]
    cp, _ = cost_of(scenario.grid, steady_u)
    summary = RunSummary(
        steady_u=steady_u.copy(),
        steady_cost_paper=cp,
        t_star=convergence_time(traj, cost_star),
        t_star_first_crossing=first_crossing_time(traj, cost_star),
        max_freq_excursion=float(np.max(np.abs(traj.omega))),
    )
    return traj, summary


# ---------------------------------------------------------------------------
# Trajectory CSV (header: t,omega_1..N,u_1..N,q_1..N,f_1..E,cost_paper)

_CSV_BLOCK = 512    # rows formatted per write


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per recorded sample, each value as "%.9g" (nine significant
    digits, the same text as f"{v:.9g}"), LF line endings. Rows are
    formatted a block at a time, with one % over a row template repeated
    for the block, so neither the whole file nor one tuple of all its
    values is held at once."""
    n = traj.omega.shape[1]
    e = traj.flow.shape[1]
    cols = (["t"]
            + [f"omega_{k + 1}" for k in range(n)]
            + [f"u_{k + 1}" for k in range(n)]
            + [f"q_{k + 1}" for k in range(n)]
            + [f"f_{k + 1}" for k in range(e)]
            + ["cost_paper"])
    row = ",".join(["%.9g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(0, len(traj), _CSV_BLOCK):
            rows = slice(k, k + _CSV_BLOCK)
            block = np.column_stack([traj.times[rows], traj.omega[rows], traj.u[rows],
                                     traj.q[rows], traj.flow[rows], traj.cost_series[rows]])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
