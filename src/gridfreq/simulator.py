"""Fixed-step closed-loop integration with discrete events.

schedule() compiles a scenario into pieces: stretches of steps with no
disturbance or link failure inside. Each piece carries its live links (a
CommGraph of them), its fixed powers, the events at its start and its
control contexts, one context or SEQUENTIAL's rotation over the live
shared links, all from one rule (modes) that `gridfreq stability` and
interval_map_spectrum use too, so the report analyses the law the run ran.

Within a piece the closed loop is an affine system over the state layout
[omega (N), flow (E), u (N), q (N)]. derivative() is the single definition
of those dynamics and takes stacked states, one state per row. Between
sampling instants a piece is

    x' = A x + B [y; p],

with p its fixed powers and y the held messages, C u of the last sampling
instant (under continuous messaging B reads no y). context_matrices builds
a context's A and B from one derivative() call on the identity stack of
[x; y; p], and context_step RK4's one-step map (D, G) from them, the one
linear system a run keeps per live links and context. A sampling instant
is a linear reset: y refreshes to C u, and SEQUENTIAL resets q by the
rotation's reset matrix R. So a whole message interval is one exact affine
map (interval_map, the one-step map squared), and a whole SEQUENTIAL
rotation cycle the composition of its interval maps (kernels.compose_maps).
The integrator advances runs of intervals and cycles with them and stops at
piece boundaries; when the records all fall on sampling instants it writes
them without stopping, and at records too otherwise. The trajectory is
bit-reproducible for identical inputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import controllers
from .controllers import ControlContext, Link
from .dispatch import cost_of, optimal_dispatch
from .kernels import compose_maps, jump, k_step_map, one_step_map
from .model import (CONTINUOUS, SCHEMES, CommGraph, PowerGrid, Scenario, SystemState,
                    validate)


class ScenarioError(ValueError):
    """A scenario that fails validation, or whose law cannot run: SEQUENTIAL
    left with no live shared link to rotate over."""


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
    df = B (ω_i - ω_j). du and dq are the control law of ctx
    (controllers.control_rate). p defaults to the grid's fixed powers; pass
    the disturbed vector when evaluating mid-run.

    Stacked states: every array field of state (and p) may carry leading
    batch axes, one state per row, as vector_to_state makes from a (k, dim)
    stack; each held value in state.last_rx is then a scalar or a (k,)
    array. The result has the same leading axes, row r the derivative of
    state r. One code path serves single and stacked states.
    """
    if ctx.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {ctx.scheme!r}")
    if p is None:
        p = grid.fixed_power()
    inc = grid.incidence()
    domega = (-grid.droop() * state.omega + p + state.u - state.flow @ inc.T) / grid.inertia()
    dflow = grid.susceptance() * (state.omega @ inc)
    du, dq = controllers.control_rate(state, grid, comm, ctx)
    return np.concatenate([domega, dflow, du, dq], axis=-1)


def held_messages(y: np.ndarray, links: Sequence[Tuple[int, int]]) -> dict:
    """The refresh rule of a sampling instant: each link carries the weighted
    control y = C u of either endpoint to the other one. For a stack y of
    shape (k, N) each held value is the (k,) column of its sender."""
    rx = {}
    for a, b in links:
        rx[(a, b)] = y[..., a]
        rx[(b, a)] = y[..., b]
    return rx


def modes(scheme: str, power: Collection[Link], live: Sequence[Link],
          failed: Sequence[Link] = (), pending: Collection[Link] = ()
          ) -> Tuple[ControlContext, ...]:
    """The one rule from a scheme to its control contexts (scheme, F), given
    the power lines, the live links, the links failed so far (in failure
    order) and the links still to fail within the horizon. F is the set of
    flow-controlled nodes of controllers.control_rate:

    - SEQUENTIAL rotates F over the live links that are power lines, in
      sorted order (message interval k runs context k mod L); with none of
      them live there is nothing to rotate over: ().
    - PAIR_FLOW takes F = the first power line from t = 0, unless that link
      is still to fail: F is empty until it does.
    - HYBRID_SINGLE has F empty until its link fails, then F = that link if
      it is a power line; if not, F stays empty (averaging continues).
    - MULTI_FAILURE has F empty until the first failure, then F = the
      endpoints of every failed link that is a power line.
    - CONSENSUS and CONSENSUS_SAMPLED keep F empty.

    Before their flow law engages, PAIR_FLOW, HYBRID_SINGLE and
    MULTI_FAILURE run the context CONSENSUS.
    """
    if scheme == "SEQUENTIAL":
        return tuple(ControlContext(scheme, F=frozenset(link))
                     for link in sorted(set(power) & set(live)))
    hit = [link for link in failed if link in power]
    if scheme == "PAIR_FLOW":
        hit = [] if min(power) in pending else [min(power)]
    if scheme in ("PAIR_FLOW", "HYBRID_SINGLE") and hit:
        return (ControlContext(scheme, F=frozenset(hit[0])),)
    if scheme == "MULTI_FAILURE" and failed:
        return (ControlContext(scheme, F=frozenset(i for link in hit for i in link)),)
    return (ControlContext(scheme if scheme == "CONSENSUS_SAMPLED" else "CONSENSUS"),)


def sequential_context(link: Link) -> ControlContext:
    """SEQUENTIAL's context while `link` is the active pair."""
    return modes("SEQUENTIAL", [link], [link])[0]


def shared_links(grid: PowerGrid, comm: CommGraph) -> List[Link]:
    """Links of comm that are also power lines, in SEQUENTIAL's rotation order."""
    return [tuple(sorted(c.F)) for c in modes("SEQUENTIAL", grid.edge_set(), comm.links)]


def rotation_reset(grid: PowerGrid, comm: CommGraph, ctx: ControlContext) -> np.ndarray:
    """Exact R with R x the state after a SEQUENTIAL rotation to the pair
    ctx.F at a sampling instant: messages refreshed from x, then q
    re-initialized by init_artificial for the new pair. From one evaluation
    of init_artificial on the identity stack."""
    n, e = grid.n_nodes, grid.n_lines
    R = np.eye(3 * n + e)
    rx = held_messages(grid.cost() * R[:, n + e:2 * n + e], comm.links)
    q0, _ = controllers.init_artificial(vector_to_state(0.0, R, grid, rx), grid, ctx, comm)
    R[2 * n + e:] = q0.T
    return R


def context_matrices(grid: PowerGrid, comm: CommGraph, ctx: ControlContext
                     ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(A, B, R) of a control context on the live links of comm: the piece

        x' = A x + B [y; p]

    between sampling instants, with y the held values (C u at the last
    instant) and p the fixed powers, and the reset R of a SEQUENTIAL
    rotation to the pair ctx.F at an instant (rotation_reset), None for the
    other schemes, which rotate no pair.

    A and B come from one derivative() call on the identity stack of
    [x; y; p]: its first dim rows are the unit states with y = 0 and p = 0,
    whose derivatives are the columns of A, and its last 2N rows the unit
    inputs at x = 0, whose derivatives are the columns of B (held values
    held_messages(y, comm.links)). Exact because the control law is linear
    in the state once the event data (held messages, powers, the set F) is
    frozen; the y columns of B are zero outside HOLD_SCHEMES, which read no
    held message.
    """
    n = grid.n_nodes
    dim = 3 * n + grid.n_lines
    W = np.eye(dim + 2 * n)
    X, Y, P = W[:, :dim], W[:, dim:dim + n], W[:, dim + n:]
    dx = derivative(vector_to_state(0.0, X, grid, held_messages(Y, comm.links)),
                    grid, comm, ctx, P)
    R = rotation_reset(grid, comm, ctx) if ctx.scheme == "SEQUENTIAL" else None
    return np.ascontiguousarray(dx[:dim].T), np.ascontiguousarray(dx[dim:].T), R


def context_step(grid: PowerGrid, comm: CommGraph, ctx: ControlContext, h: float
                 ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(D, G, R): RK4's one-step map x -> x + D x + G [y; p] of the context's
    piece (kernels.one_step_map of its context_matrices) and its reset R.
    A and B are dropped once the map is built."""
    A, B, R = context_matrices(grid, comm, ctx)
    D, G = one_step_map(A, B, h)
    return D, G, R


def interval_map(grid: PowerGrid, D: np.ndarray, G: np.ndarray, R: Optional[np.ndarray],
                 K: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact map of one message interval, K RK4 steps from one sampling
    instant to the next, as (D_K, G_K) with

        x(next instant) = x + D_K x + G_K p

    for fixed powers p, given a context's context_step (D, G, R). At the
    instant the held values refresh to y = C u and, when R is not None, q
    resets to R x; then K steps x -> x + D x + G [y; p] follow with y
    constant. Refresh and reset are linear and the K-fold step map with
    constant inputs is affine (kernels.k_step_map), so the map is exact.
    Both leave a state whose sampling events have already been applied
    unchanged, so the map also advances such a state. D_K is dim x dim and
    G_K dim x N.
    """
    n, e = grid.n_nodes, grid.n_lines
    D, G = k_step_map(D, G, K)
    D[:, n + e:2 * n + e] += G[:, :n] * grid.cost()
    if R is not None:
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
# Schedule: a scenario compiled into pieces

@dataclass(frozen=True)
class Piece:
    """Steps [start, stop) of a run, with no disturbance or link failure
    inside. comm holds the links live in the piece. At start the fixed
    powers become p, the events are logged and, when init is set, the
    artificial variables are re-initialized under it; then the sampling
    events of the instant, if start is one, take place."""

    start: int
    stop: int
    comm: CommGraph
    contexts: Tuple[ControlContext, ...]   # from modes(); interval k runs k mod len
    lead: ControlContext                   # in force until the piece's first instant
    p: Tuple[float, ...]
    init: Optional[ControlContext] = None
    events: Tuple[Tuple[str, str], ...] = ()   # (kind, detail)

    def context(self, step: int, K: Optional[int]) -> ControlContext:
        """The context in force at step: lead until the first sampling
        instant of the piece, then the one of the current message interval."""
        if K is None or step // K * K < self.start:
            return self.lead
        return self.contexts[step // K % len(self.contexts)]


@dataclass(frozen=True)
class Schedule:
    n_steps: int
    interval_steps: Optional[int]          # K = T / dt; None under continuous messaging
    warnings: Tuple[str, ...]
    pieces: Tuple[Piece, ...]              # the last one starts and stops at n_steps


def schedule(scenario: Scenario) -> Schedule:
    """Compile a scenario into its pieces, one per stretch between event
    steps, the last one at the horizon (the piece in force there). A time
    off the dt grid is rounded to the nearest step, and an event past the
    horizon is dropped, each with a warning, and so is the message interval
    of CONSENSUS, which reads current values. Events at one step apply in a
    fixed order: disturbances, then link failures, each group in scenario
    order; a link that has already failed does not fail again.

    A failure that engages a flow-based law (PAIR_FLOW, HYBRID_SINGLE,
    MULTI_FAILURE: at each failure) re-initializes the artificial variables
    under it; a HYBRID_SINGLE failure on a link without a power line is
    logged as a fallback to averaging. Under SEQUENTIAL a failure mid-
    interval changes the rotation from the next sampling instant on.

    Raises ScenarioError when the scenario fails validation, or when a
    failure leaves SEQUENTIAL without a live shared link.
    """
    violations = validate(scenario)
    if violations:
        raise ScenarioError("; ".join(violations))
    grid, comm, dt, scheme = scenario.grid, scenario.comm, scenario.dt, scenario.scheme
    T = comm.message_interval
    K = None if T is CONTINUOUS else int(round(T / dt))
    warnings: List[str] = []
    if scheme == "CONSENSUS" and K is not None:
        warnings.append(f"message_interval T={T:g} ignored: CONSENSUS reads current values; "
                        "CONSENSUS_SAMPLED holds messages between sampling instants")

    def grid_step(t: float, what: str) -> int:
        """Step of time t; warns when t lies off the dt grid."""
        k = int(round(t / dt))
        if abs(t / dt - k) > 1e-9 * max(1.0, t / dt):
            warnings.append(f"{what} t={t:g} is off the dt grid; "
                            f"rounded to step {k} (t={k * dt:g})")
        return k

    n_total = grid_step(scenario.horizon, "horizon")
    at: Dict[int, Tuple[list, list]] = {}    # step -> (disturbances, failed links)

    def add(t: float, what: str, group: int, item) -> None:
        if round(t / dt) > n_total:
            warnings.append(f"{what} t={t:g} ignored: past the horizon (t={n_total * dt:g})")
        else:
            at.setdefault(grid_step(t, what), ([], []))[group].append(item)

    for d in scenario.disturbances:
        add(d.time, f"disturbance at node {d.node + 1}", 0, d)
    for (a, b), t0 in comm.failed:
        add(t0, f"failure of link ({a + 1},{b + 1})", 1, (a, b))

    last_failure = {link: k for k in sorted(at) for link in at[k][1]}
    power = grid.edge_set()
    p = grid.fixed_power()
    failed: List[Link] = []
    pieces: List[Piece] = []
    steps = sorted(set(at) | {0, n_total})
    for start, stop in zip(steps, steps[1:] + [n_total]):
        dists, links = at.get(start, ((), ()))
        events = []
        for d in dists:
            p[d.node] += d.delta_p
            events.append(("disturbance", f"node {d.node + 1} delta_p {d.delta_p:+g}"))
        newly = [link for link in dict.fromkeys(links) if link not in failed]
        failed += newly
        events += [("comm_failure", f"link ({a + 1},{b + 1})") for a, b in newly]
        if newly or not pieces:     # the live links and the law change only here
            gone = set(failed)
            live = CommGraph(links=tuple(l for l in comm.links if l not in gone),
                             message_interval=T)
            pending = {link for link, k in last_failure.items() if k > start} - gone
            contexts = modes(scheme, power, live.links, failed, pending)
        if not contexts:
            raise ScenarioError(f"SEQUENTIAL has no live shared power/communication link "
                                f"to rotate over after the failure at t={start * dt:g}")
        init = None
        if newly and contexts[0].scheme in ("PAIR_FLOW", "HYBRID_SINGLE", "MULTI_FAILURE"):
            init = contexts[0]
            if init.F:
                events.append(("init_artificial",
                               f"nodes {','.join(str(i + 1) for i in sorted(init.F))}"))
        elif newly and scheme == "HYBRID_SINGLE":
            events.append(("fallback_consensus",
                           f"failed link ({newly[0][0] + 1},{newly[0][1] + 1}) has no "
                           "power line; averaging continues on surviving links"))
        lead = contexts[0]
        if scheme == "SEQUENTIAL" and start % K:
            lead = pieces[-1].context(start, K)
        pieces.append(Piece(start, stop, live, contexts, lead, tuple(p), init, tuple(events)))
    return Schedule(n_total, K, tuple(warnings), tuple(pieces))


# ---------------------------------------------------------------------------
# Event-driven integration

def integrate(scenario: Scenario, initial_state: Optional[SystemState] = None) -> Trajectory:
    """Run the scenario's schedule and record every record_stride-th step
    (plus the final one). At the start of each piece its events apply, then
    the sampling events of the instant. A snapshot reflects the state after
    the events at its step. The event log keeps the schedule's warnings and
    discrete occurrences; routine sampling refreshes and rotations are not
    logged.

    Between events a piece is x' = A x + B [y; p], with p its fixed powers
    and y the held messages: C u of the last sampling instant, which every
    live link holds. A failed link keeps the value it held when it failed;
    that value is read by rx_series and by init_artificial at a piece's
    init. The run caches one entry per live links and context: RK4's
    one-step map (D, G) and the reset R (context_step), built once, with A
    and B dropped. Every sampling instant runs one rule, sample(), on a
    stack of states: q resets by its context's R, and the held values
    become C u. The state is a one-row stack, and so are the rows recorded
    inside a jump.

    Under continuous messaging each piece is one kernels.jump of the
    one-step map with offset G [y; p], which also writes the records inside
    it. With a finite message interval whole message intervals advance by
    interval_map, squared from the same (D, G), and a part of an interval
    by a jump of the one-step map. When record_stride is a multiple of
    K = T / dt every record falls on a sampling instant, and the run stops
    only at piece boundaries: intervals() writes the records between them
    and samples them. A SEQUENTIAL rotation over L links crosses whole
    cycles of L intervals by one jump of its cycle map (compose_maps of the
    L interval maps) when the stride is a multiple of L K or no record lies
    between, and one interval at a time otherwise. With a stride that is
    not a multiple of K the run also stops at every record. Interval and
    cycle maps are cached like the step maps; a rotation over L links keeps
    L + 1 maps of dim * (dim + N) floats.

    A kernel call that leaves the finite range raises IntegrationError with
    the first non-finite step, found by replaying that call one RK4 step at
    a time from a copy of its start state; no event lies inside a call, so
    the replay is exact and finite runs pay one state copy per call.
    """
    plan = schedule(scenario)
    grid = scenario.grid
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    U, Q = slice(n + e, 2 * n + e), slice(2 * n + e, dim)
    dt, stride, K, n_total = scenario.dt, scenario.record_stride, plan.interval_steps, plan.n_steps
    cost_vec = grid.cost()
    events_log: List[Tuple[float, str, str]] = [(0.0, "warning", w) for w in plan.warnings]
    if initial_state is None:
        x = np.zeros(dim)
        x[n:n + e] = initial_flows(grid, grid.fixed_power())
    else:
        x = state_to_vector(initial_state).astype(float).copy()

    # Held messages, per directed link rx_links[c] from senders[c]: a live
    # link holds y[sender], a failed one frozen[c]; NaN before any instant.
    y = np.zeros(n) if K is None else np.full(n, np.nan)
    rx_links = (tuple(d for a_, b_ in scenario.comm.links for d in ((a_, b_), (b_, a_)))
                if K is not None else ())
    senders = np.array([a_ for a_, _ in rx_links], dtype=int)
    frozen = np.full(len(rx_links), np.nan)
    live = np.ones(len(rx_links), dtype=bool)

    @functools.cache
    def maps(comm: CommGraph, c: ControlContext):
        return context_step(grid, comm, c, dt)

    @functools.cache
    def step_map(comm: CommGraph, c: ControlContext):
        return interval_map(grid, *maps(comm, c), K)

    @functools.cache
    def cycle_map(comm: CommGraph, cs: Tuple[ControlContext, ...]):
        """The map of one rotation cycle, L interval maps from a phase-0
        instant (one whose interval runs cs[0]) on."""
        return compose_maps([step_map(comm, c) for c in cs])

    def sample(rows: np.ndarray, step: int) -> np.ndarray:
        """Run the sampling events of the instants step, step + stride, ...
        on the stack of their states, in place: under a rotation q resets
        by R of the context of each row's interval. Returns the held values
        each row leaves, its C u."""
        phase = (step + stride * np.arange(len(rows))) // K % len(piece.contexts)
        for c in set(phase.tolist()):
            R = maps(piece.comm, piece.contexts[c])[2]
            if R is not None:
                at = phase == c
                rows[at, Q] = rows[at] @ R[Q].T
        return cost_vec * rows[:, U]

    # --- record buffers -----------------------------------------------------
    n_rec_max = n_total // stride + 2
    rec_states = np.empty((n_rec_max, dim))
    rec_steps = np.empty(n_rec_max, dtype=np.int64)
    rec_rx = None if K is None else np.empty((n_rec_max, len(rx_links)))
    n_rec = 0

    def records_between(step: int, stop: int) -> Tuple[int, int]:
        """Offset from step of the first record step after it, and the
        number of record steps strictly between step and stop."""
        first = stride - step % stride
        return first, max(0, (stop - step - 1 - first) // stride + 1)

    def book(first_step: int, got: int, Y: np.ndarray) -> None:
        """Count the got rows recorded from first_step on, holding the
        messages of the rows of Y (one row: held by all of them)."""
        nonlocal n_rec
        rec_steps[n_rec:n_rec + got] = first_step + stride * np.arange(got)
        if K is not None:
            rx = rec_rx[n_rec:n_rec + got]
            rx[:] = frozen
            rx[:, live] = Y[:, senders[live]]
        n_rec += got

    def stretch(step: int, n_steps: int, first: int, out: np.ndarray) -> int:
        """n_steps RK4 steps from step, one jump of the one-step map under
        the context and held messages in force there."""
        D, G, _ = maps(piece.comm, piece.context(step, K))
        return jump(D, G @ np.concatenate([y, p]), x, n_steps, first, stride, out)

    def first_nonfinite(step: int, stop: int, x0: np.ndarray) -> int:
        """Replay the kernel call from x0 at step to stop one RK4 step at a
        time, running the sampling events of each instant inside it; the
        first step whose state is not finite."""
        x[:] = x0
        while True:
            run = stop - step if K is None else min(K - step % K, stop - step)
            for _ in range(run):
                stretch(step, 1, 0, rec_states[:0])
                step += 1
                if not np.isfinite(x).all():
                    return step
            if step == stop:
                return stop
            y[:] = sample(x[None], step)[0]

    def check_finite(step: int, stop: int, x0: np.ndarray) -> None:
        """Raise IntegrationError if the kernel call from x0 at step to stop
        left the finite range."""
        if np.isfinite(x).all():
            return
        last = None
        if n_rec:
            traj = _finalize(grid, cost_vec, rec_states[:n_rec], rec_steps[:n_rec],
                             dt, events_log, rx_links, None if K is None else rec_rx[:n_rec])
            last = traj.state_at(n_rec - 1)
        raise IntegrationError(first_nonfinite(step, stop, x0), last)

    def segment(step: int, stop: int) -> None:
        """RK4 from step to stop under the context and held messages in
        force, recording the record steps between them."""
        first, rows = records_between(step, stop)
        x0 = x.copy()
        got = stretch(step, stop - step, first if rows else 0, rec_states[n_rec:n_rec + rows])
        book(step + first, got, y[None])
        check_finite(step, stop, x0)

    def intervals(step: int, end: int) -> None:
        """Whole message intervals from instant step to instant end,
        recording and sampling the record instants between them without
        stopping. When no record lies between them, or every record falls
        on a phase-0 instant (record_stride a multiple of the cycle L K),
        one recorded jump of the cycle map crosses the whole rotation
        cycles, and single interval maps the intervals before the first
        phase-0 instant and after the last one; otherwise each interval is
        one jump of its map. With one context the cycle is one interval, so
        one jump crosses them all."""
        x0 = x.copy()
        first, rows = records_between(step, end)
        out = rec_states[n_rec:n_rec + rows]
        cycle = len(piece.contexts) * K
        head = tail = end                # one jump crosses the cycles from head to tail
        if not rows or stride % cycle == 0:
            head = min(end, -(-step // cycle) * cycle)
            tail = head + (end - head) // cycle * cycle
        got, s = 0, step
        while s < end:
            if s == head < tail:
                (D, G), m, k = cycle_map(piece.comm, piece.contexts), cycle, (tail - s) // cycle
            else:
                (D, G), m, k = step_map(piece.comm, piece.context(s, K)), K, 1
            ahead = stride - s % stride      # steps to the next record instant
            at = ahead // m if got < rows and ahead % m == 0 else 0
            got += jump(D, G @ p, x, k, at, stride // m, out[got:])
            s += k * m
        if got:
            book(step + first, got, sample(out[:got], step + first))
        check_finite(step, end, x0)

    def pause(step: int) -> None:
        """A stop: the sampling events of step, if an instant, and its record."""
        if K is not None and step % K == 0:
            y[:] = sample(x[None], step)[0]
        if step % stride == 0 or step == n_total:
            rec_states[n_rec] = x
            book(step, 1, y[None])

    for piece in plan.pieces:
        t = piece.start * dt
        p = np.array(piece.p)
        events_log += [(t, kind, detail) for kind, detail in piece.events]
        now = np.array([(min(d), max(d)) in piece.comm.links for d in rx_links], dtype=bool)
        gone = live & ~now
        frozen[gone] = y[senders[gone]]
        live = now
        if piece.init is not None:
            rx = {d: v for d, v in zip(rx_links, np.where(live, y[senders], frozen))
                  if not np.isnan(v)}
            q0, warns = controllers.init_artificial(vector_to_state(t, x, grid, rx),
                                                    grid, piece.init, piece.comm)
            x[Q] = q0
            events_log += [(t, "warning", w) for w in warns]
        pause(piece.start)
        # One kernel call per pass. With held messages the run also pauses
        # at the first instant and at the last one before the end, so that
        # what happens at the end sees the messages held then.
        step = piece.start
        while step < piece.stop:
            stop = piece.stop
            if K is None:
                segment(step, stop)
            else:
                if stride % K:
                    stop = min(stop, (step // stride + 1) * stride)
                s_last = (stop - 1) // K * K
                if step % K:
                    stop = min(stop, step - step % K + K)
                    segment(step, stop)
                elif step < s_last or stop - step == K:
                    stop = max(s_last, step + K)
                    intervals(step, stop)
                else:
                    segment(step, stop)
            step = stop
            if step < piece.stop:
                pause(step)

    return _finalize(grid, cost_vec, rec_states[:n_rec], rec_steps[:n_rec], dt,
                     events_log, rx_links, None if K is None else rec_rx[:n_rec])


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
