"""Fixed-step closed-loop integration with discrete events.

schedule() compiles a scenario into pieces: stretches of steps with no
disturbance or link failure inside. Each piece carries its live links (a
CommGraph of them), its fixed powers, the events at its start and its
control contexts, one context or SEQUENTIAL's rotation over the live
shared links, all from one rule (modes) that `gridfreq stability` and
interval_map_spectrum use too, so the report analyses the law the run ran.

Within a piece the closed loop is an affine system over the state layout
[omega (N), flow (E), u (N), q (N)]. Its dynamics are defined once, in two
parts that take stacked states, one state per row: swing_rate, the swing
and line equations, and controllers.control_rate, the control law.
derivative() joins them. Between sampling instants a piece is

    x' = A x + B [y; p],

with p its fixed powers and y the held messages, C u of the last sampling
instant (under continuous messaging B reads no y). Every context's [A B]
comes from one rule, the law's own: averaging with F empty, then the u and
q rows of F overwritten by the flow law. law_base assembles the averaging
[A B] once per set of live links and hold (whether the law holds
messages, HOLD_SCHEMES), each part evaluated on the unit vectors of the
blocks of [x; y; p] it reads and on one zero row (_spread): the omega and
flow rows from one swing_rate call on unit omega, f, u and p
(swing_rows), the u and q rows from one control_rate call on unit omega,
u, q and, under HOLD_SCHEMES, y: 3N + 1 or 4N + 1 rows (_law_probe).
context_system copies it and replaces the rows of ctx.F by
controllers.flow_rate on the same probe. Every other entry is the rate at
zero, so [A B] holds the bits, signed zeros included, of one derivative()
call of the context on the identity stack of [x; y; p]. context_step
builds RK4's one-step map from [A B], the one linear system a run keeps
per live links and context. That map acts on the states the context
moves, those whose row of [A B] is not zero: a state the context holds
constant, such as q_i outside the flow-controlled set F, enters as an
input like p. A sampling instant is a linear reset: y refreshes to C u,
and SEQUENTIAL resets q to R x, R the N q rows of the rotation's reset
(rotation_reset, on an identity stack the base builds once). So a whole
message interval is one exact affine map (interval_map), and a whole
SEQUENTIAL rotation cycle the composition of its interval maps
(kernels.compose_maps).

plan() turns a schedule into kernel calls from step counts alone: where
each jump starts and stops, which of these maps it applies and which
states it records. integrate() executes them in one loop, and calls
derivative() not at all. The trajectory is bit-reproducible for identical
inputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import controllers
from .controllers import ControlContext, Link
from .csvtext import format_rows
from .dispatch import cost_of, optimal_dispatch
from .kernels import _REC_BLOCK, compose_maps, jump, k_step_map, one_step_map
from .model import (CONTINUOUS, HOLD_SCHEMES, SCHEMES, CommGraph, PowerGrid, Scenario,
                    SystemState, interval_steps, post_disturbance_power, validate)


class ScenarioError(ValueError):
    """A scenario that fails validation, or whose law cannot run: SEQUENTIAL
    left with no live shared link to rotate over."""


class IntegrationError(RuntimeError):
    """The state left the finite range. step is the first step, replayed
    one RK4 step at a time from the start of the failing kernel call, after
    which the state, or at a sampling instant the messages C u it sends, is
    not finite. Those messages reach the state a step later, and an interval
    map, which folds C into its matrix, can carry a state past that
    overflow, so checking the messages makes every record stride report
    the same step. The naive oracle (tests/conftest.py) can overflow a few
    steps earlier, inside an RK4 stage: its intermediate stage states may
    leave the range before the step's combination does. last_state is the
    last recorded state before step, or None."""

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
    # counts of the run: {"maps": built by kind, "kernel_calls": planned, by kind}
    diagnostics: Dict[str, Dict[str, int]] = field(default_factory=dict)

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
# affine matrices are assembled from its two parts, swing_rate and
# controllers.control_rate)

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


def swing_rate(state: SystemState, grid: PowerGrid, p: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """(dω/dt, df/dt) of the swing and line dynamics, the same under every
    law: M dω = -D ω + p + u - (incidence) f and df = B (ω_i - ω_j). Reads
    omega, flow, u and p only; stacked states as in derivative()."""
    inc = grid.incidence()
    domega = (-grid.droop() * state.omega + p + state.u - state.flow @ inc.T) / grid.inertia()
    dflow = grid.susceptance() * (state.omega @ inc)
    return domega, dflow


def derivative(state: SystemState, grid: PowerGrid, comm: CommGraph,
               ctx: ControlContext, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Time derivative of the full state vector [omega, flow, u, q]: dω and
    df from swing_rate, du and dq from the control law of ctx
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
    du, dq = controllers.control_rate(state, grid, comm, ctx)
    return np.concatenate([*swing_rate(state, grid, p), du, dq], axis=-1)


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


def _law_probe(grid: PowerGrid, comm: CommGraph, hold: bool
               ) -> Tuple[SystemState, Tuple[slice, ...]]:
    """The stacked state the control law is probed on: the unit vectors of
    the blocks of [x; y; p] it reads, omega, u, q and, when it holds
    messages (hold), the held y on the links of comm, then one zero row
    (3N + 1 or 4N + 1 rows, the other blocks zero); and the columns of
    [x; y; p] its unit rows stand for, in order, one slice per run of
    blocks (_spread)."""
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    k = (4 if hold else 3) * n
    unit = np.eye(k + 1, k)
    held = held_messages(unit[:, 3 * n:], comm.links) if hold else {}
    state = SystemState(0.0, unit[:, :n], np.zeros((1, e)), unit[:, n:2 * n],
                        unit[:, 2 * n:3 * n], held)
    cols = (slice(0, n), slice(n + e, dim)) + ((slice(dim, dim + n),) if hold else ())
    return state, cols


def _spread(rates: np.ndarray, cols: Tuple[slice, ...], out: np.ndarray) -> np.ndarray:
    """Write into out, rows of [A B], what the rates (one column per row of
    out) give on a probe whose unit rows stand for the columns cols, then a
    zero row: the zero row's value in every column, then the k-th column of
    cols from unit row k. These are the entries, signed zeros included, of
    one call on the identity stack of [x; y; p]: a row's rate depends on
    that row alone, and a unit row outside cols is zero in every column the
    rate reads."""
    out[:] = rates[-1][:, None]
    at = 0
    for c in cols:
        out[:, c] = rates[at:at + c.stop - c.start].T
        at += c.stop - c.start
    return out


def swing_rows(grid: PowerGrid, out: np.ndarray) -> np.ndarray:
    """Write the omega and flow rows of [A B], the same for every context,
    into out, (N + E, dim + 2N), and return it: one swing_rate call on the
    unit vectors of the blocks it reads, omega, f, u and p, then a zero row
    (q zero), spread over the columns of [x; y; p] (_spread)."""
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    unit = np.eye(dim + 1, dim)      # omega, f, u and p: 3N + E columns, as many as x
    state = SystemState(0.0, unit[:, :n], unit[:, n:n + e], unit[:, n + e:2 * n + e],
                        np.zeros((1, n)))
    domega, dflow = swing_rate(state, grid, unit[:, 2 * n + e:])
    cols = (slice(0, 2 * n + e), slice(dim + n, dim + 2 * n))
    _spread(domega, cols, out[:n])
    _spread(dflow, cols, out[n:])
    return out


@dataclass(frozen=True, eq=False)
class LawBase:
    """What the contexts on one set of live links share, given whether
    their law holds messages (law_base): the [A B] of the law with F empty,
    the law probe its u and q rows were evaluated on and, built on first
    use, the identity stack that a SEQUENTIAL context's reset is evaluated
    on (rotation_reset)."""

    grid: PowerGrid
    comm: CommGraph
    AB: np.ndarray             # (dim, dim + 2N)
    probe: Tuple[SystemState, Tuple[slice, ...]]    # _law_probe

    @functools.cached_property
    def resets(self) -> SystemState:
        """The identity stack of x as a stacked state whose held values are
        the messages it sends, held_messages(C u, comm.links)."""
        n, e = self.grid.n_nodes, self.grid.n_lines
        X = np.eye(3 * n + e)
        return vector_to_state(0.0, X, self.grid, held_messages(
            self.grid.cost() * X[:, n + e:2 * n + e], self.comm.links))


def law_base(grid: PowerGrid, comm: CommGraph, hold: bool) -> LawBase:
    """The base of the contexts on the live links of comm whose law holds
    messages (hold) or reads current values: the [A B] of the law with F
    empty, the swing rows (swing_rows) over its u and q rows from one
    controllers.control_rate call on the unit vectors of the blocks the law
    reads (_law_probe), spread over the columns of [x; y; p] (_spread). The
    probe is built after the swing rows, so it can take the memory of
    theirs."""
    n, e = grid.n_nodes, grid.n_lines
    AB = np.empty((3 * n + e, 5 * n + e))
    swing_rows(grid, AB[:n + e])
    probe = _law_probe(grid, comm, hold)
    stack, cols = probe
    law = ControlContext("CONSENSUS_SAMPLED" if hold else "CONSENSUS")    # F empty
    du, dq = controllers.control_rate(stack, grid, comm, law)
    _spread(du, cols, AB[n + e:2 * n + e])
    _spread(dq, cols, AB[2 * n + e:])
    return LawBase(grid, comm, AB, probe)


def rotation_reset(base: LawBase, ctx: ControlContext) -> np.ndarray:
    """The N q rows of the exact reset R, R x the state after a SEQUENTIAL
    rotation to the pair ctx.F at a sampling instant: messages refreshed
    from x, then q re-initialized by init_artificial for the new pair. R
    leaves every other state as it is, so its q rows, (N, dim), are all of
    it that sample() and interval_map read. From one evaluation of
    init_artificial on base.resets, the identity stack of x that the
    contexts of a rotation share."""
    q0, _ = controllers.init_artificial(base.resets, base.grid, ctx, base.comm)
    return np.ascontiguousarray(q0.T)


def context_system(base: LawBase, ctx: ControlContext
                   ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """[A B] of ctx on the base's live links, (dim, dim + 2N), a new array,
    and R, the q rows of its reset under SEQUENTIAL (rotation_reset), None
    for the other schemes. base is law_base of ctx.scheme in HOLD_SCHEMES.
    [A B] is the base's with the u and q rows of the nodes of ctx.F
    replaced by controllers.flow_rate on the base's probe: the entries of a
    control_rate call of ctx itself, bit for bit, as that call overwrites
    those rows whole and skips only the messages into F."""
    n, e = base.grid.n_nodes, base.grid.n_lines
    stack, cols = base.probe
    du, dq = np.empty((2, len(stack.omega), n))      # rows of the law probe
    nodes = controllers.flow_rate(stack, base.grid, ctx.F, du, dq)
    AB, rows = base.AB.copy(), np.empty((len(nodes), base.AB.shape[1]))
    AB[[n + e + i for i in nodes]] = _spread(du[:, nodes], cols, rows)
    AB[[2 * n + e + i for i in nodes]] = _spread(dq[:, nodes], cols, rows)
    return AB, rotation_reset(base, ctx) if ctx.scheme == "SEQUENTIAL" else None


def context_matrices(grid: PowerGrid, comm: CommGraph, ctx: ControlContext
                     ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(A, B, R) of a control context on the live links of comm: the piece

        x' = A x + B [y; p]

    between sampling instants, with y the held values (C u at the last
    instant) and p the fixed powers, and R as context_system gives it: the
    q rows of the reset of a SEQUENTIAL rotation to the pair ctx.F, None
    for the other schemes, which rotate no pair. [A B] is assembled by the
    rule a run uses, context_system of the law_base of comm. It is exact,
    as the dynamics are linear in the state once the event data (held
    messages, powers, the set F) is frozen, and byte-equal, signed zeros
    included, to one derivative() call on the identity stack of [x; y; p];
    the y columns of B are zero outside HOLD_SCHEMES, which read no held
    message. A and B are views of one new [A B].
    """
    AB, R = context_system(law_base(grid, comm, ctx.scheme in HOLD_SCHEMES), ctx)
    dim = len(AB)
    return AB[:, :dim], AB[:, dim:], R


@dataclass(frozen=True, eq=False)
class StepMap:
    """RK4's one-step map of a context on the states it moves.

    The moving states M (`moving`) are those whose row of [A B] is not
    identically zero; every other state is constant under the context, such
    as q_i outside F. On them the step is

        x[M] -> x[M] + D x[M] + G z[inputs],      z = [x; y; p],

    with `inputs` the nonzero columns of [A B][M] outside M: the held
    messages and powers the context reads, and any frozen state it reads,
    which enters like p. R holds the q rows of the context's reset
    (context_system)."""

    D: np.ndarray              # (|M|, |M|)
    G: np.ndarray              # (|M|, len(inputs))
    moving: np.ndarray         # indices into x
    inputs: np.ndarray         # indices into z = [x; y; p]
    R: Optional[np.ndarray]    # (N, dim)
    shape: Tuple[int, int]     # of [A B]: (dim, dim + 2N)

    def embed(self, Dm: np.ndarray, Gm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """A map (Dm, Gm) on x[M] with inputs z[inputs], such as (D, G) or
        a k-step map of it, in full coordinates: (D, G) of x -> x + D x +
        G [y; p], views of one new array. The rows of the frozen states are
        zero."""
        dim = self.shape[0]
        F = np.zeros(self.shape)
        F[self.moving[:, None], self.moving] = Dm
        F[self.moving[:, None], self.inputs] = Gm
        return F[:, :dim], F[:, dim:]


def context_step(base: LawBase, ctx: ControlContext, h: float) -> StepMap:
    """RK4's one-step map of the context's piece (kernels.one_step_map of
    its context_system from base) on the states the context moves, with
    the frozen states it reads as inputs (StepMap), and its reset's q rows
    R. The moving set is read off the assembled [A B], not off the scheme;
    [A B] is dropped before the map is built."""
    AB, R = context_system(base, ctx)      # columns over [x; y; p]
    shape = AB.shape
    moving = np.flatnonzero(AB.any(axis=1))
    AB = AB[moving]
    read = AB.any(axis=0)
    read[moving] = False
    inputs = np.flatnonzero(read)
    A, B = AB[:, moving], AB[:, inputs]
    del AB      # one_step_map's products reuse its memory
    D, G = one_step_map(A, B, h)
    return StepMap(D, G, moving, inputs, R, shape)


def interval_map(grid: PowerGrid, step: StepMap, K: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact map of one message interval, K RK4 steps from one sampling
    instant to the next, as (D_K, G_K) with

        x(next instant) = x + D_K x + G_K p

    for fixed powers p, given a context's context_step. At the instant the
    held values refresh to y = C u and, when step.R is not None, q resets
    to R x; then K steps x -> x + D x + G [y; p] follow with y constant.
    Refresh and reset are linear and the K-fold step map with constant
    inputs is affine (kernels.k_step_map), so the map is exact. Both leave a
    state whose sampling events have already been applied unchanged, so the
    map also advances such a state. The K steps are squared on the moving
    states, then embedded into full coordinates (StepMap.embed), where the
    held coupling and R fold in; R differs from the identity only in its N
    q rows, step.R, so D R costs a product with those rows alone. D_K is
    dim x dim and G_K dim x N.
    """
    n, e = grid.n_nodes, grid.n_lines
    D, G = step.embed(*k_step_map(step.D, step.G, K))
    D[:, n + e:2 * n + e] += G[:, :n] * grid.cost()
    if step.R is not None:      # D R + R - I, with R - I zero outside the q rows
        Q = slice(2 * n + e, None)
        RQ = step.R - np.eye(n, len(D), 2 * n + e)
        D += D[:, Q] @ RQ
        D[Q] += RQ
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
    horizon is dropped, each with a warning. So is a message interval that
    nothing reads: outside HOLD_SCHEMES a held value is read only by
    init_artificial when a failure engages a flow-based law, so T is
    ignored under CONSENSUS, and under the flow-based laws when no failure
    falls within the horizon; such a schedule is that of continuous
    messaging (interval_steps None), so the run makes the continuous run's
    kernel calls, gives its states bit for bit and holds no messages
    (rx_series None). Events at one step apply in a fixed order:
    disturbances, then link failures, each group in scenario order; a link
    that has already failed does not fail again.

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
    K = None if T is CONTINUOUS else interval_steps(T, dt)
    warnings: List[str] = []

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
    if K is not None and scheme not in HOLD_SCHEMES:
        why = None
        if scheme == "CONSENSUS":
            why = ("CONSENSUS reads current values; CONSENSUS_SAMPLED holds messages between "
                   "sampling instants")
        elif not last_failure:
            why = (f"{scheme} reads a held value only at a link failure, and none falls "
                   "within the horizon")
        if why:
            warnings.insert(0, f"message_interval T={T:g} ignored: {why}")
            K = None        # compiled as continuous messaging
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
# Event-driven integration: a plan of kernel calls, then one executor

class Call(NamedTuple):
    """One call of a run's plan, over steps [start, stop) of one piece.

    A pause (start == stop) runs the sampling events of its step, if an
    instant, and records the state there when rows is 1; a piece's first
    call is one, after the piece's events. Any other call is one
    kernels.jump of k applications of the map of its kind, its piece's live
    links and its key: RK4's one-step map ("stretch") or the interval map
    ("intervals") of the context key, or the cycle map of the rotation key
    ("cycles"). It records rows states, after applications first, first +
    every, and so on (first is 0 when rows is 0)."""

    kind: str
    piece: Piece
    start: int
    stop: int
    key: object = None          # a ControlContext; the piece's contexts for "cycles"
    k: int = 0
    first: int = 0
    every: int = 1
    rows: int = 0


def plan(sched: Schedule, stride: int) -> Iterator[Call]:
    """The calls that run sched, recording every stride-th step and the last
    one, in order. They tile [0, n_steps) and none crosses a piece boundary.
    Built from step counts and keys alone and yielded lazily, a plan holds
    no state and no list of its records.

    The run stops (pauses) at each piece's start. Under continuous
    messaging a piece is then one stretch. With K = T / dt steps per
    message interval it also stops:

    - at every record, when the stride is not a multiple of K, since an
      interval map records only on an instant;
    - at the first instant of a piece, reached by a stretch;
    - at the last instant before the piece's end (or before the next stop
      above), reached by whole intervals; a stretch covers the partial
      interval after it, if any, with the messages held from there, which
      a failure or an init at the next piece's start reads too.

    Whole intervals record the instants inside them without stopping. They
    cross whole rotation cycles of L intervals by one jump of the cycle map
    when no record lies inside them or every record starts a cycle (a
    stride that is a multiple of L K), and each other interval by one jump
    of its own map. A stretch jumps once per _REC_BLOCK of its records. A
    pause books the record at its step, and any other call the record steps
    after its start up to its stop, except a stop where a pause follows.
    """
    K, n = sched.interval_steps, sched.n_steps
    for piece in sched.pieces:
        step = piece.start
        while True:
            yield Call("pause", piece, step, step, rows=int(step % stride == 0 or step == n))
            if step == piece.stop:
                break
            stop, whole = piece.stop, False
            if K is not None:
                if stride % K:
                    stop = min(stop, (step // stride + 1) * stride)
                whole = step % K == 0 and stop - step >= K
                stop = (max((stop - 1) // K * K, step + K) if whole
                        else min(stop, step - step % K + K))
            head = tail = stop          # one jump crosses the cycles from head to tail
            if whole:
                cycle = len(piece.contexts) * K
                if stride % cycle == 0 or (step // stride + 1) * stride >= stop:
                    head = min(stop, -(-step // cycle) * cycle)
                    tail = head + (stop - head) // cycle * cycle
            while step < stop:
                if not whole:
                    kind, key, m = "stretch", piece.context(step, K), 1
                    end = (step // stride + _REC_BLOCK) * stride    # its last record
                    end = end if end + stride < stop else stop
                elif step == head < tail:
                    kind, key, m, end = "cycles", piece.contexts, cycle, tail
                else:
                    kind, key, m, end = "intervals", piece.context(step, K), K, step + K
                recs = range((step // stride + 1) * stride, min(end + 1, stop), stride)
                yield Call(kind, piece, step, end, key, (end - step) // m,
                           (recs[0] - step) // m if recs else 0, stride // m, len(recs))
                step = end
            if step == piece.stop:
                break


def _stepwise(call: Call, K: Optional[int]) -> Iterator[Call]:
    """call one RK4 step at a time, recording nothing: a pause at each
    instant inside it, its start included (a state there has had the
    instant's sampling events, or its interval map applies them), then one
    step under the context in force."""
    if call.kind == "pause":
        yield Call("pause", call.piece, call.start, call.stop)
        return
    for s in range(call.start, call.stop):
        if K is not None and s % K == 0:
            yield Call("pause", call.piece, s, s)
        yield Call("stretch", call.piece, s, s + 1, call.piece.context(s, K), 1)


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
    init. Under continuous messaging, and where schedule() ignores T, no
    message is held and rx_series is None.

    One loop executes the calls of plan(). The run builds each call's map
    once per live links, kind and key (a rotation over L links keeps L + 1
    maps of dim * (dim + N) floats), and each context's [A B] from the
    law_base of its live links (context_system), which it keeps until the
    live links change: it calls controllers.control_rate once per set of
    live links, for its base, and derivative() never. It squares each k-step map that
    kernels.jump uses once: pieces that share a context, such as the two
    sides of a disturbance, square once, and a new p costs one product
    G_k w. A call with many records writes them in blocks of rows, each one
    product with a lag map of several record strides (kernels.jump), so a
    record's last bits depend on its index in its call. A stretch jumps on the moving
    states x[M] with offset G [x; y; p][inputs]; its records are written as
    x[M] into the leading columns of their rows, then spread to full rows
    with the frozen states filled in, so no second record buffer is kept.
    Every sampling instant runs one rule, sample(), on a stack of states: q
    resets by its context's R (the q rows of the reset), and the
    held values become C u. Interval and cycle jumps record states before
    their instants' events, and each such call samples its own records as
    one stack right after kernels.jump writes them.

    After each call x and every record it wrote must be finite, and so
    must the messages C u it sends at an instant. A call that fails this
    is replayed by the same executor one RK4 step at a time from a copy of
    its start state (exact, as no event lies inside a call), and
    IntegrationError names the first step that fails it.

    Trajectory.diagnostics counts the maps the run built and the kernel
    calls of its plan, each by kind.
    """
    sched = schedule(scenario)
    grid = scenario.grid
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    U, Q = slice(n + e, 2 * n + e), slice(2 * n + e, dim)
    dt, stride, K = scenario.dt, scenario.record_stride, sched.interval_steps
    cost_vec = grid.cost()
    sends = np.ones(dim)    # x * sends holds the messages C u in place of u
    sends[U] = cost_vec
    events_log: List[Tuple[float, str, str]] = [(0.0, "warning", w) for w in sched.warnings]
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

    built = dict.fromkeys(("base", "stretch", "intervals", "cycles"), 0)
    calls = dict.fromkeys(("stretch", "intervals", "cycles"), 0)

    # the live links only shrink, so a base is not used again once they change
    @functools.lru_cache(maxsize=1)
    def base_of(comm: CommGraph, hold: bool) -> LawBase:
        built["base"] += 1
        return law_base(grid, comm, hold)

    @functools.cache
    def cached(kind: str, comm: CommGraph, key):
        """The map of a call of this kind and key on the live links comm,
        and the dict of the k-step maps that kernels.jump squares from it."""
        built[kind] += 1
        if kind == "stretch":
            return context_step(base_of(comm, key.scheme in HOLD_SCHEMES), key, dt), {}
        if kind == "intervals":
            return interval_map(grid, cached("stretch", comm, key)[0], K), {}
        return compose_maps([cached("intervals", comm, c)[0] for c in key]), {}

    def sample(rows: np.ndarray, step: int) -> np.ndarray:
        """Run the sampling events of the instants step, step + stride, ...
        on the stack of their states, in place: under a rotation q resets
        by R of the context of step's interval, which the whole stack
        shares (a pause samples one state, an interval jump records at most
        one and a cycle jump records only on cycle starts). Returns the held
        values each row leaves, its C u."""
        R = cached("stretch", piece.comm, piece.context(step, K))[0].R
        if R is not None:
            rows[:, Q] = rows @ R.T
        return cost_vec * rows[:, U]

    # --- record buffers -----------------------------------------------------
    n_rec_max = sched.n_steps // stride + 2
    rec_states = np.empty((n_rec_max, dim))
    rec_steps = np.empty(n_rec_max, dtype=np.int64)
    rec_rx = None if K is None else np.empty((n_rec_max, len(rx_links)))
    n_rec = 0

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

    def execute(call: Call) -> bool:
        """Run one call on x; whether x is then finite, and at an instant
        also the messages C u that it sends, and so is every record."""
        got = call.rows
        if call.kind == "pause":
            if K is not None and call.start % K == 0:
                y[:] = sample(x[None], call.start)[0]
            if call.rows:
                rec_states[n_rec] = x
                book(call.start, 1, y[None])
        elif call.kind == "stretch":
            sm, powers = cached(call.kind, call.piece.comm, call.key)
            w = np.concatenate([x, y, p])[sm.inputs]
            xm = x[sm.moving]
            rec = rec_states[n_rec:n_rec + call.rows]
            got = jump(sm.D, sm.G, w, xm, call.k, call.first, call.every, rec[:, :len(xm)],
                       powers)
            if got:
                moved = rec[:got, :len(xm)].copy()
                rec[:got] = x
                rec[:got, sm.moving] = moved
                book(call.start + call.first, got, y[None])
            x[sm.moving] = xm
        else:
            (D, G), powers = cached(call.kind, call.piece.comm, call.key)
            out = rec_states[n_rec:n_rec + call.rows]
            got = jump(D, G, p, x, call.k, call.first, call.every, out, powers)
            if got:
                first = call.start + call.first * (call.stop - call.start) // call.k
                book(first, got, sample(out[:got], first))
        instant = K is not None and call.stop % K == 0
        return got == call.rows and bool(np.isfinite(x * sends if instant else x).all())

    piece = failed = None
    for call in plan(sched, stride):
        if call.kind != "pause":
            calls[call.kind] += 1
        if call.piece is not piece:
            piece = call.piece
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
        x0 = x.copy()
        if not execute(call):
            x[:] = x0
            failed = next((c.stop for c in _stepwise(call, K) if not execute(c)), call.stop)
            n_rec = int(np.searchsorted(rec_steps[:n_rec], failed))     # the records before it
            break
    cached.cache_clear()    # cached calls itself, a cycle: free its maps now, not at a collection
    base_of.cache_clear()
    states = rec_states[:n_rec]
    u = states[:, U]
    traj = Trajectory(times=rec_steps[:n_rec] * dt, omega=states[:, :n].copy(),
                      flow=states[:, n:n + e].copy(), u=u.copy(), q=states[:, Q].copy(),
                      cost_series=(u * u) @ cost_vec, events=tuple(events_log),
                      rx_links=rx_links, rx_series=None if K is None else rec_rx[:n_rec].copy(),
                      diagnostics={"maps": built, "kernel_calls": calls})
    if failed is not None:
        raise IntegrationError(failed, traj.state_at(n_rec - 1) if n_rec else None)
    return traj


# ---------------------------------------------------------------------------
# Metrics

BAND = 0.01     # t* and the first crossing: |cost - cost*| < BAND


def _band(traj: Trajectory, cost_star: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per record: whether it lies at or after the last disturbance, and
    whether its cost lies within BAND of cost_star, a finite target."""
    if not math.isfinite(cost_star):
        raise ValueError("cost_star must be finite")
    after = max((t for t, kind, _ in traj.events if kind == "disturbance"), default=0.0)
    return traj.times >= after, np.abs(traj.cost_series - cost_star) < BAND


def convergence_time(traj: Trajectory, cost_star: float) -> Optional[float]:
    """First recorded time after the last disturbance from which the cost
    stays within BAND of cost_star until the end of the horizon; None if
    never.

    The raw first band crossing (which may be exited again) is available
    from first_crossing_time.
    """
    eligible, inside = _band(traj, cost_star)
    # record times increase, so the eligible records are a suffix and t* is
    # the record after the last eligible one outside the band
    outside = np.flatnonzero(eligible & ~inside)
    k = outside[-1] + 1 if outside.size else np.count_nonzero(~eligible)
    return float(traj.times[k]) if k < len(traj.times) else None


def first_crossing_time(traj: Trajectory, cost_star: float) -> Optional[float]:
    """First recorded time after the last disturbance with the cost within
    BAND of cost_star; None if never."""
    eligible, inside = _band(traj, cost_star)
    hit = np.flatnonzero(eligible & inside)
    return float(traj.times[hit[0]]) if hit.size else None


def run_scenario(scenario: Scenario) -> Tuple[Trajectory, RunSummary]:
    """Integrate and summarize; t* is measured against the optimal dispatch
    for the post-disturbance fixed powers (all scheduled disturbances, so a
    horizon too short to even apply them reports non-convergence)."""
    traj = integrate(scenario)
    cost_star = optimal_dispatch(scenario.grid, post_disturbance_power(scenario)).cost_paper
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

_CSV_CELLS = 10000  # cells formatted per write


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per recorded sample, each value as f"{v:.9g}" (nine
    significant digits), LF line endings. Rows are formatted a block of
    about _CSV_CELLS values at a time by csvtext.format_rows, so neither
    the whole file nor its text is held at once."""
    n = traj.omega.shape[1]
    e = traj.flow.shape[1]
    cols = (["t"]
            + [f"omega_{k + 1}" for k in range(n)]
            + [f"u_{k + 1}" for k in range(n)]
            + [f"q_{k + 1}" for k in range(n)]
            + [f"f_{k + 1}" for k in range(e)]
            + ["cost_paper"])
    step = max(1, _CSV_CELLS // len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for k in range(0, len(traj), step):
            rows = slice(k, k + step)
            fh.write(format_rows(np.column_stack([
                traj.times[rows], traj.omega[rows], traj.u[rows], traj.q[rows],
                traj.flow[rows], traj.cost_series[rows]])))
