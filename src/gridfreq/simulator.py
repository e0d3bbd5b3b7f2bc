"""Fixed-step closed-loop integration with discrete events.

schedule() compiles a scenario into pieces: stretches of steps with no
disturbance or link failure inside. Each piece carries its live links (a
CommGraph of them), its fixed powers, the events at its start (the
schedule's warnings open the first piece's) and its control contexts, one
context or SEQUENTIAL's rotation over the live shared links, from one
rule (modes). The pieces are all that a run and `gridfreq stability` read
of the law: the report takes the last piece's contexts and live links and
warns from the pieces' events, so it analyses the law the run ran.

Within a piece the closed loop is an affine system over the state a run
carries from start to end,

    z = [omega (N), theta (N - c), u (N), q (N)],

with the line flows as node angles. The flows obey f' = Gamma B^T omega
(Gamma the susceptances, B the incidence), power lines never fail, and no
rate reads a flow except the omega rows, through B f (Bergen & Hill's
structure-preserving model, IEEE Trans. PAS 100(1), 1981). So from the
run's initial flows f0, f = f0 + Gamma B^T theta (PowerGrid.angle_flows)
exactly, with theta the node angles grounded at one node per component of
the power graph (c of them), theta' = omega_i - omega_ref
(PowerGrid.angle_rates), and the omega rows read p - B f0 in place of p:
the E - N + c cycle flows, which never change, are carried by no map.
Full rows [omega, f, u, q] are formed only for the records, once the run
ends, and for init_artificial at a failure. Between sampling instants a
piece is

    z' = A z + B [y; p - B f0],

with p its fixed powers and y the held messages, C u of the last sampling
instant (under continuous messaging B reads no y). Its dynamics are
defined once, in two parts that take stacked states, one state per row:
swing_rate, the swing and line equations, and controllers.control_rate,
the control law. Every context's [A B] comes from one rule, the law's
own: averaging with F empty, then the u and q rows of F overwritten by the
flow law. law_base assembles the averaging [A B], each part evaluated on
the unit vectors of the blocks of [z; y; p] it reads and on one zero row
(_spread): the omega rows from one swing_rate call on unit omega, the
flows of unit angles, unit u and unit p, and the theta rows angle_rates
(swing_rows, built once per grid); the u and q rows from one control_rate
call on unit omega, u, q and, when the law holds messages
(ControlContext.hold), y: 3N + 1 or 4N + 1 rows (_law_probe).
context_system copies it and replaces the rows of ctx.F by
controllers.flow_rate on the same probe. Every other entry is the rate at
zero, so [A B] holds the bits, signed zeros included, of one call of
swing_rate and control_rate of the context on the identity stack of
[z; y; p], the flows of each row those of its angles.

Every map of a stretch of steps is a StepMap on the states it moves,
those whose row of [A B] is not zero (moving_system): a state the map
holds constant, such as q_i outside the flow-controlled set F, enters as
an input like p when read. context_step builds RK4's one-step map. A
sampling instant is a linear reset: y refreshes to C u, and a rotation (a
context that holds messages and has F) resets the q of its pair to R u.
So a whole message interval is one exact affine map on the step
map's states (interval_map), and a whole SEQUENTIAL rotation cycle the
composition of its interval maps on the union of their states
(cycle_map). LinkStore keeps all of these for one set of live links, each
built on its first lookup.

plan() turns a schedule into kernel calls from step counts alone: where
each jump starts and stops, which of these maps it applies and which
states it records. integrate() executes them in one loop. The trajectory
is bit-reproducible for identical inputs.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import (Collection, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from . import controllers
from .controllers import ControlContext, Link
from .csvtext import format_rows
from .dispatch import cost_of, optimal_dispatch
from .kernels import _REC_BLOCK, compose_maps, jump, k_step_map, one_step_map
from .model import (CONTINUOUS, HOLD_SCHEMES, CommGraph, PowerGrid, Scenario, SystemState,
                    interval_steps, post_disturbance_power, validate)


class ScenarioError(ValueError):
    """A scenario that fails validation, or whose run cannot go ahead:
    SEQUENTIAL left with no live shared link to rotate over, or more
    records than memory can hold."""


# NumPy's overflow and invalid-value warnings off where the finite checks
# catch what they flag and IntegrationError reports it
_QUIET = {"over": "ignore", "invalid": "ignore"}


class IntegrationError(RuntimeError):
    """The state left the finite range. step is the first step, replayed
    one RK4 step at a time from the start of the failing kernel call, after
    which the state a run carries, [omega, theta, u, q] (integrate), or at
    a sampling instant the messages C u it sends, is not finite. Those
    messages reach the state a step later, and an interval map, which folds
    C into its matrix, can carry a state past that overflow, so checking
    the messages makes every record stride report the same step. The naive
    oracle (tests/conftest.py) can overflow a few steps earlier, inside an
    RK4 stage: its intermediate stage states may leave the range before the
    step's combination does. Near the float limit step can still move by
    one with the record stride: the squared maps that jump to the failing
    call round differently from single steps, and the unstable modes
    amplify that (on the toy grid at dt = 0.05 s it reads 194 at strides 1,
    3, 4, 7 and 100).
    last_state is the last recorded state before step, or None. The run's
    calls (their maps, kernel calls, sampling and replay) and a failing
    run's records run with NumPy's overflow and invalid-value warnings off:
    every value they compute reaches the state or its messages, whose
    finite checks catch what the warnings flag, and this error reports it."""

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
    # counts of the run: {"maps": built by kind, "kernel_calls": run by kind,
    # "pauses": the plan's pauses run, "state_size": {"full": dim, and the
    # largest state a map of each kind propagates}}
    diagnostics: Dict[str, Union[int, Dict[str, int]]] = field(default_factory=dict)

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
# Continuous-time dynamics (the integrator's affine matrices are assembled
# from their two parts, swing_rate and controllers.control_rate)

def state_to_vector(state: SystemState) -> np.ndarray:
    return np.concatenate([state.omega, state.flow, state.u, state.q], axis=-1)


def vector_to_state(t: float, x: np.ndarray, grid: PowerGrid,
                    last_rx: Optional[dict] = None) -> SystemState:
    """The state of vector x; a stack x of shape (k, dim) gives a stacked state."""
    n, e = grid.n_nodes, grid.n_lines
    return SystemState(t=t, omega=x[..., :n], flow=x[..., n:n + e],
                       u=x[..., n + e:2 * n + e], q=x[..., 2 * n + e:],
                       last_rx=last_rx or {})


def state_labels(grid: PowerGrid) -> Tuple[str, ...]:
    """Row labels for the state layout [omega, flow, u, q]."""
    return tuple(
        [f"omega_{k + 1}" for k in range(grid.n_nodes)]
        + [f"f_{ln.i + 1}_{ln.j + 1}" for ln in grid.lines]
        + [f"u_{k + 1}" for k in range(grid.n_nodes)]
        + [f"q_{k + 1}" for k in range(grid.n_nodes)]
    )


def swing_rate(state: SystemState, grid: PowerGrid, p: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """(dω/dt, df/dt) of the swing and line dynamics, the same under every
    law: M dω = -D ω + p + u - (incidence) f and df = B (ω_i - ω_j). Reads
    omega, flow, u and p only. Every array field of state, and p, may carry
    leading batch axes, one state per row, as vector_to_state makes from a
    (k, dim) stack; the rates then carry the same axes."""
    inc = grid.incidence()
    domega = (-grid.droop() * state.omega + p + state.u - state.flow @ inc.T) / grid.inertia()
    dflow = grid.susceptance() * (state.omega @ inc)
    return domega, dflow


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
    - HYBRID_SINGLE has F = the first failed link that is a power line.
    - MULTI_FAILURE has F = the endpoints of every failed link that is a
      power line.
    - CONSENSUS and CONSENSUS_SAMPLED keep F empty.

    Where their F would be empty, PAIR_FLOW, HYBRID_SINGLE and
    MULTI_FAILURE run the context CONSENSUS: before a failure, and after
    failures of links without a power line (averaging continues). Past
    this rule the law is read from a context's F and hold, never from its
    scheme's name.
    """
    if scheme == "SEQUENTIAL":
        return tuple(ControlContext(scheme, F=frozenset(link))
                     for link in sorted(set(power) & set(live)))
    hit = [link for link in failed if link in power]
    if scheme == "PAIR_FLOW":
        hit = [] if min(power) in pending else [min(power)]
    if scheme in ("PAIR_FLOW", "HYBRID_SINGLE") and hit:
        return (ControlContext(scheme, F=frozenset(hit[0])),)
    if scheme == "MULTI_FAILURE" and hit:
        return (ControlContext(scheme, F=frozenset(i for link in hit for i in link)),)
    return (ControlContext(scheme if scheme == "CONSENSUS_SAMPLED" else "CONSENSUS"),)


def _law_probe(grid: PowerGrid, comm: CommGraph, hold: bool
               ) -> Tuple[SystemState, Tuple[slice, ...]]:
    """The stacked state the control law is probed on: the unit vectors of
    the blocks of [z; y; p] it reads, omega, u, q and, when it holds
    messages (hold), the held y on the links of comm, then one zero row
    (3N + 1 or 4N + 1 rows, the other blocks zero); and the columns of
    [z; y; p] its unit rows stand for, in order, one slice per run of
    blocks (_spread)."""
    n, a = grid.n_nodes, len(grid.angle_rates())
    dim = 3 * n + a
    k = (4 if hold else 3) * n
    unit = np.eye(k + 1, k)
    held = held_messages(unit[:, 3 * n:], comm.links) if hold else {}
    state = SystemState(0.0, unit[:, :n], np.zeros((1, grid.n_lines)), unit[:, n:2 * n],
                        unit[:, 2 * n:3 * n], held)
    cols = (slice(0, n), slice(n + a, dim)) + ((slice(dim, dim + n),) if hold else ())
    return state, cols


def _spread(rates: np.ndarray, cols: Tuple[slice, ...], out: np.ndarray) -> np.ndarray:
    """Write into out, rows of [A B], what the rates (one column per row of
    out) give on a probe whose unit rows stand for the columns cols, then a
    zero row: the zero row's value in every column, then the k-th column of
    cols from unit row k. These are the entries, signed zeros included, of
    one call on the identity stack of [z; y; p]: a row's rate depends on
    that row alone, and a unit row outside cols is zero in every column the
    rate reads."""
    out[:] = rates[-1][:, None]
    at = 0
    for c in cols:
        out[:, c] = rates[at:at + c.stop - c.start].T
        at += c.stop - c.start
    return out


def swing_rows(grid: PowerGrid) -> np.ndarray:
    """The omega and theta rows of [A B], (N + a, 5N + a) with a = N - c
    the grounded angles, the same for every context, built once per grid
    (PowerGrid.derive) and read-only. The omega rows are one swing_rate
    call on the unit rows of omega, of the flows the unit angles induce
    (PowerGrid.angle_flows), of u and of p, then one zero row (q zero),
    spread over their columns of [z; y; p] (_spread); the theta rows are
    PowerGrid.angle_rates, exact +-1 entries in the omega columns."""
    return grid.derive("swing_rows", _swing_rows)


def _swing_rows(grid: PowerGrid) -> np.ndarray:
    n, e = grid.n_nodes, grid.n_lines
    rates = grid.angle_rates()
    a = len(rates)
    unit = np.eye(3 * n + a + 1, 3 * n + a)         # omega, theta, u, p, then zero
    flow = np.zeros((len(unit), e))
    flow[n:n + a] = grid.angle_flows().T
    domega, _ = swing_rate(SystemState(0.0, unit[:, :n], flow, unit[:, n + a:2 * n + a],
                                       np.zeros((1, n))), grid, unit[:, 2 * n + a:])
    out = np.zeros((n + a, 5 * n + a))
    _spread(domega, (slice(0, 2 * n + a), slice(4 * n + a, 5 * n + a)), out[:n])
    out[n:, :n] = rates
    out.flags.writeable = False
    return out


def law_base(grid: PowerGrid, comm: CommGraph, ctx: ControlContext
             ) -> Tuple[np.ndarray, Tuple[SystemState, Tuple[slice, ...]]]:
    """The base of the contexts on the live links of comm that share ctx's
    law with F empty, which holds messages or reads current values as ctx
    does (ctx.hold): its [A B], (3N + a, 5N + a), the swing rows
    (swing_rows) over its u and q rows from one controllers.control_rate
    call on the unit vectors of the blocks the law reads, spread over the
    columns of [z; y; p] (_spread), and that probe (_law_probe), on which
    context_system evaluates the rows of F."""
    n, a = grid.n_nodes, len(grid.angle_rates())
    AB = np.empty((3 * n + a, 5 * n + a))
    AB[:n + a] = swing_rows(grid)
    probe = _law_probe(grid, comm, ctx.hold)
    stack, cols = probe
    du, dq = controllers.control_rate(stack, grid, comm, replace(ctx, F=frozenset()))
    _spread(du, cols, AB[n + a:2 * n + a])
    _spread(dq, cols, AB[2 * n + a:])
    return AB, probe


def context_system(grid: PowerGrid, base, ctx: ControlContext) -> np.ndarray:
    """[A B] of ctx, the piece

        z' = A z + B [y; p - (incidence) f0]

    between sampling instants, with y the held values (C u at the last
    instant) and p the fixed powers, as a new (3N + a, 5N + a) array; base
    is the law_base of ctx on its live links. It is the base's [A B] with
    the u and q rows of the nodes of ctx.F replaced by
    controllers.flow_rate on the base's probe: the entries of a
    control_rate call of ctx itself, bit for bit, as that call overwrites
    those rows whole and skips only the messages into F. With F empty no
    row is replaced and [A B] is the base's copy. It is exact, as the
    dynamics are linear in the state once the event data (held messages,
    powers, the set F) is frozen, and byte-equal, signed zeros included,
    to one call of swing_rate and control_rate on the identity stack of
    [z; y; p]; the y columns are zero unless ctx.hold, as a law that holds
    no message reads none."""
    AB0, (stack, cols) = base
    AB = AB0.copy()
    if ctx.F:
        n, a = grid.n_nodes, len(grid.angle_rates())
        du, dq = np.empty((2, len(stack.omega), n))      # rows of the law probe
        nodes = controllers.flow_rate(stack, grid, ctx.F, du, dq)
        rows = np.empty((len(nodes), AB.shape[1]))
        AB[[n + a + i for i in nodes]] = _spread(du[:, nodes], cols, rows)
        AB[[2 * n + a + i for i in nodes]] = _spread(dq[:, nodes], cols, rows)
    return AB


def moving_system(AB: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """[A B] of a context on the states it moves, those whose row is not
    zero: (A, B, states, inputs), with states the indices into z of omega,
    theta, u and the q of F, and inputs those into [z; y; p - (incidence)
    f0] of the columns outside the moving states that the moving rows read.
    The full A is zero in the rows of the states held, so its spectrum is
    A's and one zero per state held."""
    states = np.flatnonzero(AB.any(axis=1))
    read = AB.any(axis=0)      # the other rows are zero
    read[states] = False
    inputs = np.flatnonzero(read)
    return AB[np.ix_(states, states)], AB[np.ix_(states, inputs)], states, inputs


@dataclass(frozen=True, eq=False)
class StepMap:
    """An exact map of a run's state z = [omega, theta, u, q] over a
    stretch of steps, on the states it moves: RK4's one-step map of a
    context (context_step), the map of one message interval (interval_map)
    or of one rotation cycle (cycle_map). It is

        z[states] -> z[states] + D z[states] + G w,
        w = [z; y; p - (incidence) f0][inputs],

    with `inputs` the columns outside the moving states that its rows
    read: the held messages and powers, and any state the map holds
    constant that it reads, which enters like p. Every state outside
    `states` keeps its value, such as q_i outside F; so do the E - N + c
    cycle flows, which z does not hold."""

    D: np.ndarray              # (len(states), len(states))
    G: np.ndarray              # (len(states), len(inputs))
    states: np.ndarray         # indices into z
    inputs: np.ndarray         # indices into [z; y; p - (incidence) f0]


def context_step(grid: PowerGrid, base, ctx: ControlContext, h: float) -> StepMap:
    """RK4's one-step map of the context's piece (kernels.one_step_map of
    its context_system from base) on the states the context moves, with
    the frozen states it reads as inputs (moving_system, StepMap). The
    moving set is read off the assembled [A B], not off the scheme; [A B]
    is dropped before the map is built."""
    A, B, states, inputs = moving_system(context_system(grid, base, ctx))
    return StepMap(*one_step_map(A, B, h), states, inputs)


def interval_map(grid: PowerGrid, step: StepMap, K: int, R: Optional[np.ndarray]) -> StepMap:
    """Exact map of one message interval, K RK4 steps from one sampling
    instant to the next, on the states of a context's step map
    (context_step), given for a rotation R, the (N, N) block of its reset
    that reads u (LinkStore), else None. At the instant the held values
    refresh to y = C u and, when R is not None, q resets to R u; then K
    steps follow with y constant. Refresh and reset are linear and the
    K-fold step map with constant inputs is affine (kernels.k_step_map), so
    the map is exact. Both leave a state whose sampling events have already
    been applied unchanged, so the map also advances such a state. The K
    steps are squared on the step map's states; the held coupling moves G's
    y columns onto D's u columns, and the reset S folds in as D S + S - I.
    S differs from the identity only in the pair's q rows, R's rows of the
    pair in the u columns, so D S adds D's q columns times those rows to
    its u columns and clears its q columns: one small product. The map's
    inputs are the step map's without y. R's other rows are zero: those q
    are read by no rate, so the map leaves them as they are, and sample()
    zeroes them in what a run records."""
    n, a = grid.n_nodes, len(grid.angle_rates())
    D, G = k_step_map(step.D, step.G, K)
    held = (step.inputs >= 3 * n + a) & (step.inputs < 4 * n + a)
    y = step.inputs[held] - 3 * n - a
    D[:, n + a + y] += G[:, held] * grid.cost()[y]     # u sits at n + a in states as in z
    if R is not None:      # D S + S - I: the pair's q rows of S read u alone
        U, Q = slice(n + a, 2 * n + a), slice(2 * n + a, None)
        Ru = R[step.states[Q] - 2 * n - a]
        D[:, U] += D[:, Q] @ Ru
        D[:, Q] = 0.0       # no step reads q before the reset overwrites it
        D[Q, U] += Ru
        D[Q, Q] = -np.eye(len(Ru))
    return StepMap(D, G.compress(~held, axis=1), step.states, step.inputs[~held])


def cycle_map(maps: Sequence[StepMap]) -> StepMap:
    """The map of applying maps in order (kernels.compose_maps), on the
    union of the states they move, each lifted to it with a zero increment
    on the states it holds, and the union of their inputs. The interval
    maps of a rotation read the powers alone, none of the states another
    one moves."""
    states = np.unique(np.concatenate([m.states for m in maps]))
    inputs = np.unique(np.concatenate([m.inputs for m in maps]))
    lifted = []
    for m in maps:
        rows = np.searchsorted(states, m.states)[:, None]
        D, G = np.zeros((len(states), len(states))), np.zeros((len(states), len(inputs)))
        D[rows, rows.T] = m.D
        G[rows, np.searchsorted(inputs, m.inputs)] = m.G
        lifted.append((D, G))
    return StepMap(*compose_maps(lifted), states, inputs)


class LinkStore(dict):
    """Everything built on one set of live links (comm), by (kind, key),
    each part built on its first lookup (__missing__) and kept as long as
    the store:

    - ("base", ctx): the law_base of the context ctx, which has F empty;
      built when a step map of a context with that law misses;
    - ("R", ctx): the exact reset of a rotation to the pair ctx.F at a
      sampling instant, as the (N, N) block R that reads u: q becomes R u,
      init_artificial for the new pair on the messages refreshed from u.
      One init_artificial call on the N unit vectors of u, whose held
      values are the messages they send, held_messages(C u, comm.links).
      The reset reads nothing but u and leaves every other state as it
      is, so R is all of it that a run and interval_map read. None for a
      context that holds no messages or has no F, which resets nothing;
    - ("stretch", ctx): RK4's one-step map of ctx at step dt
      (context_step), from the base of ctx with F empty;
    - ("intervals", ctx): the map of one message interval of K steps of ctx
      (interval_map);
    - ("cycles", contexts): the map of a rotation cycle over contexts, the
      composition of their interval maps (cycle_map); for one context the
      ("intervals", ctx) entry itself, its powers included, neither built
      nor counted again.

    A map is a StepMap and comes with the dict of its k-step maps that
    kernels.jump squares from it, (map, powers). Only the maps read the
    step dt and the steps per message interval K. Each build of a base or
    a map is counted into built by kind, and states holds by kind the
    largest number of states a map built moves (0 for a kind none was
    built of). A link failure is the only event that changes the
    live links, and they only shrink, so no part is asked for again once
    they change: a run replaces its store at each failure by renew, which
    keeps built and states. No part refers to the store, so a dropped
    store frees its parts at once."""

    def __init__(self, grid: PowerGrid, comm: CommGraph, dt: Optional[float] = None,
                 K: Optional[int] = None):
        super().__init__()
        self.grid, self.comm, self.dt, self.K = grid, comm, dt, K
        self.built = dict.fromkeys(("base", "stretch", "intervals", "cycles"), 0)
        self.states = dict.fromkeys(("stretch", "intervals", "cycles"), 0)

    def renew(self, comm: CommGraph) -> LinkStore:
        """An empty store of the live links comm that keeps this one's
        built and states."""
        store = LinkStore(self.grid, comm, self.dt, self.K)
        store.built, store.states = self.built, self.states
        return store

    def __missing__(self, part: Tuple[str, object]):
        kind, key = part
        grid = self.grid
        if kind == "cycles" and len(key) == 1:     # a cycle of one interval is that interval
            return self.setdefault(part, self["intervals", key[0]])
        if kind in self.built:
            self.built[kind] += 1
        if kind == "base":
            value = law_base(grid, self.comm, key)
        elif kind == "R":
            value = None
            if key.hold and key.F:
                u, zero = np.eye(grid.n_nodes), np.zeros((1, grid.n_nodes))
                inside = [l for l in self.comm.links if key.F.issuperset(l)]   # all it reads
                stack = SystemState(0.0, zero, np.zeros((1, grid.n_lines)), u, zero,
                                    held_messages(grid.cost() * u, inside))
                q0, _ = controllers.init_artificial(stack, grid, key)
                value = np.ascontiguousarray(q0.T)
        elif kind == "stretch":
            value = context_step(grid, self["base", replace(key, F=frozenset())], key,
                                 self.dt), {}
        elif kind == "intervals":
            value = interval_map(grid, self["stretch", key][0], self.K, self["R", key]), {}
        else:
            value = cycle_map([self["intervals", c][0] for c in key]), {}
        if kind in self.states:
            self.states[kind] = max(self.states[kind], len(value[0].states))
        self[part] = value
        return value


def initial_flows(grid: PowerGrid, p: np.ndarray) -> np.ndarray:
    """Minimum-norm DC flow solution balancing the injections at ω = 0
    (zero cycle-space component): f = (T B)^T phi with
    (T B)(T B)^T phi = T p, for B the incidence and T the grounded angles'
    rates. T takes each component's constant out of p, so unbalanced
    injections get the least-squares flows of B f = p."""
    T = grid.angle_rates()
    TB = T @ grid.incidence()
    return TB.T @ np.linalg.solve(TB @ TB.T, T @ p)


# ---------------------------------------------------------------------------
# Schedule: a scenario compiled into pieces

@dataclass(frozen=True)
class Piece:
    """Steps [start, stop) of a run, with no disturbance or link failure
    inside. comm holds the links live in the piece. At start the fixed
    powers become p, the events are logged (the first piece's open with
    the schedule's warnings) and, when init is set, the artificial
    variables are re-initialized under it; then the sampling events of the
    instant, if start is one, take place."""

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
    """A scenario compiled into its pieces (schedule()). The pieces are the
    one description of the law a run and a report read: their contexts,
    live links and events; the schedule's warnings open the first piece's
    events."""

    n_steps: int
    interval_steps: Optional[int]          # K = T / dt; None under continuous messaging
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
    kernel calls, gives its states bit for bit and records no held messages
    (rx_series None). Events at one step apply in a fixed order:
    disturbances, then link failures, each group in scenario order; a link
    that has already failed does not fail again. The warnings open the
    first piece's events, as ("warning", text), so the pieces' events are
    the schedule's whole log.

    At each failure the law that modes() puts in force is read from its
    context: a flow law, one that holds no messages and has F,
    re-initializes the artificial variables under it (init). A failure
    after which F is empty, where modes() would have given F had the failed
    links carried power lines, is logged as a fallback to averaging. A law
    that holds messages changes only at sampling instants, so under
    SEQUENTIAL a failure mid-interval changes the rotation from the next
    instant on.

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
        events = [] if pieces else [("warning", w) for w in warnings]
        for d in dists:
            p[d.node] += d.delta_p
            events.append(("disturbance", f"node {d.node + 1} delta_p {d.delta_p:+g}"))
        newly = [link for link in dict.fromkeys(links) if link not in failed]
        failed += newly
        events += [("comm_failure", f"link ({a + 1},{b + 1})") for a, b in newly]
        if newly or not pieces:     # the live links and the law change only here
            gone = set(failed)
            live = CommGraph(links=tuple(l for l in comm.links if l not in gone))
            pending = {link for link, k in last_failure.items() if k > start} - gone
            contexts = modes(scheme, power, live.links, failed, pending)
        if not contexts:
            raise ScenarioError(f"SEQUENTIAL has no live shared power/communication link "
                                f"to rotate over after the failure at t={start * dt:g}")
        law = lead = contexts[0]
        init = law if newly and law.F and not law.hold else None
        if init:
            events.append(("init_artificial",
                           f"nodes {','.join(str(i + 1) for i in sorted(init.F))}"))
        elif newly and not law.F and modes(scheme, power | set(newly), live.links, failed,
                                           pending)[0].F:
            events.append(("fallback_consensus",
                           f"failed link ({newly[0][0] + 1},{newly[0][1] + 1}) has no "
                           "power line; averaging continues on surviving links"))
        if law.hold and start % K:
            lead = pieces[-1].context(start, K)
        pieces.append(Piece(start, stop, live, contexts, lead, tuple(p), init, tuple(events)))
    return Schedule(n_total, K, tuple(pieces))


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
    - at the last instant before the next stop above, reached by whole
      intervals; a stretch covers the partial interval after it, if any,
      with the messages held from there;
    - at the last instant before the piece's end, reached by whole
      intervals, in two cases only: the end lies inside an interval, whose
      partial interval a stretch covers as above, or a link fails there,
      whose frozen held value and init (init_artificial) read the messages
      of that instant. Otherwise whole intervals run up to the piece's end,
      where the pause runs the next piece's events, which read no held
      message, and then the instant's sampling.

    Whole intervals record the instants inside them without stopping. They
    cross whole rotation cycles of L intervals by one jump of the cycle map
    when no record lies inside them or every record starts a cycle (a
    stride that is a multiple of L K), and each other interval by one jump
    of its own map. A stretch, and a run of whole cycles, jumps once per
    _REC_BLOCK of its records, so a call writes at most that many. A
    pause books the record at its step, and any other call the record steps
    after its start up to its stop, except a stop where a pause follows.
    """
    K, n = sched.interval_steps, sched.n_steps
    for piece, after in zip(sched.pieces, sched.pieces[1:] + sched.pieces[-1:]):
        step = piece.start
        # whole intervals run up to the piece's end when it is an instant
        # and no link fails there: nothing reads the messages held before it
        open_end = K is not None and piece.stop % K == 0 and after.comm is piece.comm
        while True:
            yield Call("pause", piece, step, step, rows=int(step % stride == 0 or step == n))
            if step == piece.stop:
                break
            stop, whole = piece.stop, False
            if K is not None:
                if stride % K:
                    stop = min(stop, (step // stride + 1) * stride)
                whole = step % K == 0 and stop - step >= K
                last = stop if open_end and stop == piece.stop else (stop - 1) // K * K
                stop = max(last, step + K) if whole else min(stop, step - step % K + K)
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
                elif head <= step < tail:
                    kind, key, m = "cycles", piece.contexts, cycle
                    end = min(tail, (step // stride + _REC_BLOCK) * stride)
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
    the events at its step. The event log is the pieces' events, the
    schedule's warnings first, each at its piece's start, with the warnings
    of init_artificial after its piece's events; routine sampling refreshes
    and rotations are not logged.

    Between events a piece is x' = A x + B [y; p], with p its fixed powers
    and y the held messages: C u of the last sampling instant, which every
    live link holds. Under continuous messaging, and where schedule()
    ignores T, a live link holds its sender's current C u instead,
    refreshed at each piece's start before a failing link freezes (no law
    reads y between events there). A failed link keeps the value it held
    when it failed. init_artificial at a piece's init reads these held
    values in every messaging mode; rx_series records them under sampled
    messaging only (None otherwise). Under sampled messaging the run
    refreshes y at the pauses on instants alone: an interval or cycle jump
    gives its records their own messages and leaves y as it was. A failure
    is the only event that reads y before its step's sampling, so plan()
    pauses at the instant before one; at any other event on an instant
    the jump runs up to it, and the pause there samples before y is read.

    One loop executes the calls of plan(). The run keeps one LinkStore of
    the live links in force: each call's map by kind and key (a rotation
    over L links keeps 2L + 1 maps of at most 4N - c states each), the law base
    that a step map is built from, and each rotation's reset. A link
    failure is the only event that changes the live links, and they only
    shrink, so the run replaces the store at each failure: it holds the
    parts of the links in force and no others. So the run calls
    controllers.control_rate at most once per set of live links and law,
    for the base of its first step map, and never per step; a failure at
    the horizon, whose pause only resets q, builds no base. It squares each
    k-step map that kernels.jump uses once: pieces that share a context,
    such as the two sides of a disturbance, square once, and a new p costs
    one product G_k w. A call with many records writes them in blocks of
    rows, each one product with a lag map of several record strides
    (kernels.jump), so a record's last bits depend on its index in its
    call.

    The run holds one array [z; y; p - B f0]: its state z = [omega, theta,
    u, q], the held messages y, and the powers of the piece net of the
    initial flows f0, at which theta is zero, set once per piece. Every
    jump, whatever its kind, applies its StepMap to z[states] with offset
    G w, w = [z; y; p - B f0][inputs]. A record holds z, the states the
    map holds filled in, until the run ends; then the records become full
    rows [omega, f, u, q], the flows f0 + angle_flows() theta written by
    one block product per _REC_BLOCK records. The flows are a fixed linear
    map of the angles, so they leave the float range only where the angles
    come within a factor 2 max(Gamma) of it; only z is checked.
    Every sampling instant runs one rule, sample(), on a stack of states in
    z: under a rotation q resets to R u, R its context's (N, N) block of
    the reset (zero outside the pair), and the held values become C u.
    Interval and cycle jumps record states before their instants' events,
    and each such call samples its own records as one stack right after
    kernels.jump writes them.

    After each call z and every record it wrote must be finite, and so
    must the messages C u it sends at an instant. A call that fails this
    is replayed by the same executor one RK4 step at a time from a copy of
    its start state (exact, as no event lies inside a call), and
    IntegrationError names the first step that fails it. The calls run
    with NumPy's overflow and invalid-value warnings off, so a diverging
    run reports the error alone.

    Trajectory.diagnostics counts the maps the run built and the kernel
    calls of its plan, each by kind, and the plan's pauses, and gives the
    state size: "full", dim, and by kind the largest number of states a
    map built moves (LinkStore.states), E - N + c or more below dim.
    """
    sched = schedule(scenario)
    grid = scenario.grid
    n, e = grid.n_nodes, grid.n_lines
    dim = 3 * n + e
    flows = grid.angle_flows()
    a = flows.shape[1]
    U, Q = slice(n + a, 2 * n + a), slice(2 * n + a, 3 * n + a)     # of z
    dt, stride, K = scenario.dt, scenario.record_stride, sched.interval_steps
    cost_vec = grid.cost()
    sends = np.ones(3 * n + a)    # z * sends holds the messages C u in place of u
    sends[U] = cost_vec
    events_log: List[Tuple[float, str, str]] = []
    x = (np.concatenate([np.zeros(n), initial_flows(grid, grid.fixed_power()), np.zeros(2 * n)])
         if initial_state is None else state_to_vector(initial_state).astype(float))
    f0 = x[n:n + e].copy()
    # [z; y; p - B f0], from which every map reads its inputs: the state z,
    # the held messages y (NaN before any instant) and the powers of the piece
    zyp = np.concatenate([x[:n], np.zeros(a), x[n + e:], np.full(2 * n, np.nan)])
    z, y, pn = zyp[:3 * n + a], zyp[3 * n + a:4 * n + a], zyp[4 * n + a:]

    def full(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out, holding the full rows [omega, f, u, q] of the rows of z."""
        out[:, :n] = rows[:, :n]
        out[:, n:n + e] = f0 + rows[:, n:n + a] @ flows.T
        out[:, n + e:] = rows[:, n + a:]
        return out

    # Held messages, per directed link rx_links[c] from senders[c]: a live
    # link holds y[sender], a failed one frozen[c]; NaN before any instant.
    rx_links = tuple(d for a_, b_ in scenario.comm.links for d in ((a_, b_), (b_, a_)))
    senders = np.array([a_ for a_, _ in rx_links], dtype=int)
    frozen = np.full(len(rx_links), np.nan)
    live = np.ones(len(rx_links), dtype=bool)

    calls = dict.fromkeys(("stretch", "intervals", "cycles"), 0)
    pauses = 0

    def sample(rows: np.ndarray, step: int) -> np.ndarray:
        """Run the sampling events of the instants step, step + stride, ...
        on the stack of their states in z, in place: under a rotation q
        resets to R u, R of the context of step's interval, which the whole
        stack shares (a pause samples one state, an interval jump records
        at most one and a cycle jump records only on cycle starts). R comes from the store, not from a step map, so an
        instant whose interval never runs, such as the horizon's, builds no
        map. Returns the held values each row leaves, its C u."""
        R = store["R", piece.context(step, K)]
        if R is not None:
            rows[:, Q] = rows[:, U] @ R.T
        return cost_vec * rows[:, U]

    # --- record buffers -----------------------------------------------------
    n_rec_max = sched.n_steps // stride + 2
    try:
        rec_states = np.empty((n_rec_max, dim))
        rec_rx = None if K is None else np.empty((n_rec_max, len(rx_links)))
    except (ValueError, MemoryError):
        raise ScenarioError(f"cannot hold the run's {n_rec_max} records of {dim} states; "
                            "shorten the horizon or raise the record stride") from None
    n_rec = 0       # record k is at step min(k stride, n_steps)

    def book(got: int, Y: np.ndarray) -> None:
        """Count the next got rows recorded, holding the messages of the
        rows of Y (one row: held by all of them)."""
        nonlocal n_rec
        if K is not None:
            rx = rec_rx[n_rec:n_rec + got]
            rx[:] = frozen
            rx[:, live] = Y[:, senders[live]]
        n_rec += got

    def execute(call: Call) -> bool:
        """Run one call on z; whether z is then finite, and at an instant
        also the messages C u that it sends, and so is every record."""
        got = call.rows
        rec = rec_states[n_rec:n_rec + got, :len(z)]      # a record holds z until the run ends
        if call.kind == "pause":
            if K is not None and call.start % K == 0:
                y[:] = sample(z[None], call.start)[0]
            if got:
                rec[:] = z
                book(1, y[None])
        else:
            sm, powers = store[call.kind, call.key]
            zs = z[sm.states]
            moved = np.empty((got, len(zs)))      # contiguous, for kernels.jump's block products
            got = jump(sm.D, sm.G, zyp[sm.inputs], zs, call.k, call.first, call.every, moved,
                       powers)
            if got:
                rec = rec[:got]
                rec[:] = z      # the states the map holds
                rec[:, sm.states] = moved[:got]
                first = call.start + call.first * (call.stop - call.start) // call.k
                book(got, y[None] if call.kind == "stretch" else sample(rec, first))
            z[sm.states] = zs
        instant = K is not None and call.stop % K == 0
        return got == call.rows and bool(np.isfinite(z * sends if instant else z).all())

    piece = store = failed = None
    with np.errstate(**_QUIET):
        for call in plan(sched, stride):
            if call.kind == "pause":
                pauses += 1
            else:
                calls[call.kind] += 1
            if call.piece is not piece:
                if piece is None or call.piece.comm is not piece.comm:
                    # the first piece or a failure: the live links only shrink, so no
                    # part of the old store is asked for again
                    store = LinkStore(grid, call.piece.comm, dt, K) if store is None \
                        else store.renew(call.piece.comm)
                piece = call.piece
                t = piece.start * dt
                pn[:] = np.array(piece.p) - grid.incidence() @ f0
                events_log += [(t, kind, detail) for kind, detail in piece.events]
                if K is None:       # continuous messaging: every live link holds the current C u
                    y[:] = cost_vec * z[U]
                alive = set(piece.comm.links)
                now = np.array([l in alive for l in scenario.comm.links], dtype=bool).repeat(2)
                gone = live & ~now
                frozen[gone] = y[senders[gone]]
                live = now
                if piece.init is not None:
                    rx = {d: v for d, v in zip(rx_links, np.where(live, y[senders], frozen))
                          if not np.isnan(v)}
                    x = full(z[None], np.empty((1, dim)))[0]
                    q0, warns = controllers.init_artificial(vector_to_state(t, x, grid, rx),
                                                            grid, piece.init)
                    z[Q] = q0
                    events_log += [(t, "warning", w) for w in warns]
            z0 = z.copy()
            if not execute(call):
                z[:] = z0
                failed = next((c.stop for c in _stepwise(call, K) if not execute(c)), call.stop)
                n_rec = min(n_rec, -(-failed // stride))     # the records before it
                break
    # views of the record buffers: the Trajectory holds each record once
    states = rec_states[:n_rec]
    u = states[:, n + e:2 * n + e]
    steps = np.minimum(np.arange(n_rec) * stride, sched.n_steps)
    # a finished run keeps its warnings: no finite check sees a cost that overflows
    with np.errstate(**_QUIET) if failed is not None else contextlib.nullcontext():
        for k in range(0, n_rec, _REC_BLOCK):      # full rows, one block product per block
            block = states[k:k + _REC_BLOCK]
            full(block[:, :len(z)].copy(), block)
        traj = Trajectory(times=steps * dt, omega=states[:, :n], flow=states[:, n:n + e],
                          u=u, q=states[:, 2 * n + e:], cost_series=(u * u) @ cost_vec,
                          events=tuple(events_log), rx_links=rx_links,
                          rx_series=None if K is None else rec_rx[:n_rec],
                          diagnostics={"maps": store.built, "kernel_calls": calls,
                                       "pauses": pauses,
                                       "state_size": {"full": dim, **store.states}})
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
