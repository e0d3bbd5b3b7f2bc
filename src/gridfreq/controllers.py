"""The control law as a pure rate function (state -> du/dt, dq/dt).

One law covers every scheme. It drives the weighted controls C_j u_j toward
a common value while restoring frequency, and a flow-controlled set F of
nodes stands in for lost messages with the locally observable line-flow
dynamics: d(f_ij)/dt / B_ij equals the frequency difference across the
line, so no message exchange is needed. simulator.modes turns a scheme
into its control contexts; past it the law reads only a context's
structure: F, and whether it holds messages between sampling instants
(ControlContext.hold).

Every function here also takes a stacked state: each SystemState field may
carry leading batch axes, one state per row (omega, u, q of shape (k, N)),
and each held value in last_rx is then a scalar or a (k,) array. Nodes are
indexed on the last axis, so one call evaluates the law on k states at
once.

The law is written in two parts. control_rate averages every node over the
live links, skipping the messages into F, then overwrites the u and q rates
of the nodes of F with flow_rate, the flow law alone. So the law of a
context (scheme, F) is the law with F empty except in the u and q rows of
F, bit for bit, and the simulator assembles every context that way, in
the one layout a run carries, [omega, theta, u, q] with the line flows as
node angles, and the held values and powers [y; p] beside it: the u and q
rows of the law with F empty from one control_rate call on the unit
vectors of the states and held values it reads (simulator.law_base), made
when a run first needs a step map on a set of live links and kept in the
store of those links (simulator.LinkStore), then the rows of F from one
flow_rate call on the same vectors (simulator.context_system). The law
reads no flow, so its rows hold their rate at zero in the theta columns.
A rotation's reset is init_artificial on the unit vectors of u, whose
held values are the messages C u they send.

control_rate reads comm.links as the live links: pass a comm graph without
the failed ones, as each piece of simulator.schedule() carries.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from .model import HOLD_SCHEMES, CommGraph, PowerGrid, SystemState

Link = Tuple[int, int]


class PowerAdjacencyError(ValueError):
    """A flow-controlled node shares no power line with another node of F."""


@dataclass(frozen=True)
class ControlContext:
    """The law in force: the scheme and F, the set of flow-controlled
    nodes. Nodes outside F average over the live links (held values when
    the law holds messages, hold); nodes in F follow the flow-based law,
    coupled by the power lines inside F. F is empty while no link has
    failed, and under SEQUENTIAL it is the pair of the active shared link."""

    scheme: str
    F: FrozenSet[int] = frozenset()

    @property
    def hold(self) -> bool:
        """Whether the law averages the messages held since the last
        sampling instant (HOLD_SCHEMES) rather than current values. With F
        it is a SEQUENTIAL rotation, whose q resets at each instant."""
        return self.scheme in HOLD_SCHEMES


def flow_partners(grid: PowerGrid, F: FrozenSet[int]) -> Dict[int, List[int]]:
    """For each node i of F, in sorted order, the nodes of F that share a
    power line with i, sorted. Raises PowerAdjacencyError for a node of F
    with none."""
    if not F:
        return {}
    power = grid.edge_set()
    nodes = sorted(F)
    partners = {i: [j for j in nodes if j != i and (min(i, j), max(i, j)) in power]
                for i in nodes}
    for i, js in partners.items():
        if not js:
            raise PowerAdjacencyError(
                f"node {i + 1} shares no power line with another flow-controlled "
                f"node (F = {{{', '.join(str(j + 1) for j in nodes)}}})")
    return partners


def flow_rate(state: SystemState, grid: PowerGrid, F: FrozenSet[int],
              du: np.ndarray, dq: np.ndarray) -> List[int]:
    """Overwrite the u and q rates of the nodes of F in du and dq (shape of
    state.u) with the flow law's, and return those nodes, sorted. Node i
    ignores messages:
        C_i du_i = -omega_i - q_i,
        dq_i = -2 q_i - sum over j in F power-adjacent to i of (omega_i - omega_j).
    Raises PowerAdjacencyError as flow_partners does."""
    C = grid.cost()
    partners = flow_partners(grid, F)
    for i, js in partners.items():
        du[..., i] = (-state.omega[..., i] - state.q[..., i]) / C[i]
        acc = -2.0 * state.q[..., i]
        for j in js:
            acc -= state.omega[..., i] - state.omega[..., j]
        dq[..., i] = acc
    return list(partners)


def control_rate(state: SystemState, grid: PowerGrid, comm: CommGraph,
                 ctx: ControlContext) -> Tuple[np.ndarray, np.ndarray]:
    """(du/dt, dq/dt) of the law of ctx on the live links of comm.

    A node i outside ctx.F averages:
        C_i du_i = -omega_i - C_i * sum over live links (j, i) of (C_i u_i - y_ji),
    where y_ji is the sender's current C_j u_j, or when ctx.hold the
    value held in state.last_rx[(j, i)] (a missing one raises KeyError
    naming the link). A node i in ctx.F ignores messages and follows
    flow_rate, whose rates overwrite its u and q rows. dq is zero outside
    F. With F empty this is plain averaging; with F a power-line pair it is
    the two-node flow law on that pair.
    """
    C = grid.cost()
    y = C * state.u
    du = -state.omega / C
    for a, b in comm.links:
        for src, dst in ((a, b), (b, a)):
            if dst in ctx.F:
                continue
            if ctx.hold:
                try:
                    sent = state.last_rx[(src, dst)]
                except KeyError:
                    raise KeyError(f"no held value for live link {src + 1}->{dst + 1} "
                                   f"at t={state.t}") from None
            else:
                sent = y[..., src]
            du[..., dst] -= y[..., dst] - sent
    dq = np.zeros(np.shape(state.u))
    flow_rate(state, grid, ctx.F, du, dq)
    return du, dq


def init_artificial(state: SystemState, grid: PowerGrid, ctx: ControlContext
                    ) -> Tuple[np.ndarray, List[str]]:
    """Artificial-variable values at the failure instant.

    q_i = sum over j in F power-adjacent to i of (C_i u_i(t0) - y_ji)
    (flow_partners), with y_ji = state.last_rx[(j, i)] the value the link
    j->i last carried: a live link the last message sent on it, a failed
    link the value it held when it failed. For a pair whose link fails at
    t0 under continuous messaging this is q_i = -q_j = C_i u_i(t0) -
    C_j u_j(t0). A partner with no held value, such as one across a power
    line with no comm link, contributes zero and produces a warning (the
    run still balances power, but the optimality guarantee is void).
    """
    q = np.zeros(np.shape(state.u))
    warnings: List[str] = []
    C = grid.cost()
    for i, partners in flow_partners(grid, ctx.F).items():
        own = C[i] * state.u[..., i]
        for j in partners:
            try:
                other = state.last_rx[(j, i)]
            except KeyError:
                warnings.append(
                    f"no value ever received on link {j + 1}->{i + 1}; "
                    f"artificial variable term initialized to 0")
                continue
            q[..., i] += own - other
    return q, warnings
