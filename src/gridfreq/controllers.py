"""Control laws as pure rate functions (state -> du/dt, dq/dt).

Every law drives the weighted controls C_j u_j toward a common value while
restoring frequency. The flow-based laws replace a lost communication link
with the locally observable line-flow dynamics: d(f_ij)/dt / B_ij equals
the frequency difference across the line, so no message exchange is needed.

Every function here also takes a stacked state: each SystemState field may
carry leading batch axes, one state per row (omega, u, q of shape (k, N)),
and each held value in last_rx is then a scalar or a (k,) array. Nodes are
indexed on the last axis, so one call evaluates a law on k states at once;
the simulator assembles its matrices from one call on the identity stack.

Every law reads comm.links as the live links: pass a comm graph without the
failed ones, as each piece of simulator.schedule() carries.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .model import CONTINUOUS, CommGraph, PowerGrid, SystemState

Link = Tuple[int, int]


class PowerAdjacencyError(ValueError):
    """A flow-based law was requested for a node pair with no power line."""


@dataclass(frozen=True)
class ControlContext:
    """Which nodes run a flow-based law and over which power lines.

    F is the set of flow-controlled nodes; pair_edges the power lines whose
    dynamics replace the lost messages; active_link is the currently
    selected shared link under the sequential scheme (None otherwise).
    """

    scheme: str
    F: FrozenSet[int] = frozenset()
    pair_edges: FrozenSet[Link] = frozenset()
    active_link: Optional[Link] = None


def consensus_rate(state: SystemState, grid: PowerGrid, comm: CommGraph) -> np.ndarray:
    """du/dt of the message-based averaging law with instantaneous values.

    C_i du_i = -omega_i - C_i * sum over comm neighbors of (C_i u_i - C_j u_j).
    """
    C = grid.cost()
    y = C * state.u
    du = -state.omega / C
    for a, b in comm.links:
        du[..., a] -= y[..., a] - y[..., b]
        du[..., b] -= y[..., b] - y[..., a]
    return du


def consensus_sampled_rate(state: SystemState, grid: PowerGrid, comm: CommGraph) -> np.ndarray:
    """Same averaging law under zero-order-hold messaging.

    Neighbor values are the most recently received C_j u_j(KT) held in
    state.last_rx; a node's own weighted value stays continuous in time.
    """
    C = grid.cost()
    y = C * state.u
    du = -state.omega / C
    for a, b in comm.links:
        for src, dst in ((a, b), (b, a)):
            try:
                held = state.last_rx[(src, dst)]
            except KeyError:
                raise KeyError(f"no held value for live link {src + 1}->{dst + 1} "
                               f"at t={state.t}") from None
            du[..., dst] -= y[..., dst] - held
    return du


def pair_flow_rate(state: SystemState, grid: PowerGrid,
                   ctx: ControlContext) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Flow-based law for the endpoints of ctx.pair_edges.

    C_i du_i = -omega_i - q_i, and dq_i = -(omega_i - omega_j) - 2 q_i,
    using the identity d(f_ij)/dt / B_ij = omega_i - omega_j so only local
    measurements enter.
    """
    if not ctx.pair_edges:
        raise ValueError("pair_flow_rate requires a nonempty pair_edges set")
    power_edges = grid.edge_set()
    C = grid.cost()
    du: Dict[int, float] = {}
    dq: Dict[int, float] = {}
    for i, j in ctx.pair_edges:
        if (min(i, j), max(i, j)) not in power_edges:
            raise PowerAdjacencyError(
                f"nodes {i + 1} and {j + 1} share no power line")
        for a, b in ((i, j), (j, i)):
            du[a] = (-state.omega[..., a] - state.q[..., a]) / C[a]
            dq[a] = (dq.get(a, -2.0 * state.q[..., a])
                     - (state.omega[..., a] - state.omega[..., b]))
    return du, dq


def hybrid_single_failure_rate(state: SystemState, grid: PowerGrid, comm: CommGraph,
                               ctx: ControlContext) -> Tuple[np.ndarray, Dict[int, float]]:
    """Master/slave law after a single comm link failure between power-adjacent
    nodes: the failed pair switches to the flow-based law and ignores incoming
    messages; every other node keeps averaging over its surviving links
    (including values still broadcast by the pair)."""
    if len(ctx.F) != 2:
        raise ValueError(f"hybrid law expects exactly two flow-controlled nodes, got {ctx.F}")
    du_pair, dq = pair_flow_rate(state, grid, ctx)
    C = grid.cost()
    y = C * state.u
    du = -state.omega / C
    for a, b in comm.links:
        if a not in ctx.F:
            du[..., a] -= y[..., a] - y[..., b]
        if b not in ctx.F:
            du[..., b] -= y[..., b] - y[..., a]
    for i, val in du_pair.items():
        du[..., i] = val
    return du, dq


def multi_failure_rate(state: SystemState, grid: PowerGrid, comm: CommGraph,
                       ctx: ControlContext) -> Tuple[np.ndarray, Dict[int, float]]:
    """Generalization to several failed links.

    Nodes outside F keep the averaging law on surviving links; each i in F
    follows C_i du_i = -omega_i - q_i with
    dq_i = -sum over j in F power-adjacent to i of (omega_i - omega_j) - 2 q_i.
    With F empty this reduces exactly to consensus_rate.
    """
    C = grid.cost()
    y = C * state.u
    du = -state.omega / C
    for a, b in comm.links:
        if a not in ctx.F:
            du[..., a] -= y[..., a] - y[..., b]
        if b not in ctx.F:
            du[..., b] -= y[..., b] - y[..., a]
    dq: Dict[int, float] = {}
    power_edges = grid.edge_set()
    F = sorted(ctx.F)
    for i in F:
        du[..., i] = (-state.omega[..., i] - state.q[..., i]) / C[i]
        acc = -2.0 * state.q[..., i]
        for j in F:
            if j != i and (min(i, j), max(i, j)) in power_edges:
                acc -= state.omega[..., i] - state.omega[..., j]
        dq[i] = acc
    return du, dq


def init_artificial(state: SystemState, grid: PowerGrid, ctx: ControlContext,
                    comm: Optional[CommGraph] = None) -> Tuple[np.ndarray, List[str]]:
    """Artificial-variable values at the failure instant.

    Single pair: q_i = -q_j = C_i u_i(t0) - C_j u_j(t0). Several failures:
    q_i = sum over power-adjacent j in F of (C_i u_i(t0) - C_j u_j(t0)).
    The neighbor value is the last one exchanged: the current C_j u_j under
    continuous messaging, else the held sample. A missing held value
    contributes zero and produces a warning (the run still balances power,
    but the optimality guarantee is void).
    """
    q = np.zeros(np.shape(state.u))
    warnings: List[str] = []
    C = grid.cost()
    sampled = comm is not None and comm.message_interval is not CONTINUOUS
    power_edges = grid.edge_set()
    F = sorted(ctx.F)
    for i in F:
        own = C[i] * state.u[..., i]
        for j in F:
            if j == i or (min(i, j), max(i, j)) not in power_edges:
                continue
            if sampled:
                try:
                    other = state.last_rx[(j, i)]
                except KeyError:
                    warnings.append(
                        f"no value ever received on link {j + 1}->{i + 1}; "
                        f"artificial variable term initialized to 0")
                    continue
            else:
                other = C[j] * state.u[..., j]
            q[..., i] += own - other
    return q, warnings


def sequential_active_link(K: int, shared_links: Sequence[Link]) -> Link:
    """Round-robin selection over the ordered shared links for interval K."""
    if not shared_links:
        raise ValueError("no shared power/communication links to rotate over")
    return shared_links[K % len(shared_links)]
