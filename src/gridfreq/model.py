"""Data model for the physical grid, the communication overlay and scenarios.

All node indices are 1-based in files and messages (matching operator
convention) and 0-based internally. Everything here is immutable after
construction and safe to share between concurrent simulation runs.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

# Sentinel for continuous-time messaging (no sampling interval).
CONTINUOUS = None

SCHEMES = (
    "CONSENSUS",
    "CONSENSUS_SAMPLED",
    "PAIR_FLOW",
    "HYBRID_SINGLE",
    "MULTI_FAILURE",
    "SEQUENTIAL",
)

# Schemes whose averaging reads the messages held since the last sampling
# instant; the others read the neighbours' current values.
HOLD_SCHEMES = ("CONSENSUS_SAMPLED", "SEQUENTIAL")


@dataclass(frozen=True)
class NodeParams:
    """Per-node physical and economic parameters.

    inertia and cost must be strictly positive; droop is a damping gain
    and may be zero; fixed_power is signed (generation > 0, load < 0).
    """

    id: int                 # 1-based external id
    inertia: float
    droop: float
    cost: float
    fixed_power: float


@dataclass(frozen=True)
class Line:
    """Power line between 0-based endpoints i < j with susceptance b > 0.

    The orientation i -> j is fixed at construction; flows are signed
    relative to it.
    """

    i: int
    j: int
    b: float


@dataclass(frozen=True)
class PowerGrid:
    """Nodes and power lines. The arrays inertia(), droop(), cost(),
    susceptance() and incidence(), and edge_set(), are derived once per
    grid and shared by every caller, so the arrays are read-only.
    fixed_power() is a new array on each call: schedule() and
    post_disturbance_power() add the disturbances into it."""

    nodes: Tuple[NodeParams, ...]
    lines: Tuple[Line, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def inertia(self) -> np.ndarray:
        return self._derived["inertia"]

    def droop(self) -> np.ndarray:
        return self._derived["droop"]

    def cost(self) -> np.ndarray:
        return self._derived["cost"]

    def fixed_power(self) -> np.ndarray:
        return np.array([n.fixed_power for n in self.nodes])

    def susceptance(self) -> np.ndarray:
        return self._derived["susceptance"]

    def incidence(self) -> np.ndarray:
        """Node-line incidence matrix: +1 at the tail, -1 at the head."""
        return self._derived["incidence"]

    def edge_set(self) -> frozenset:
        return self._derived["edge_set"]

    @functools.cached_property
    def _derived(self) -> dict:
        """What inertia() to edge_set() return, read once from the nodes and
        lines; each array read-only."""
        ends = np.array([(ln.i, ln.j) for ln in self.lines], dtype=np.intp).reshape(-1, 2)
        incidence = np.zeros((self.n_nodes, self.n_lines))
        incidence[ends, np.arange(self.n_lines)[:, None]] = (1.0, -1.0)
        arrays = {"inertia": np.array([n.inertia for n in self.nodes]),
                  "droop": np.array([n.droop for n in self.nodes]),
                  "cost": np.array([n.cost for n in self.nodes]),
                  "susceptance": np.array([ln.b for ln in self.lines]),
                  "incidence": incidence}
        for a in arrays.values():
            a.flags.writeable = False
        return {**arrays, "edge_set": frozenset((ln.i, ln.j) for ln in self.lines)}

    def weighted_laplacian(self) -> np.ndarray:
        """Susceptance-weighted Laplacian of the power graph."""
        A = self.incidence()
        return A @ np.diag(self.susceptance()) @ A.T


@dataclass(frozen=True)
class CommGraph:
    """Communication overlay: undirected links, per-link failure times and
    the message interval T (CONTINUOUS for ideal continuous exchange)."""

    links: Tuple[Tuple[int, int], ...]
    failed: Tuple[Tuple[Tuple[int, int], float], ...] = ()
    message_interval: Optional[float] = CONTINUOUS

    def laplacian(self, n_nodes: int) -> np.ndarray:
        """The graph Laplacian of the links over n_nodes nodes."""
        L = np.zeros((n_nodes, n_nodes))
        for a, b in self.links:
            L[a, a] += 1.0
            L[b, b] += 1.0
            L[a, b] -= 1.0
            L[b, a] -= 1.0
        return L


@dataclass(frozen=True)
class DisturbanceEvent:
    """Step change of the fixed power at one node (0-based internally)."""

    time: float
    node: int
    delta_p: float


@dataclass(frozen=True)
class Scenario:
    grid: PowerGrid
    comm: CommGraph
    disturbances: Tuple[DisturbanceEvent, ...] = ()
    scheme: str = "CONSENSUS"
    horizon: float = 200.0
    dt: float = 1e-3
    record_stride: int = 100


def post_disturbance_power(scenario: Scenario) -> np.ndarray:
    """The fixed powers after every scheduled disturbance, added in
    scenario order whether or not the horizon reaches it: the powers the
    optimal dispatch of `gridfreq optimal` and of t* is taken for."""
    p = scenario.grid.fixed_power()
    for d in scenario.disturbances:
        p[d.node] += d.delta_p
    return p


@dataclass(frozen=True)
class SystemState:
    """Snapshot of the closed-loop state.

    q carries one slot per node to keep the vector shape scheme-independent;
    it is zero for nodes not governed by a flow-based law. last_rx maps a
    directed communication link (src, dst) to the most recently received
    weighted control value C_src * u_src.
    """

    t: float
    omega: np.ndarray
    flow: np.ndarray
    u: np.ndarray
    q: np.ndarray
    last_rx: Mapping[Tuple[int, int], float] = field(default_factory=dict)


def _connected(n: int, pairs: Iterable[Tuple[int, int]]) -> bool:
    """Whether the n >= 1 nodes are connected by pairs."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    root = find(0)
    return all(find(i) == root for i in range(n))


def interval_steps(T: float, dt: float) -> int:
    """K = T / dt, the RK4 steps of dt > 0 in one message interval T.
    Raises ValueError unless T >= dt and T / dt is finite and lies within
    1e-9 (relative) of an integer; a finite T whose step count overflows
    is reported as validate reports such a horizon."""
    ratio = T / dt
    if T < dt:
        raise ValueError(f"message_interval {T} is shorter than dt {dt}")
    if math.isfinite(T) and not math.isfinite(ratio):
        raise ValueError(f"message_interval {T:g} is out of range: its step count "
                         f"t / dt overflows at dt {dt:g}")
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"dt {dt} does not divide message_interval {T}")
    return round(ratio)


def validate(scenario: Scenario) -> list:
    """Collect every invariant violation as a human-readable string.

    An empty list means the scenario is well formed. Violations are data,
    not exceptions: callers decide whether to abort.
    """
    out = []
    grid, comm = scenario.grid, scenario.comm
    n = grid.n_nodes

    if n == 0:
        out.append("grid has no nodes")
        return out

    for k, node in enumerate(grid.nodes):
        if node.id != k + 1:
            out.append(f"node at position {k} has id {node.id}, expected {k + 1}")
        if not 0 < node.inertia < math.inf:
            out.append(f"node {node.id}: inertia must be finite and > 0, got {node.inertia}")
        if not 0 <= node.droop < math.inf:
            out.append(f"node {node.id}: droop must be finite and >= 0, got {node.droop}")
        if not 0 < node.cost < math.inf:
            out.append(f"node {node.id}: cost must be finite and > 0, got {node.cost}")
        if not math.isfinite(node.fixed_power):
            out.append(f"node {node.id}: fixed power p must be finite, got {node.fixed_power}")

    seen = set()
    for ln in grid.lines:
        label = f"line ({ln.i + 1},{ln.j + 1})"
        if not (0 <= ln.i < n and 0 <= ln.j < n):
            out.append(f"{label}: endpoint out of range")
            continue
        if ln.i == ln.j:
            out.append(f"{label}: self-loop")
        if ln.i > ln.j:
            out.append(f"{label}: endpoints must satisfy i < j")
        if (ln.i, ln.j) in seen:
            out.append(f"{label}: duplicate line")
        seen.add((ln.i, ln.j))
        if not 0 < ln.b < math.inf:
            out.append(f"{label}: susceptance must be finite and > 0, got {ln.b}")
    if not out and not _connected(n, [(ln.i, ln.j) for ln in grid.lines]):
        out.append("power graph is not connected")

    seen = set()
    for a, b in comm.links:
        label = f"comm link ({a + 1},{b + 1})"
        if not (0 <= a < n and 0 <= b < n):
            out.append(f"{label}: endpoint out of range")
        elif a == b:
            out.append(f"{label}: self-loop")
        elif a > b:
            out.append(f"{label}: endpoints must satisfy i < j")
        elif (a, b) in seen:
            out.append(f"{label}: duplicate link")
        seen.add((a, b))
    link_set = set(comm.links)
    for link, t0 in comm.failed:
        if link not in link_set:
            out.append(f"comm failure on ({link[0] + 1},{link[1] + 1}) references a link "
                       "absent from comm_links")
        if not math.isfinite(t0):
            out.append(f"comm failure on ({link[0] + 1},{link[1] + 1}) has non-finite time {t0}")
        elif t0 < 0:
            out.append(f"comm failure on ({link[0] + 1},{link[1] + 1}) has negative time {t0}")
    T = comm.message_interval
    T_ok = T is CONTINUOUS or (T > 0 and math.isfinite(T))
    if not T_ok:
        out.append(f"message_interval must be finite and > 0, or continuous, got {T}")

    for d in scenario.disturbances:
        if not (0 <= d.node < n):
            out.append(f"disturbance at t={d.time} references unknown node {d.node + 1}")
        if not math.isfinite(d.time):
            out.append(f"disturbance at node {d.node + 1} has non-finite time {d.time}")
        elif d.time < 0:
            out.append(f"disturbance at node {d.node + 1} has negative time {d.time}")
        if not math.isfinite(d.delta_p):
            out.append(f"disturbance at node {d.node + 1} has non-finite delta_p {d.delta_p}")

    dt_ok = scenario.dt > 0 and math.isfinite(scenario.dt)
    if not math.isfinite(scenario.horizon):
        out.append(f"horizon must be finite, got {scenario.horizon}")
    if not dt_ok:
        out.append(f"dt must be finite and > 0, got {scenario.dt}")
    elif scenario.horizon < scenario.dt:
        out.append(f"horizon {scenario.horizon} is shorter than dt {scenario.dt}")
    if dt_ok:       # a time is a step count t / dt, which must fit in a float
        times = ([("horizon", scenario.horizon)]
                 + [(f"disturbance at node {d.node + 1} time", d.time)
                    for d in scenario.disturbances]
                 + [(f"comm failure on ({a + 1},{b + 1}) time", t0)
                    for (a, b), t0 in comm.failed])
        for what, t in times:
            if math.isfinite(t) and not math.isfinite(t / scenario.dt):
                out.append(f"{what} {t:g} is out of range: its step count t / dt "
                           f"overflows at dt {scenario.dt:g}")
    if scenario.record_stride < 1:
        out.append(f"record_stride must be >= 1, got {scenario.record_stride}")
    if scenario.scheme not in SCHEMES:
        out.append(f"unknown scheme {scenario.scheme!r}")
    if T is not CONTINUOUS and T_ok and dt_ok:
        try:
            interval_steps(T, scenario.dt)
        except ValueError as exc:
            out.append(str(exc))

    if scenario.scheme == "PAIR_FLOW" and n != 2:
        out.append(f"PAIR_FLOW requires a two-node grid, got {n} nodes")
    if scenario.scheme == "HYBRID_SINGLE" and len(comm.failed) != 1:
        out.append(f"HYBRID_SINGLE expects exactly one comm failure, got {len(comm.failed)}")
    if scenario.scheme in HOLD_SCHEMES and T is CONTINUOUS:
        out.append(f"{scenario.scheme} requires a finite message_interval")
    if scenario.scheme == "SEQUENTIAL":
        shared = grid.edge_set() & set(comm.links)
        if not shared:
            out.append("SEQUENTIAL requires at least one edge shared by the power "
                       "and communication graphs")
    return out


# ---------------------------------------------------------------------------
# Scenario file format (UTF-8 JSON)

class ScenarioFormatError(ValueError):
    """Raised when a scenario file cannot be interpreted."""


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioFormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def _int(value, where: str, what: str) -> int:
    """value as an int: an integer, or a float with an integral value. Anything
    else, booleans included, raises ScenarioFormatError naming what."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ScenarioFormatError(f"{where}: {what} must be an integer, got {value!r}")
    return int(value)


def _float(value, where: str, what: str) -> float:
    """value as a float: an integer or a float. Anything else, booleans and
    numeric strings included, raises ScenarioFormatError naming what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: {what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:       # an integer past the float range
        raise ScenarioFormatError(f"{where}: {what} is out of range, got {value!r}") from None


def _number(obj: dict, key: str, where: str) -> float:
    """The number under key of obj, which must be there (_req, _float)."""
    return _float(_req(obj, key, where), where, repr(key))


def _object(value, where: str) -> dict:
    """value, which must be a JSON object; else ScenarioFormatError."""
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{where}: must be an object, got {value!r}")
    return value


def _section(doc: dict, key: str, required: bool = True) -> list:
    """The list under key of the document (empty when absent and not
    required); anything but a list raises ScenarioFormatError."""
    items = _req(doc, key, "scenario") if required else doc.get(key, [])
    if not isinstance(items, list):
        raise ScenarioFormatError(f"scenario: {key!r} must be a list, got {items!r}")
    return items


def _link(value, where: str, what: str) -> Tuple[int, int]:
    """A link [a, b] of 1-based integer endpoints as a 0-based pair (min, max)."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioFormatError(f"{where}: {what} must be a pair of node ids, got {value!r}")
    a, b = (_int(v, where, f"{what} endpoint") - 1 for v in value)
    return min(a, b), max(a, b)


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a scenario document. Node ids, line endpoints, link
    endpoints, disturbance nodes and record_stride must be integers (an
    integral float such as 2.0 is accepted), every other number field an
    integer or a float (message_interval may also be "continuous"), the
    document and each entry of its sections objects, and each section a
    list; anything else raises ScenarioFormatError naming the key."""
    doc = _object(doc, "scenario")
    nodes = []
    for k, nd in enumerate(_section(doc, "nodes")):
        where = f"nodes[{k}]"
        nd = _object(nd, where)
        nodes.append(NodeParams(
            id=_int(nd.get("id", k + 1), where, "'id'"),
            inertia=_number(nd, "inertia", where),
            droop=_number(nd, "droop", where),
            cost=_number(nd, "cost", where),
            fixed_power=_number(nd, "p", where),
        ))

    lines = []
    for k, ld in enumerate(_section(doc, "lines")):
        where = f"lines[{k}]"
        ld = _object(ld, where)
        i, j = (_int(_req(ld, key, where), where, repr(key)) - 1 for key in ("i", "j"))
        has_b, has_x = "b" in ld, "reactance" in ld
        if has_b == has_x:
            raise ScenarioFormatError(f"{where}: exactly one of 'b' or 'reactance' required")
        if has_b:
            b = _number(ld, "b", where)
        else:
            x = _number(ld, "reactance", where)
            if x == 0:
                raise ScenarioFormatError(f"{where}: reactance must be nonzero")
            b = 1.0 / x
        lines.append(Line(min(i, j), max(i, j), b))

    links = tuple(_link(link, f"comm_links[{k}]", "link")
                  for k, link in enumerate(_section(doc, "comm_links")))
    failures = []
    for k, fd in enumerate(_section(doc, "comm_failures", required=False)):
        where = f"comm_failures[{k}]"
        fd = _object(fd, where)
        failures.append((_link(_req(fd, "link", where), where, "'link'"),
                         _number(fd, "time", where)))

    raw_T = doc.get("message_interval", "continuous")
    T = (CONTINUOUS if raw_T in (None, "continuous")
         else _float(raw_T, "scenario", "'message_interval'"))

    disturbances = []
    for k, dd in enumerate(_section(doc, "disturbances", required=False)):
        where = f"disturbances[{k}]"
        dd = _object(dd, where)
        disturbances.append(DisturbanceEvent(
            time=_number(dd, "time", where),
            node=_int(_req(dd, "node", where), where, "'node'") - 1,
            delta_p=_number(dd, "delta_p", where)))

    return Scenario(
        grid=PowerGrid(nodes=tuple(nodes), lines=tuple(lines)),
        comm=CommGraph(links=links, failed=tuple(failures), message_interval=T),
        disturbances=tuple(disturbances),
        scheme=str(doc.get("scheme", "CONSENSUS")),
        horizon=_float(doc.get("horizon", 200.0), "scenario", "'horizon'"),
        dt=_float(doc.get("dt", 1e-3), "scenario", "'dt'"),
        record_stride=_int(doc.get("record_stride", 100), "scenario", "'record_stride'"),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    T = scenario.comm.message_interval
    return {
        "nodes": [
            {"id": n.id, "inertia": n.inertia, "droop": n.droop,
             "cost": n.cost, "p": n.fixed_power}
            for n in scenario.grid.nodes
        ],
        "lines": [
            {"i": ln.i + 1, "j": ln.j + 1, "b": ln.b} for ln in scenario.grid.lines
        ],
        "comm_links": [[a + 1, b + 1] for a, b in scenario.comm.links],
        "comm_failures": [
            {"link": [l[0] + 1, l[1] + 1], "time": t0} for l, t0 in scenario.comm.failed
        ],
        "message_interval": "continuous" if T is CONTINUOUS else T,
        "disturbances": [
            {"time": d.time, "node": d.node + 1, "delta_p": d.delta_p}
            for d in scenario.disturbances
        ],
        "scheme": scenario.scheme,
        "horizon": scenario.horizon,
        "dt": scenario.dt,
        "record_stride": scenario.record_stride,
    }


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deep
            raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def toy_grid() -> Scenario:
    """The bundled ten-node benchmark scenario.

    Node parameters are exact benchmark data; the benchmark's line topology
    is not recoverable, so the bundled wiring is a documented reconstruction
    chosen so that lines (1,2), (2,5) and (2,7) exist and the failure
    experiments remain meaningful. It lives in data/toy_grid.json;
    correcting the topology is a data change only.
    """
    ref = resources.files("gridfreq.data").joinpath("toy_grid.json")
    with ref.open(encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def with_overrides(scenario: Scenario, scheme: Optional[str] = None,
                   horizon: Optional[float] = None, dt: Optional[float] = None,
                   message_interval="unset",
                   failures: Optional[Sequence[Tuple[Tuple[int, int], float]]] = None,
                   record_stride: Optional[int] = None) -> Scenario:
    """Non-destructive scenario tweaks used by the CLI and experiment sweeps."""
    comm = scenario.comm
    if message_interval != "unset" or failures is not None:
        comm = CommGraph(
            links=comm.links,
            failed=comm.failed if failures is None else tuple(failures),
            message_interval=comm.message_interval if message_interval == "unset"
            else message_interval,
        )
    return replace(
        scenario,
        comm=comm,
        scheme=scenario.scheme if scheme is None else scheme,
        horizon=scenario.horizon if horizon is None else horizon,
        dt=scenario.dt if dt is None else dt,
        record_stride=scenario.record_stride if record_stride is None else record_stride,
    )
