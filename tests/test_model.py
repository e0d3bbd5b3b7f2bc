import dataclasses
import json
import math

import numpy as np
import pytest

from gridfreq.model import (CONTINUOUS, CommGraph, DisturbanceEvent, Line,
                            NodeParams, PowerGrid, Scenario,
                            ScenarioFormatError, load_scenario, post_disturbance_power,
                            scenario_from_dict, scenario_to_dict, validate,
                            with_overrides)
from gridfreq.simulator import ScenarioError, schedule


def test_toy_grid_is_valid(toy):
    assert validate(toy) == []


def test_toy_grid_node_data(toy):
    assert toy.grid.nodes[6].cost == 7
    assert toy.grid.nodes[2].droop == pytest.approx(0.667, abs=1e-3)
    assert toy.grid.fixed_power().sum() == pytest.approx(0.0, abs=1e-12)
    assert toy.grid.n_nodes == 10
    assert toy.grid.n_lines == 10
    assert len(toy.comm.links) == 10
    assert toy.disturbances == (DisturbanceEvent(time=1.0, node=2, delta_p=-5.0),)


def test_toy_grid_required_lines(toy):
    edges = toy.grid.edge_set()
    for pair in [(0, 1), (1, 4), (1, 6)]:
        assert pair in edges
    assert set(toy.comm.links) == edges


def test_post_disturbance_power_adds_every_scheduled_disturbance(toy):
    """Both disturbances count, the one past the horizon too, added in
    scenario order onto the grid's fixed powers."""
    scn = dataclasses.replace(toy, horizon=2.0, disturbances=(
        DisturbanceEvent(time=1.0, node=2, delta_p=-5.0),
        DisturbanceEvent(time=3.0, node=2, delta_p=1.5)))
    want = np.array([n.fixed_power for n in toy.grid.nodes])
    want[2] = want[2] - 5.0 + 1.5
    assert np.array_equal(post_disturbance_power(scn), want)


def test_incidence_structure(toy):
    A = toy.grid.incidence()
    assert np.count_nonzero(A) == 2 * toy.grid.n_lines
    assert np.all(A.sum(axis=0) == 0)
    for col in A.T:
        assert sorted(col[col != 0]) == [-1.0, 1.0]


def test_validate_flags_bad_inertia(toy):
    nodes = list(toy.grid.nodes)
    nodes[2] = dataclasses.replace(nodes[2], inertia=0.0)
    bad = dataclasses.replace(toy, grid=PowerGrid(tuple(nodes), toy.grid.lines))
    problems = validate(bad)
    assert len(problems) == 1
    assert "node 3" in problems[0]


def test_validate_flags_unknown_failed_link(toy):
    comm = CommGraph(links=toy.comm.links, failed=(((0, 5), 1.0),))
    bad = dataclasses.replace(toy, comm=comm)
    problems = validate(bad)
    assert len(problems) == 1
    assert "absent" in problems[0]


def test_validate_flags_disconnected_grid():
    nodes = tuple(NodeParams(k + 1, 0.1, 1.0, 1.0, 0.0) for k in range(3))
    grid = PowerGrid(nodes, (Line(0, 1, 1.0),))
    scn = Scenario(grid=grid, comm=CommGraph(links=((0, 1),)))
    assert any("not connected" in p for p in validate(scn))


def test_validate_dt_must_divide_T(toy):
    scn = with_overrides(toy, message_interval=0.0015, scheme="CONSENSUS_SAMPLED")
    assert any("divide" in p for p in validate(scn))
    ok = with_overrides(toy, message_interval=0.002, scheme="CONSENSUS_SAMPLED")
    assert validate(ok) == []


@pytest.mark.parametrize("scheme,tweak,needle", [
    ("PAIR_FLOW", {}, "two-node"),
    ("HYBRID_SINGLE", {}, "exactly one comm failure"),
    ("SEQUENTIAL", {}, "finite message_interval"),
    ("CONSENSUS_SAMPLED", {}, "finite message_interval"),
])
def test_validate_scheme_preconditions(toy, scheme, tweak, needle):
    scn = with_overrides(toy, scheme=scheme, **tweak)
    assert any(needle in p for p in validate(scn))


def test_scenario_roundtrip(toy):
    doc = scenario_to_dict(toy)
    again = scenario_from_dict(json.loads(json.dumps(doc)))
    # susceptance is emitted as b, so compare numerically
    assert again.grid.nodes == toy.grid.nodes
    assert [(l.i, l.j) for l in again.grid.lines] == [(l.i, l.j) for l in toy.grid.lines]
    assert np.allclose(again.grid.susceptance(), toy.grid.susceptance())
    assert again.comm == toy.comm
    assert again.disturbances == toy.disturbances
    assert (again.scheme, again.horizon, again.dt, again.record_stride) == \
           (toy.scheme, toy.horizon, toy.dt, toy.record_stride)
    # a second round trip is exactly stable
    assert scenario_to_dict(again) == scenario_to_dict(
        scenario_from_dict(scenario_to_dict(again)))


def test_line_requires_exactly_one_of_b_and_reactance(toy):
    doc = scenario_to_dict(toy)
    doc["lines"][0] = {"i": 2, "j": 7, "b": 1.0, "reactance": 1.0}
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)
    del doc["lines"][0]["b"]
    del doc["lines"][0]["reactance"]
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_laplacian_of_the_links_over_n_nodes():
    """The Laplacian of a graph's own links, over the nodes asked for: a
    node that no link reaches has a zero row and column."""
    L = CommGraph(links=((0, 1), (1, 2))).laplacian(3)
    assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    L = CommGraph(links=((0, 1),)).laplacian(3)
    assert np.array_equal(L, [[1, -1, 0], [-1, 1, 0], [0, 0, 0]])


@pytest.mark.parametrize("tweak, needle", [
    ({"horizon": math.inf}, "horizon must be finite"),
    ({"horizon": math.nan}, "horizon must be finite"),
    ({"dt": math.inf}, "dt must be finite"),
    ({"dt": math.nan}, "dt must be finite"),
    ({"message_interval": math.inf}, "message_interval must be finite"),
    ({"message_interval": math.nan}, "message_interval must be finite"),
    ({"message_interval": 1e-300}, "shorter than dt"),
    ({"message_interval": 5e-4}, "shorter than dt"),
    ({"failures": (((1, 6), math.inf),)}, "non-finite time"),
    ({"failures": (((1, 6), math.nan),)}, "non-finite time"),
    ({"disturbance_time": math.inf}, "non-finite time"),
    ({"disturbance_time": math.nan}, "non-finite time"),
])
def test_validate_rejects_non_finite_values_and_short_intervals(toy, tweak, needle):
    """Each non-finite time, and a message interval shorter than dt (which
    rounds to zero steps), is one violation, not an error later in the run."""
    overrides = {k: v for k, v in tweak.items() if k != "disturbance_time"}
    scn = toy
    if "disturbance_time" in tweak:
        dist = dataclasses.replace(toy.disturbances[0], time=tweak["disturbance_time"])
        scn = dataclasses.replace(toy, disturbances=(dist,))
    scn = with_overrides(scn, scheme="HYBRID_SINGLE" if "failures" in tweak else None,
                         **overrides)
    problems = validate(scn)
    assert len(problems) == 1 and needle in problems[0]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where, needle", [
    ("inertia", "node 3: inertia must be finite"),
    ("droop", "node 3: droop must be finite"),
    ("cost", "node 3: cost must be finite"),
    ("fixed_power", "node 3: fixed power p must be finite"),
    ("b", "line (2,7): susceptance must be finite"),
    ("delta_p", "disturbance at node 3 has non-finite delta_p"),
])
def test_validate_rejects_non_finite_parameters(toy, where, needle, value):
    """A non-finite node, line or disturbance value is one violation, not a
    non-finite state in the run or a run that silently ignores it."""
    grid = toy.grid
    if where == "b":
        lines = (dataclasses.replace(grid.lines[0], b=value),) + grid.lines[1:]
        scn = dataclasses.replace(toy, grid=PowerGrid(grid.nodes, lines))
    elif where == "delta_p":
        dist = dataclasses.replace(toy.disturbances[0], delta_p=value)
        scn = dataclasses.replace(toy, disturbances=(dist,))
    else:
        nodes = list(grid.nodes)
        nodes[2] = dataclasses.replace(nodes[2], **{where: value})
        scn = dataclasses.replace(toy, grid=PowerGrid(tuple(nodes), grid.lines))
    problems = validate(scn)
    assert len(problems) == 1 and needle in problems[0]


def test_zero_reactance_is_a_format_error(toy):
    doc = scenario_to_dict(toy)
    doc["lines"][0] = {"i": 1, "j": 2, "reactance": 0.0}
    with pytest.raises(ScenarioFormatError, match=r"lines\[0\]: reactance must be nonzero"):
        scenario_from_dict(doc)


def _set(path, value):
    """A change of a scenario document: path is a sequence of keys and
    indices into it, its last element the one to set."""
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return change


@pytest.mark.parametrize("path, value, message", [
    (("nodes", 0, "id"), 1.5, r"nodes\[0\]: 'id' must be an integer, got 1.5"),
    (("nodes", 0, "id"), "1", r"nodes\[0\]: 'id' must be an integer, got '1'"),
    (("lines", 0, "i"), 2.9, r"lines\[0\]: 'i' must be an integer, got 2.9"),
    (("lines", 0, "j"), True, r"lines\[0\]: 'j' must be an integer, got True"),
    (("lines", 0, "i"), None, r"lines\[0\]: 'i' must be an integer, got None"),
    (("comm_links", 0), [1.5, 2], r"comm_links\[0\]: link endpoint must be an integer, got 1.5"),
    (("comm_links", 0), [2, 7, 8], r"comm_links\[0\]: link must be a pair of node ids"),
    (("comm_links", 0), [2, float("inf")], r"comm_links\[0\]: link endpoint must be an integer"),
    (("comm_failures",), [{"link": [2, 7.5], "time": 1.0}],
     r"comm_failures\[0\]: 'link' endpoint must be an integer, got 7.5"),
    (("disturbances", 0, "node"), 3.2, r"disturbances\[0\]: 'node' must be an integer, got 3.2"),
    (("disturbances", 0, "node"), False, r"disturbances\[0\]: 'node' must be an integer"),
    (("record_stride",), 2.7, r"scenario: 'record_stride' must be an integer, got 2.7"),
])
def test_non_integer_ids_are_format_errors(toy, path, value, message):
    """Node ids, line and link endpoints, disturbance nodes and the record
    stride must be integers: a fractional float is not truncated, a boolean
    is not read as 0 or 1, and the error names the key."""
    doc = scenario_to_dict(toy)
    _set(path, value)(doc)
    with pytest.raises(ScenarioFormatError, match=message):
        scenario_from_dict(doc)


def test_integral_floats_are_integers(toy):
    """2.0 reads as 2 wherever an integer is expected, so such a file gives
    the scenario of its integer twin, link endpoints included."""
    doc = scenario_to_dict(toy)
    for change in (_set(("nodes", 1, "id"), 2.0), _set(("lines", 0, "i"), 2.0),
                   _set(("comm_links", 0), [2.0, 7.0]), _set(("disturbances", 0, "node"), 3.0),
                   _set(("record_stride",), 100.0),
                   _set(("comm_failures",), [{"link": [7.0, 2], "time": 1.0}])):
        change(doc)
    scn = scenario_from_dict(doc)
    twin = scenario_from_dict(dict(scenario_to_dict(toy),
                                   comm_failures=[{"link": [2, 7], "time": 1.0}]))
    assert scn == twin
    assert all(type(v) is int for link in scn.comm.links for v in link)
    assert validate(scn) == []


@pytest.mark.parametrize("path, value, message", [
    ((), None, r"^scenario: must be an object, got None$"),
    ((), [], r"^scenario: must be an object, got \[\]$"),
    (("nodes",), {"id": 1}, r"^scenario: 'nodes' must be a list"),
    (("lines",), None, r"^scenario: 'lines' must be a list, got None$"),
    (("comm_links",), "1-2", r"^scenario: 'comm_links' must be a list"),
    (("comm_failures",), {"link": [2, 7]}, r"^scenario: 'comm_failures' must be a list"),
    (("disturbances",), {"time": 1}, r"^scenario: 'disturbances' must be a list"),
    (("nodes", 0), 1, r"^nodes\[0\]: must be an object, got 1$"),
    (("lines", 0), [2, 7], r"^lines\[0\]: must be an object"),
    (("comm_failures",), [5], r"^comm_failures\[0\]: must be an object, got 5$"),
    (("disturbances", 0), "node 3", r"^disturbances\[0\]: must be an object"),
    (("nodes", 0, "inertia"), None, r"^nodes\[0\]: 'inertia' must be a number, got None$"),
    (("nodes", 1, "droop"), "0.3", r"^nodes\[1\]: 'droop' must be a number, got '0.3'$"),
    (("nodes", 0, "cost"), True, r"^nodes\[0\]: 'cost' must be a number, got True$"),
    (("nodes", 0, "p"), [1.0], r"^nodes\[0\]: 'p' must be a number"),
    (("lines", 0, "b"), "1.5", r"^lines\[0\]: 'b' must be a number, got '1.5'$"),
    (("lines", 0), {"i": 2, "j": 7, "reactance": None},
     r"^lines\[0\]: 'reactance' must be a number, got None$"),
    (("comm_failures",), [{"link": [2, 7], "time": "soon"}],
     r"^comm_failures\[0\]: 'time' must be a number, got 'soon'$"),
    (("disturbances", 0, "time"), "1", r"^disturbances\[0\]: 'time' must be a number"),
    (("disturbances", 0, "delta_p"), None, r"^disturbances\[0\]: 'delta_p' must be a number"),
    (("message_interval",), "0.01", r"^scenario: 'message_interval' must be a number"),
    (("message_interval",), False, r"^scenario: 'message_interval' must be a number"),
    (("horizon",), None, r"^scenario: 'horizon' must be a number, got None$"),
    (("dt",), "1e-3", r"^scenario: 'dt' must be a number, got '1e-3'$"),
    (("horizon",), 10 ** 400, r"^scenario: 'horizon' is out of range"),
])
def test_malformed_documents_are_format_errors(toy, path, value, message):
    """A document or entry that is not an object, a section that is not a
    list and a number field holding anything but an integer or a float
    (a numeric string included) each raise ScenarioFormatError naming the
    key, not a TypeError or AttributeError from deep in the reader."""
    doc = value if path == () else scenario_to_dict(toy)
    if path:
        _set(path, value)(doc)
    with pytest.raises(ScenarioFormatError, match=message):
        scenario_from_dict(doc)


def test_number_fields_take_integers_and_continuous_messaging(toy):
    """An integer reads as its float wherever a number is expected, and
    message_interval may be "continuous" or null."""
    doc = scenario_to_dict(toy)
    doc["nodes"][0]["p"], doc["horizon"], doc["disturbances"][0]["delta_p"] = 1, 200, -5
    for T in ("continuous", None):
        scn = scenario_from_dict(dict(doc, message_interval=T))
        assert scn == toy and scn.comm.message_interval is CONTINUOUS
    assert type(scn.horizon) is float and scn.horizon == 200.0
    assert scenario_from_dict(dict(doc, message_interval=1)).comm.message_interval == 1.0


def _toy_with(toy, **change):
    """toy with its nodes, lines or comm links replaced, or a scenario field
    or its first disturbance (node, time) changed."""
    grid, comm = toy.grid, toy.comm
    if "nodes" in change or "lines" in change:
        grid = PowerGrid(change.pop("nodes", grid.nodes), change.pop("lines", grid.lines))
    if "links" in change:
        comm = CommGraph(links=change.pop("links"), failed=comm.failed,
                         message_interval=comm.message_interval)
    if "failed" in change:
        comm = dataclasses.replace(comm, failed=change.pop("failed"))
    if "disturbance" in change:
        change["disturbances"] = (dataclasses.replace(toy.disturbances[0],
                                                      **change.pop("disturbance")),)
    return dataclasses.replace(toy, grid=grid, comm=comm, **change)


def _unshared(toy):
    """The first node pair of the toy grid that is not a power line."""
    return next((a, b) for a in range(10) for b in range(a + 1, 10)
                if (a, b) not in toy.grid.edge_set())


@pytest.mark.parametrize("case, message", [
    (lambda t: _toy_with(t, nodes=()), "grid has no nodes"),
    (lambda t: _toy_with(t, nodes=(t.grid.nodes[0], dataclasses.replace(t.grid.nodes[1], id=5))
                         + t.grid.nodes[2:]),
     "node at position 1 has id 5, expected 2"),
    (lambda t: _toy_with(t, lines=t.grid.lines + (Line(0, 10, 1.0),)),
     "line (1,11): endpoint out of range"),
    (lambda t: _toy_with(t, lines=t.grid.lines + (Line(1, 1, 1.0),)), "line (2,2): self-loop"),
    (lambda t: _toy_with(t, lines=t.grid.lines + (Line(6, 1, 1.0),)),
     "line (7,2): endpoints must satisfy i < j"),
    (lambda t: _toy_with(t, lines=t.grid.lines + t.grid.lines[:1]),
     "line (2,7): duplicate line"),
    (lambda t: _toy_with(t, links=t.comm.links + ((0, 10),)),
     "comm link (1,11): endpoint out of range"),
    (lambda t: _toy_with(t, links=t.comm.links + ((3, 3),)), "comm link (4,4): self-loop"),
    (lambda t: _toy_with(t, links=t.comm.links + ((6, 1),)),
     "comm link (7,2): endpoints must satisfy i < j"),
    (lambda t: _toy_with(t, links=t.comm.links + ((1, 6),)), "comm link (2,7): duplicate link"),
    (lambda t: _toy_with(t, failed=(((1, 6), -1.0),)),
     "comm failure on (2,7) has negative time -1.0"),
    (lambda t: _toy_with(t, disturbance={"node": 10}),
     "disturbance at t=1.0 references unknown node 11"),
    (lambda t: _toy_with(t, disturbance={"time": -2.0}),
     "disturbance at node 3 has negative time -2.0"),
    (lambda t: _toy_with(t, horizon=1e-4), "horizon 0.0001 is shorter than dt 0.001"),
    (lambda t: _toy_with(t, record_stride=0), "record_stride must be >= 1, got 0"),
    (lambda t: _toy_with(t, scheme="ROUND_ROBIN"), "unknown scheme 'ROUND_ROBIN'"),
    (lambda t: _toy_with(with_overrides(t, message_interval=0.01), scheme="SEQUENTIAL",
                         links=(_unshared(t),)),
     "SEQUENTIAL requires at least one edge shared by the power and communication graphs"),
])
def test_validate_names_each_violation(toy, case, message):
    """Each structural check of validate() reports its own message."""
    assert message in validate(case(toy))


def test_schedule_refuses_an_invalid_scenario(toy):
    with pytest.raises(ScenarioError, match="record_stride must be >= 1, got 0"):
        schedule(dataclasses.replace(toy, record_stride=0))


def test_invalid_json_is_a_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [')
    with pytest.raises(ScenarioFormatError, match=r"bad\.json: invalid JSON"):
        load_scenario(path)
