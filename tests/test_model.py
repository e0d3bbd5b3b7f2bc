import dataclasses
import json

import numpy as np
import pytest

from gridfreq.model import (CONTINUOUS, CommGraph, DisturbanceEvent, Line,
                            NodeParams, PowerGrid, Scenario,
                            ScenarioFormatError, scenario_from_dict,
                            scenario_to_dict, toy_grid, validate,
                            with_overrides)


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


def test_live_links_respects_failure_times(toy):
    comm = CommGraph(links=toy.comm.links, failed=(((1, 6), 2.0),))
    assert (1, 6) in comm.live_links(1.99)
    assert (1, 6) not in comm.live_links(2.0)
    assert len(comm.live_links(5.0)) == 9


def test_laplacian_sizes_from_the_links_it_is_given():
    comm = CommGraph(links=((0, 1),))
    L = comm.laplacian([(0, 1), (1, 2)])
    assert L.shape == (3, 3)
    assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert comm.laplacian().shape == (2, 2)
