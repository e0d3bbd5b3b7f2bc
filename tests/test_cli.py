import json
import math

import numpy as np
import pytest

from conftest import random_grid, reference_csv
from gridfreq import cli, stability
from gridfreq.model import (CommGraph, DisturbanceEvent, Line, NodeParams, PowerGrid, Scenario,
                            load_scenario, save_scenario, scenario_to_dict, toy_grid,
                            with_overrides)
from gridfreq.simulator import _CSV_CELLS, integrate


def test_simulate_toy_converges(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["simulate", "toy", "--out", str(out), "--horizon", "150"])
    assert code == 0
    assert (tmp_path / "run.csv").exists()
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["converged"] is True
    assert summary["steady_cost_paper"] == pytest.approx(23.278, abs=0.05)
    assert summary["t_star"] is not None


def test_simulate_summary_carries_run_diagnostics(tmp_path):
    """summary.json holds the run's map and kernel-call counts under
    "diagnostics": a toy SEQUENTIAL run at T = 10 ms builds one rotation
    base and its ten pairs' one-step maps. Its state sizes show what the
    split of the toy's one cycle flow saves: 40 states, of which each
    step map propagates the 10 omega, 9 grounded angles, 10 u and the
    pair's 2 q, while the interval and cycle maps act on all 40."""
    out = tmp_path / "run"
    cli.main(["simulate", "toy", "--out", str(out), "--scheme", "SEQUENTIAL", "--T", "0.01",
              "--horizon", "1"])
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["diagnostics"]["maps"] == {"base": 1, "stretch": 10, "intervals": 10,
                                              "cycles": 1}
    assert sum(summary["diagnostics"]["kernel_calls"].values()) > 0
    assert summary["diagnostics"]["state_size"] == {"full": 40, "stretch": 31,
                                                    "intervals": 40, "cycles": 40}


def test_simulate_random_grid_writes_the_per_value_csv(tmp_path):
    """A seeded N = 30 grid at record stride 1 writes, byte for byte, the CSV
    of one f"{v:.9g}" per value: rows of 130 values, three times the toy
    grid's, in blocks of which the last is shorter than the others."""
    grid = random_grid(4, 30)
    scn = Scenario(grid=grid, comm=CommGraph(links=tuple((ln.i, ln.j) for ln in grid.lines)),
                   disturbances=(DisturbanceEvent(0.1, 4, -2.0),), horizon=0.6)
    path = tmp_path / "n30.json"
    save_scenario(scn, path)
    out = tmp_path / "run"
    assert cli.main(["simulate", str(path), "--record-stride", "1", "--out", str(out)]) in (0, 2)
    traj = integrate(with_overrides(load_scenario(path), record_stride=1))
    cols = 3 * 30 + traj.flow.shape[1] + 2
    block_rows = _CSV_CELLS // cols
    assert len(traj) > 2 * block_rows and len(traj) % block_rows != 0
    assert (tmp_path / "run.csv").read_bytes() == reference_csv(traj)


def test_simulate_too_short_horizon_exits_2(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["simulate", "toy", "--out", str(out), "--horizon", "0.001"])
    assert code == 2


def test_simulate_missing_file_exits_1(tmp_path, capsys):
    code = cli.main(["simulate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("text, needle", [
    ('{"nodes": [{"inertia": 1.0}]}', "nodes[0]: missing required key 'droop'"),
    ("null", "scenario: must be an object, got None"),
    ('{"nodes": [1], "lines": [], "comm_links": []}', "nodes[0]: must be an object, got 1"),
])
def test_malformed_scenario_exits_1(tmp_path, capsys, text, needle):
    """A scenario file of the wrong format or shape is one error line and
    exit 1, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = cli.main(["simulate", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {needle}\n"


@pytest.mark.parametrize("command", ["simulate", "optimal", "stability"])
@pytest.mark.parametrize("case", ["nested", "invalid"])
def test_bad_scenario_file_exits_1_in_every_command(tmp_path, capsys, command, case):
    """A file of 100 000 nested '[' (past the JSON decoder's recursion
    limit) and a scenario with a zero inertia each end every command that
    reads a scenario in one error line and exit 1, with nothing written."""
    bad = tmp_path / "bad.json"
    if case == "nested":
        bad.write_text("[" * 100_000)
        line = (f"error: {bad}: invalid JSON (maximum recursion depth exceeded while "
                "decoding a JSON array from a unicode string)\n")
    else:
        doc = scenario_to_dict(toy_grid())
        doc["nodes"][2]["inertia"] = 0.0
        bad.write_text(json.dumps(doc))
        line = "invalid scenario: node 3: inertia must be finite and > 0, got 0.0\n"
    assert cli.main([command, str(bad), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr() == ("", line)
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_invalid_scenario_reports_violations(tmp_path, capsys):
    doc = scenario_to_dict(toy_grid())
    doc["nodes"][2]["inertia"] = 0.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "node 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["--T", "inf"], "invalid scenario: message_interval must be finite"),
    (["--horizon", "inf"], "invalid scenario: horizon must be finite"),
    (["--horizon", "nan"], "invalid scenario: horizon must be finite"),
    (["--T", "1e-300"], "invalid scenario: message_interval 1e-300 is shorter than dt"),
    (["--T", "abc"], "error: --T must be a number"),
])
def test_simulate_rejects_non_finite_and_bad_options(tmp_path, capsys, argv, needle):
    code = cli.main(["simulate", "toy", "--out", str(tmp_path / "run")] + argv)
    assert code == 1
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("edit, needle", [
    (lambda doc: doc.update(horizon=math.inf), "horizon must be finite"),
    (lambda doc: doc.update(message_interval=math.nan), "message_interval must be finite"),
    (lambda doc: doc["disturbances"][0].update(time=math.inf), "non-finite time"),
    (lambda doc: doc.update(comm_failures=[{"link": [2, 7], "time": math.nan}]),
     "non-finite time"),
    (lambda doc: doc["nodes"][2].update(inertia=math.inf),
     "invalid scenario: node 3: inertia must be finite"),
    (lambda doc: doc["nodes"][2].update(droop=math.nan),
     "invalid scenario: node 3: droop must be finite"),
    (lambda doc: doc["nodes"][2].update(cost=math.inf),
     "invalid scenario: node 3: cost must be finite"),
    (lambda doc: doc["nodes"][2].update(p=math.nan),
     "invalid scenario: node 3: fixed power p must be finite"),
    (lambda doc: doc["lines"][0].update(b=math.inf),
     "invalid scenario: line (2,7): susceptance must be finite"),
    (lambda doc: doc["disturbances"][0].update(delta_p=math.nan),
     "invalid scenario: disturbance at node 3 has non-finite delta_p"),
], ids=["horizon", "message_interval", "disturbance_time", "failure_time", "inertia",
        "droop", "cost", "p", "b", "delta_p"])
def test_scenario_file_with_non_finite_values_reports_violations(tmp_path, capsys, edit,
                                                                  needle):
    """json writes these as Infinity and NaN and reads them back as floats."""
    doc = scenario_to_dict(toy_grid())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text() or "NaN" in path.read_text()
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert needle in capsys.readouterr().err


def test_scenario_file_with_zero_reactance_exits_1(tmp_path, capsys):
    doc = scenario_to_dict(toy_grid())
    doc["lines"][0] = {"i": 1, "j": 2, "reactance": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "error: lines[0]: reactance must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_scenario_file_with_fractional_link_endpoint_exits_1(tmp_path, capsys):
    """A comm link [1.5, 2] is a format error: exit 1 with the key named, no
    run and no output (it used to pass validation and die in the run)."""
    doc = scenario_to_dict(toy_grid())
    doc["comm_links"][0] = [1.5, 2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "error: comm_links[0]: link endpoint must be an integer, got 1.5" in \
        capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_unwritable_output_exits_1(tmp_path, capsys):
    code = cli.main(["simulate", "toy", "--horizon", "0.5",
                     "--out", str(tmp_path / "missing_dir" / "run")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_unwritable_summary_exits_1(tmp_path, capsys):
    """A summary path that cannot be written, after the CSV was, is one
    error line naming it and exit 1, with nothing on stdout."""
    (tmp_path / "run.summary.json").mkdir()
    code = cli.main(["simulate", "toy", "--horizon", "1.5", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "run.summary.json" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, records", [
    (["--horizon", "1e30"], int(round(1e30 / 1e-3)) // 100 + 2),
    (["--horizon", "1e12", "--record-stride", "1"], 10 ** 15 + 2),
], ids=["dimension", "memory"])
def test_simulate_records_past_any_address_space_exit_1(tmp_path, capsys, argv, records):
    """A run whose record buffers no address space can hold (NumPy's
    maximum dimension, or petabytes) is one error line naming the record
    count and exit 1, with no file written and nothing allocated."""
    code = cli.main(["simulate", "toy", "--out", str(tmp_path / "run")] + argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot hold the run's {records} records of 40 states; "
                            "shorten the horizon or raise the record stride\n")
    assert captured.out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, edit, line", [
    ("simulate", None, "horizon 1e+308"),
    ("stability", None, "horizon 1e+308"),
    ("simulate", lambda doc: doc["disturbances"][0].update(time=1e308),
     "disturbance at node 3 time 1e+308"),
    ("simulate", lambda doc: doc.update(comm_failures=[{"link": [2, 7], "time": 1e308}]),
     "comm failure on (2,7) time 1e+308"),
    ("simulate", lambda doc: doc.update(scheme="CONSENSUS_SAMPLED", message_interval=1e306),
     "message_interval 1e+306"),
    ("stability", lambda doc: doc.update(scheme="CONSENSUS_SAMPLED", message_interval=1e306),
     "message_interval 1e+306"),
], ids=["simulate_horizon", "stability_horizon", "disturbance", "failure",
        "simulate_interval", "stability_interval"])
def test_time_whose_step_count_overflows_exits_1(tmp_path, capsys, command, edit, line):
    """A finite time t whose step count t / dt overflows a float is invalid
    input: one "invalid scenario:" line and exit 1, with nothing written,
    where rounding it onto the dt grid raised an OverflowError. Toy at
    dt = 1 ms: --horizon 1e308, a disturbance or failure at 1e308 s under
    the toy's 200 s horizon, or a CONSENSUS_SAMPLED message interval of
    1e306 s, which was reported as one dt does not divide."""
    argv = [command, "toy", "--horizon", "1e308"]
    if edit is not None:
        doc = scenario_to_dict(toy_grid())
        edit(doc)
        (tmp_path / "in.json").write_text(json.dumps(doc))
        argv = [command, str(tmp_path / "in.json")]
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == ("", f"invalid scenario: {line} is out of range: its step "
                                       "count t / dt overflows at dt 0.001\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["in.json"] if edit else [])


def test_simulate_diverging_run_exits_1(tmp_path, capsys):
    """A step size far past the stability limit drives the state non-finite:
    the error line alone reaches stderr, without the overflow warnings of
    the kernel calls and records that met it, at the default record stride
    and at stride 1. The unstable modes grow from the rounding of the
    initial flows (B f0 - p, about 3e-15 here), so that sets the step."""
    for stride in ([], ["--record-stride", "1"]):
        code = cli.main(["simulate", "toy", "--dt", "0.05", "--horizon", "20",
                         "--out", str(tmp_path / "run")] + stride)
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite state at step 194\n"


@pytest.mark.parametrize("failure_t, horizon, details", [
    (0.0, "1", [f"no value ever received on link {a}->{b}; artificial variable term "
                "initialized to 0" for a, b in ((7, 2), (2, 7))]),
    (0.5, "1.0004", ["horizon t=1.0004 is off the dt grid; rounded to step 1000 (t=1)"]),
    (2.0, "0.5", ["message_interval T=0.01 ignored: HYBRID_SINGLE reads a held value only "
                  "at a link failure, and none falls within the horizon"]
                 + [f"{what} ignored: past the horizon (t=0.5)"
                    for what in ("disturbance at node 3 t=1", "failure of link (2,7) t=2")]),
])
def test_simulate_reports_warnings(tmp_path, capsys, failure_t, horizon, details):
    """A HYBRID_SINGLE run whose failed pair never exchanged a message, a
    horizon off the dt grid, and events past the horizon (which leave the
    message interval unread): the warning reaches summary.json and stderr,
    beside the unchanged summary keys."""
    scn = with_overrides(toy_grid(), scheme="HYBRID_SINGLE", message_interval=0.01,
                         failures=(((1, 6), failure_t),))
    path = tmp_path / "hybrid.json"
    save_scenario(scn, path)
    out = tmp_path / "run"
    code = cli.main(["simulate", str(path), "--horizon", horizon, "--out", str(out)])
    assert code == 2
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert list(summary) == ["steady_u", "steady_cost_paper", "converged", "t_star",
                             "t_star_first_crossing", "max_freq_excursion", "warnings",
                             "diagnostics"]
    assert summary["warnings"] == [{"t": 0.0, "kind": "warning", "detail": d}
                                   for d in details]
    err = capsys.readouterr().err
    assert all(f"warning at t=0: {d}\n" in err for d in details)


CONSENSUS_T_WARNING = ("message_interval T=0.5 ignored: CONSENSUS reads current values; "
                       "CONSENSUS_SAMPLED holds messages between sampling instants")


@pytest.mark.parametrize("scheme, T, warned", [("CONSENSUS", "0.5", True),
                                               ("CONSENSUS_SAMPLED", "0.5", False),
                                               ("CONSENSUS", "continuous", False)])
def test_consensus_message_interval_is_warned(tmp_path, capsys, scheme, T, warned):
    """CONSENSUS reads current values, so a finite --T changes nothing; the
    warning reaches summary.json and stderr, and stability's stderr. The
    hold scheme and continuous CONSENSUS get none."""
    cli.main(["simulate", "toy", "--scheme", scheme, "--T", T, "--horizon", "2",
              "--out", str(tmp_path / "run")])
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["warnings"] == ([{"t": 0.0, "kind": "warning",
                                     "detail": CONSENSUS_T_WARNING}] if warned else [])
    line = f"warning at t=0: {CONSENSUS_T_WARNING}\n"
    assert (line in capsys.readouterr().err) == warned
    assert cli.main(["stability", "toy", "--scheme", scheme, "--T", T,
                     "--out", str(tmp_path / "stab.json")]) == 0
    assert capsys.readouterr().err == (line if warned else "")


def fallback_scenario(tmp_path, scheme):
    """A flow scheme whose failed link (1,3) has no power line."""
    nodes = tuple(NodeParams(k + 1, 0.1, 1.0, (1.0, 2.0, 4.0)[k], (1.0, 0.0, -1.0)[k])
                  for k in range(3))
    scn = Scenario(grid=PowerGrid(nodes, (Line(0, 1, 1.0), Line(1, 2, 1.0))),
                   comm=CommGraph(links=((0, 1), (0, 2), (1, 2)), failed=(((0, 2), 0.5),)),
                   scheme=scheme, horizon=1.0, dt=1e-3, record_stride=100)
    path = tmp_path / "fallback.json"
    save_scenario(scn, path)
    return path


FALLBACK = ("fallback_consensus at t=0.5: failed link (1,3) has no power line; averaging "
            "continues on surviving links\n")


@pytest.mark.parametrize("scheme", ["HYBRID_SINGLE", "MULTI_FAILURE"])
def test_simulate_reports_fallback(tmp_path, capsys, scheme):
    """A failure on a link with no power line makes every flow scheme fall
    back to averaging; the summary and stderr say so, once."""
    path = fallback_scenario(tmp_path, scheme)
    cli.main(["simulate", str(path), "--out", str(tmp_path / "run")])
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert [(w["t"], w["kind"]) for w in summary["warnings"]] == [(0.5, "fallback_consensus")]
    assert capsys.readouterr().err.count(FALLBACK) == 1


@pytest.mark.parametrize("scheme", ["HYBRID_SINGLE", "MULTI_FAILURE"])
def test_stability_reports_fallback(tmp_path, capsys, scheme):
    """The report of the averaging law that the failure falls back to is
    named CONSENSUS, and says on stderr why it is not the flow scheme's
    law, as simulate does."""
    path = fallback_scenario(tmp_path, scheme)
    out = tmp_path / "stab.json"
    assert cli.main(["stability", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scheme"] == "CONSENSUS"
    assert capsys.readouterr().err == FALLBACK


def test_scenario_roundtrip_through_files(tmp_path):
    scn = toy_grid()
    path = tmp_path / "toy.json"
    save_scenario(scn, path)
    again = load_scenario(path)
    assert scenario_to_dict(again) == scenario_to_dict(scn)


def test_emit_scenario_normalizes(tmp_path):
    out = tmp_path / "run"
    emitted = tmp_path / "normalized.json"
    code = cli.main(["simulate", "toy", "--out", str(out), "--horizon", "0.5",
                     "--scheme", "CONSENSUS", "--emit-scenario", str(emitted)])
    assert code in (0, 2)
    again = load_scenario(emitted)
    assert again.horizon == 0.5


def test_optimal_command(tmp_path):
    out = tmp_path / "dispatch.json"
    code = cli.main(["optimal", "toy", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["cost_paper"] == pytest.approx(23.278, abs=0.01)
    weighted = np.array(doc["u_star"]) * toy_grid().grid.cost()
    assert np.allclose(weighted, doc["lambda"])


def test_stability_command_consensus(tmp_path):
    out = tmp_path / "stab.json"
    code = cli.main(["stability", "toy", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["structural_zero_count"] >= 1
    assert doc["spectral_abscissa_excl_zeros"] < 0
    assert len(doc["eigenvalues"]) == doc["state_dim"]
    assert all(len(z) == 2 for z in doc["eigenvalues"])


def test_stability_command_hold_scheme_reports_interval_map(tmp_path):
    """A hold scheme is reported as itself, by its interval map, never as
    the continuous averaging law."""
    out = tmp_path / "stab.json"
    assert cli.main(["stability", "toy", "--scheme", "CONSENSUS_SAMPLED", "--T", "1",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["scheme"] == "CONSENSUS_SAMPLED"
    assert rep["map_period"] == 1.0
    assert rep["rate_per_s"] == pytest.approx(0.0034, abs=5e-5)
    assert rep["spectral_radius_excl_unit"] == pytest.approx(
        math.exp(-rep["rate_per_s"]), rel=1e-12)
    assert "spectral_abscissa_excl_zeros" not in rep
    assert len(rep["eigenvalues"]) == rep["state_dim"] == len(rep["labels"])

    assert cli.main(["stability", "toy", "--scheme", "SEQUENTIAL", "--T", "1",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["scheme"] == "SEQUENTIAL"
    assert rep["map_period"] == pytest.approx(10.0)


# SEQUENTIAL on two nodes whose only shared link fails at t = 1 s
SEQUENTIAL_LINK_LOST = {
    "nodes": [
        {"id": 1, "inertia": 0.05, "droop": 0.8, "cost": 0.1, "p": 1.0},
        {"id": 2, "inertia": 0.1, "droop": 1.2, "cost": 0.2, "p": -1.0},
    ],
    "lines": [{"i": 1, "j": 2, "b": 1.0}],
    "comm_links": [[1, 2]],
    "comm_failures": [{"link": [1, 2], "time": 1.0}],
    "message_interval": 0.01,
    "scheme": "SEQUENTIAL",
}


def test_stability_command_sequential_without_live_shared_link_exits_1(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(SEQUENTIAL_LINK_LOST))
    assert cli.main(["stability", str(path)]) == 1
    assert "SEQUENTIAL" in capsys.readouterr().err


def test_simulate_sequential_without_live_shared_link_exits_1(tmp_path, capsys):
    """The failure leaves the rotation nothing to rotate over: an error
    naming the scheme and the failure time, and no output files."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(SEQUENTIAL_LINK_LOST))
    assert cli.main(["simulate", str(path), "--horizon", "5",
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SEQUENTIAL") and "t=1" in err
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("scheme, T, failures, horizon, key, ran", [
    ("HYBRID_SINGLE", "continuous", [((2, 7), 1000.0)], "200", "scheme", "CONSENSUS"),
    ("MULTI_FAILURE", "continuous", [((1, 2), 0.5), ((2, 5), 1000.0)], "20", "state_dim", 32),
    ("SEQUENTIAL", 1.0, [((2, 7), 1000.0)], "20", "map_period", 10.0),
    ("SEQUENTIAL", 1.0, [((1, 2), 0.5), ((2, 7), 1000.0)], "2", "map_period", 9.0),
])
def test_stability_reports_the_law_simulate_ran(tmp_path, capsys, scheme, T, failures,
                                                horizon, key, ran):
    """A failure past the horizon never happens in the run, so the report,
    which describes the law in force at the horizon, leaves it out too:
    HYBRID_SINGLE still averages, MULTI_FAILURE has F = {1, 2} (omega,
    flows, u and two artificial variables) and SEQUENTIAL rotates over all
    ten shared links, or over the nine still live after (1,2) fails at
    0.5 s."""
    doc = scenario_to_dict(toy_grid())
    doc.update(scheme=scheme, message_interval=T,
               comm_failures=[{"link": list(link), "time": t} for link, t in failures])
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "stab.json"
    assert cli.main(["stability", str(path), "--horizon", horizon, "--out", str(out)]) == 0
    assert json.loads(out.read_text())[key] == ran
    assert "t=1000 ignored: past the horizon" in capsys.readouterr().err


PAIR_DOC = {
    "nodes": [
        {"id": 1, "inertia": 0.05, "droop": 0.8, "cost": 0.1, "p": 1.0},
        {"id": 2, "inertia": 0.1, "droop": 1.2, "cost": 0.2, "p": -1.0},
    ],
    "lines": [{"i": 1, "j": 2, "b": 1.0}],
    "comm_links": [[1, 2]],
    "scheme": "PAIR_FLOW",
    "horizon": 10.0, "dt": 0.001, "record_stride": 10,
}


def test_pair_flow_message_interval_is_warned(tmp_path):
    """On two nodes PAIR_FLOW reads no message, and with no failure within
    the horizon init_artificial reads no held value either: a finite --T
    changes nothing, so it is warned about and the CSV equals the
    continuous run's byte for byte."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR_DOC))
    for T in ("0.5", "continuous"):
        cli.main(["simulate", str(path), "--T", T, "--horizon", "2",
                  "--out", str(tmp_path / f"run_{T}")])
    summary = json.loads((tmp_path / "run_0.5.summary.json").read_text())
    assert summary["warnings"] == [{"t": 0.0, "kind": "warning", "detail":
                                    "message_interval T=0.5 ignored: PAIR_FLOW reads a held "
                                    "value only at a link failure, and none falls within "
                                    "the horizon"}]
    assert json.loads((tmp_path / "run_continuous.summary.json").read_text())["warnings"] == []
    assert ((tmp_path / "run_0.5.csv").read_bytes()
            == (tmp_path / "run_continuous.csv").read_bytes())


def test_message_interval_read_at_a_failure_is_not_warned(tmp_path, capsys):
    """A HYBRID_SINGLE failure within the horizon initializes the artificial
    variables from the held samples, so a finite T matters: no warning."""
    scn = with_overrides(toy_grid(), scheme="HYBRID_SINGLE", message_interval=0.01,
                         failures=(((1, 6), 0.5),))
    path = tmp_path / "hybrid.json"
    save_scenario(scn, path)
    cli.main(["simulate", str(path), "--horizon", "1", "--out", str(tmp_path / "run")])
    assert json.loads((tmp_path / "run.summary.json").read_text())["warnings"] == []
    assert capsys.readouterr().err == ""


def test_stability_report_decomposes_the_state_matrix_once(tmp_path, monkeypatch):
    """A HYBRID_SINGLE report assembles A once and takes its eigenvalues
    once, of A with the toy grid's one cycle flow split off (the state
    matrix's angles block, one state fewer), never of A itself: the
    identity check reads det(A - z I) off that spectrum."""
    assembled = []
    shapes = []
    assemble, eigvals = stability.assemble_state_matrix, np.linalg.eigvals

    def counted_assemble(*args, **kwargs):
        assembled.append(1)
        return assemble(*args, **kwargs)

    def counted_eigvals(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(stability, "assemble_state_matrix", counted_assemble)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    scn = with_overrides(toy_grid(), scheme="HYBRID_SINGLE", failures=(((1, 6), 0.5),))
    path = tmp_path / "hybrid.json"
    save_scenario(scn, path)
    out = tmp_path / "stab.json"
    assert cli.main(["stability", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["identity"] is not None
    assert len(assembled) == 1
    dim = doc["state_dim"]
    assert shapes.count((dim - 1, dim - 1)) == 1 and (dim, dim) not in shapes


def test_flow_laws_report_one_schema(tmp_path):
    """Both flow laws get the single-failure certificate: the stability
    report of PAIR_FLOW on two nodes and of HYBRID_SINGLE after its
    failure on the toy grid carry the same sufficient-condition keys."""
    hybrid = with_overrides(toy_grid(), scheme="HYBRID_SINGLE", failures=(((1, 6), 0.5),))
    keys = []
    for name, doc in (("pair", PAIR_DOC), ("hybrid", scenario_to_dict(hybrid))):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}_stab.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["stability", str(path), "--out", str(out)]) == 0
        keys.append(list(json.loads(out.read_text())["sufficient"]))
    assert keys[0] == keys[1] == ["inertia_positive", "inertia_cross_term",
                                  "damping_cross_term", "coupling_margin",
                                  "coupling_margin_raw"]


def test_multi_failure_after_one_power_line_gets_the_certificate(tmp_path, capsys):
    """After one power-line failure MULTI_FAILURE runs the single-failure
    law, so its report on the toy grid with (2,7) failing at 0.5 s is
    HYBRID_SINGLE's, sufficient conditions and identity check included;
    only the scheme's name differs."""
    docs = {}
    for scheme in ("HYBRID_SINGLE", "MULTI_FAILURE"):
        path, out = tmp_path / f"{scheme}.json", tmp_path / f"{scheme}_stab.json"
        save_scenario(with_overrides(toy_grid(), scheme=scheme, failures=(((1, 6), 0.5),)),
                      path)
        assert cli.main(["stability", str(path), "--out", str(out)]) == 0
        docs[scheme] = json.loads(out.read_text())
    assert capsys.readouterr().err == ""
    hybrid, multi = docs["HYBRID_SINGLE"], docs["MULTI_FAILURE"]
    assert multi["sufficient"] is not None and multi["identity"]["n_samples"] == 10
    assert (hybrid.pop("scheme"), multi.pop("scheme")) == ("HYBRID_SINGLE", "MULTI_FAILURE")
    assert multi == hybrid


def test_stability_command_two_node(tmp_path):
    scn_path = tmp_path / "pair.json"
    scn_path.write_text(json.dumps(PAIR_DOC))
    out = tmp_path / "stab.json"
    code = cli.main(["stability", str(scn_path), "--out", str(out), "--samples", "6"])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["sufficient"] is not None
    assert rep["identity"]["consistent"] is True
    assert rep["identity"]["max_residual"] <= 1e-8


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_stability_rejects_no_samples(tmp_path, capsys, samples):
    """The identity check needs a sample point: --samples below 1 is bad
    input, an error line and exit code 1, not a traceback."""
    scn_path = tmp_path / "pair.json"
    scn_path.write_text(json.dumps(PAIR_DOC))
    out = tmp_path / "stab.json"
    assert cli.main(["stability", str(scn_path), "--out", str(out), "--samples", samples]) == 1
    assert capsys.readouterr().err == f"error: --samples must be at least 1, got {samples}\n"
    assert not out.exists()


def test_stability_command_multi_failure(tmp_path):
    scn = toy_grid()
    doc = scenario_to_dict(scn)
    doc["scheme"] = "MULTI_FAILURE"
    doc["comm_failures"] = [{"link": [1, 2], "time": 0.5},
                            {"link": [2, 5], "time": 0.5}]
    path = tmp_path / "multi.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "stab.json"
    assert cli.main(["stability", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    # omega + flows + u + one artificial variable per node in F
    assert rep["state_dim"] == 10 + 10 + 10 + 3
    assert rep["spectral_abscissa_excl_zeros"] < 0


def test_repro_writes_csv(tmp_path, monkeypatch):
    rows = [{"experiment": "fake", "scheme": "CONSENSUS",
             "steady_cost_paper": 1.0, "t_star": 2.0,
             "reference_cost": 1.0, "status": "target"}]
    monkeypatch.setitem(cli.experiments.EXPERIMENTS, "failure_costs", lambda: rows)
    out = tmp_path / "table.csv"
    code = cli.main(["repro", "failure_costs", "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    assert b"\r" not in data      # LF line ends, as the trajectory CSV
    lines = data.decode().strip().split("\n")
    assert lines[0] == "experiment,scheme,steady_cost_paper,t_star,reference_cost,status"
    assert lines[1].startswith("fake,CONSENSUS,1.0,2.0,")


@pytest.mark.parametrize("argv", [["optimal", "toy"], ["stability", "toy"],
                                  ["repro", "failure_costs"]])
def test_unwritable_out_exits_1(tmp_path, capsys, monkeypatch, argv):
    """optimal, stability and repro report an --out they cannot write as
    one error line and exit 1, as simulate does."""
    rows = [{"experiment": "fake", "status": "target"}]
    monkeypatch.setitem(cli.experiments.EXPERIMENTS, "failure_costs", lambda: rows)
    out = tmp_path / "missing_dir" / "x.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err and captured.out == ""


def test_successive_calls_share_one_parser(tmp_path, capsys):
    """main() builds its parser once. Successive calls with other
    subcommands, options and --out paths see only their own arguments: an
    --out, --scheme or --T given to one call does not reach the next."""
    assert cli._parser() is cli._parser()
    assert cli.main(["simulate", "toy", "--horizon", "1", "--record-stride", "100",
                     "--out", str(tmp_path / "run")]) in (0, 2)
    assert (tmp_path / "run.csv").exists()
    capsys.readouterr()
    assert cli.main(["optimal", "toy"]) == 0
    assert "cost_paper" in json.loads(capsys.readouterr().out)
    assert cli.main(["stability", "toy", "--scheme", "CONSENSUS_SAMPLED", "--T", "0.5",
                     "--out", str(tmp_path / "a.json")]) == 0
    assert cli.main(["stability", "toy", "--out", str(tmp_path / "b.json")]) == 0
    a, b = (json.loads((tmp_path / f).read_text()) for f in ("a.json", "b.json"))
    assert (a["scheme"], a["message_interval"]) == ("CONSENSUS_SAMPLED", 0.5)
    assert b["scheme"] == "CONSENSUS" and "message_interval" not in b
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.json", "b.json", "run.csv", "run.summary.json"]
