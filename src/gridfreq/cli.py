"""Command-line front end: scenario simulation, dispatch, stability reports
and bundled experiment reproduction.

Exit codes: 0 success (simulate: converged), 2 simulate finished without
convergence, 1 bad input or validation failure.

Each command imports the modules it calls when it runs: optimal imports
dispatch, simulate imports simulator, stability imports simulator and
stability, and repro's sweeps import simulator when they run. Building the
parser and loading a scenario import model and experiments alone.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import List, Optional

import numpy as np

from . import experiments
from .model import (CONTINUOUS, SCHEMES, load_scenario, post_disturbance_power, save_scenario,
                    toy_grid, validate, with_overrides)


def _error(message) -> int:
    """Print message as one error line on stderr; returns exit code 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load(args) -> Optional[object]:
    """The scenario of args (the bundled toy grid or a file) with the
    command-line overrides applied, or None when it cannot be read or is
    invalid, each reason printed to stderr."""
    try:
        scn = toy_grid() if args.scenario == "toy" else load_scenario(args.scenario)
    except FileNotFoundError:
        _error(f"scenario file not found: {args.scenario}")
        return None
    except (ValueError, OSError) as exc:
        _error(exc)
        return None
    T = "unset"
    if args.T is not None:
        try:
            T = CONTINUOUS if args.T == "continuous" else float(args.T)
        except ValueError:
            _error(f"--T must be a number of seconds or 'continuous', got {args.T!r}")
            return None
    scn = with_overrides(scn, scheme=args.scheme, horizon=args.horizon, dt=args.dt,
                         message_interval=T, record_stride=args.record_stride)
    problems = validate(scn)
    if problems:
        for p in problems:
            print(f"invalid scenario: {p}", file=sys.stderr)
        return None
    return scn


def _warn(events) -> List[dict]:
    """The warnings and fallbacks to averaging among the (t, kind, detail)
    events, each printed to stderr as one line and returned as a dict."""
    warnings = [{"t": t, "kind": kind, "detail": detail} for t, kind, detail in events
                if kind in ("warning", "fallback_consensus")]
    for w in warnings:
        print(f"{w['kind']} at t={w['t']:g}: {w['detail']}", file=sys.stderr)
    return warnings


def cmd_simulate(args) -> int:
    from .simulator import ScenarioError, run_scenario, write_trajectory_csv

    scn = _load(args)
    if scn is None:
        return 1
    csv_path = args.out + ".csv"
    json_path = args.out + ".summary.json"
    try:
        if args.emit_scenario:
            save_scenario(scn, args.emit_scenario)
        traj, summary = run_scenario(scn)
        warnings = _warn(traj.events)
        write_trajectory_csv(traj, csv_path)
    except (ScenarioError, RuntimeError, OSError) as exc:
        return _error(exc)
    if _write_json({**summary.to_dict(), "warnings": warnings,
                    "diagnostics": traj.diagnostics}, json_path):
        return 1
    print(f"trajectory: {csv_path}")
    print(f"summary:    {json_path}")
    print(f"steady cost {summary.steady_cost_paper:.6g}, "
          f"t* {summary.t_star if summary.t_star is not None else 'not converged'}")
    return 0 if summary.t_star is not None else 2


def _write_json(doc: dict, path: Optional[str]) -> int:
    """Write doc as indented JSON to path, or to stdout when path is not
    given. Returns the exit code: 0, or 1 with an error line when path
    cannot be written."""
    text = json.dumps(doc, indent=2)
    if not path:
        print(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _error(exc)
    return 0


def cmd_optimal(args) -> int:
    from .dispatch import optimal_dispatch

    scn = _load(args)
    if scn is None:
        return 1
    p_star = post_disturbance_power(scn)
    res = optimal_dispatch(scn.grid, p_star)
    doc = {
        "p_star": [float(v) for v in p_star],
        "u_star": [float(v) for v in res.u_star],
        "lambda": res.lam,
        "cost_paper": res.cost_paper,
        "cost_quadratic": res.cost_quadratic,
    }
    return _write_json(doc, args.out)


def _interval_map_report(scn, piece) -> dict:
    """Report of a law that holds messages: its closed loop is the exact map
    of one cycle of the piece's contexts (one message interval, or one
    SEQUENTIAL rotation), not x' = A x."""
    from .simulator import state_labels
    from .stability import interval_map_spectrum

    rep = interval_map_spectrum(scn.grid, piece.comm, piece.contexts, scn.dt,
                                scn.comm.message_interval)
    return {
        "scheme": piece.contexts[0].scheme,
        "message_interval": scn.comm.message_interval,
        "map_period": rep.period,
        "state_dim": int(rep.eigenvalues.shape[0]),
        "labels": list(state_labels(scn.grid)),
        "eigenvalues": [[float(z.real), float(z.imag)] for z in rep.eigenvalues],
        "unit_eigenvalue_count": rep.unit_eigenvalue_count,
        "spectral_radius_excl_unit": rep.spectral_radius_excl_unit,
        "rate_per_s": rep.rate,
        "sufficient": None,
        "identity": None,
    }


def _state_matrix_report(scn, piece, args) -> dict:
    from .stability import (assemble_state_matrix, characteristic_identity_check, spectrum,
                            sufficient_conditions)

    ctx, comm = piece.contexts[0], piece.comm
    sm = assemble_state_matrix(scn.grid, comm, ctx)
    rep = spectrum(sm)

    doc = {
        "scheme": ctx.scheme,
        "state_dim": int(sm.A.shape[0]),
        "labels": list(sm.labels),
        "eigenvalues": [[float(z.real), float(z.imag)] for z in rep.eigenvalues],
        "structural_zero_count": rep.structural_zero_count,
        "spectral_abscissa_excl_zeros": rep.spectral_abscissa_excl_zeros,
        "sufficient": sufficient_conditions(scn.grid, comm, ctx),
        "identity": None,
    }
    if doc["sufficient"] is not None:   # a flow law: check its factorization too
        rng = np.random.default_rng(args.seed)
        pts = rng.uniform(0.5, 5.0, args.samples) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, args.samples))
        idr = characteristic_identity_check(scn.grid, comm, ctx, pts,
                                            eigenvalues=rep.eigenvalues)
        doc["identity"] = {
            "max_residual": idr.max_residual,
            "sign": [idr.sign.real, idr.sign.imag],
            "consistent": idr.consistent,
            "n_samples": args.samples,
        }
    return doc


def cmd_stability(args) -> int:
    """Report on the law in force at the horizon: the contexts of the last
    piece of the scenario's schedule, with the links live there. The
    warnings and fallbacks to averaging among the pieces' events go to
    stderr, as simulate prints them."""
    from .simulator import ScenarioError, schedule

    if args.samples < 1:
        return _error(f"--samples must be at least 1, got {args.samples}")
    scn = _load(args)
    if scn is None:
        return 1
    try:
        plan = schedule(scn)
    except ScenarioError as exc:
        return _error(exc)
    _warn([(piece.start * scn.dt, kind, detail)
           for piece in plan.pieces for kind, detail in piece.events])
    piece = plan.pieces[-1]
    if piece.contexts[0].hold:
        doc = _interval_map_report(scn, piece)
    else:
        doc = _state_matrix_report(scn, piece, args)
    return _write_json(doc, args.out)


def cmd_repro(args) -> int:
    rows = experiments.EXPERIMENTS[args.experiment]()
    fields = list(rows[0].keys())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
                w.writeheader()
                w.writerows(rows)
        except OSError as exc:
            return _error(exc)
        print(f"wrote {args.out}")
    for row in rows:
        print("  ".join(f"{k}={row[k]}" for k in fields))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(prog="gridfreq",
                                 description="Distributed grid frequency control "
                                             "simulator and analysis toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario",
                       help="scenario JSON file, or 'toy' for the bundled grid")
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--horizon", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--T", help="message interval in seconds, or 'continuous'")
        p.add_argument("--record-stride", dest="record_stride", type=int)

    ps = sub.add_parser("simulate", help="integrate a scenario, write CSV + JSON")
    add_common(ps)
    ps.add_argument("--out", default="trajectory",
                    help="output base path (writes <out>.csv and <out>.summary.json)")
    ps.add_argument("--emit-scenario", help="also write the normalized scenario JSON")
    ps.set_defaults(func=cmd_simulate)

    po = sub.add_parser("optimal", help="closed-form optimal dispatch for the "
                                        "post-disturbance fixed powers")
    add_common(po)
    po.add_argument("--out", help="write JSON here instead of stdout")
    po.set_defaults(func=cmd_optimal)

    pst = sub.add_parser("stability", help="state matrix spectrum, sufficient "
                                           "conditions, factorization check")
    add_common(pst)
    pst.add_argument("--out", help="write JSON here instead of stdout")
    pst.add_argument("--samples", type=int, default=10)
    pst.add_argument("--seed", type=int, default=0)
    pst.set_defaults(func=cmd_stability)

    pr = sub.add_parser("repro", help="run a bundled toy-grid experiment sweep")
    pr.add_argument("experiment", choices=sorted(experiments.EXPERIMENTS))
    pr.add_argument("--out", help="write the comparison table CSV here")
    pr.set_defaults(func=cmd_repro)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
