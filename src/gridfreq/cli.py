"""Command-line front end: scenario simulation, dispatch, stability reports
and bundled experiment reproduction.

Exit codes: 0 success (simulate: converged), 2 simulate finished without
convergence, 1 bad input or validation failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import experiments
from .dispatch import optimal_dispatch
from .model import (CONTINUOUS, HOLD_SCHEMES, SCHEMES, load_scenario,
                    post_disturbance_power, save_scenario, toy_grid, validate, with_overrides)
from .simulator import (ScenarioError, run_scenario, schedule, state_labels,
                        write_trajectory_csv)
from .stability import (assemble_state_matrix, characteristic_identity_check,
                        check_sufficient_multi_node, check_sufficient_two_node,
                        failed_pair_last, interval_map_spectrum, spectrum)


def _load(args) -> Optional[object]:
    if args.scenario == "toy":
        scn = toy_grid()
    else:
        try:
            scn = load_scenario(args.scenario)
        except FileNotFoundError:
            print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
            return None
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
    T = "unset"
    if getattr(args, "T", None) is not None:
        try:
            T = CONTINUOUS if args.T == "continuous" else float(args.T)
        except ValueError:
            print(f"error: --T must be a number of seconds or 'continuous', got {args.T!r}",
                  file=sys.stderr)
            return None
    scn = with_overrides(scn, scheme=getattr(args, "scheme", None),
                         horizon=getattr(args, "horizon", None),
                         dt=getattr(args, "dt", None), message_interval=T,
                         record_stride=getattr(args, "record_stride", None))
    problems = validate(scn)
    if problems:
        for p in problems:
            print(f"invalid scenario: {p}", file=sys.stderr)
        return None
    return scn


def cmd_simulate(args) -> int:
    scn = _load(args)
    if scn is None:
        return 1
    try:
        if args.emit_scenario:
            save_scenario(scn, args.emit_scenario)
        traj, summary = run_scenario(scn)
        warnings = [{"t": t, "kind": kind, "detail": detail} for t, kind, detail in traj.events
                    if kind in ("warning", "fallback_consensus")]
        for w in warnings:
            print(f"{w['kind']} at t={w['t']:g}: {w['detail']}", file=sys.stderr)
        csv_path = args.out + ".csv"
        json_path = args.out + ".summary.json"
        write_trajectory_csv(traj, csv_path)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({**summary.to_dict(), "warnings": warnings,
                       "diagnostics": traj.diagnostics}, fh, indent=2)
            fh.write("\n")
    except (ScenarioError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"trajectory: {csv_path}")
    print(f"summary:    {json_path}")
    print(f"steady cost {summary.steady_cost_paper:.6g}, "
          f"t* {summary.t_star if summary.t_star is not None else 'not converged'}")
    return 0 if summary.t_star is not None else 2


def cmd_optimal(args) -> int:
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
    out = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def _interval_map_report(scn, piece) -> dict:
    """Report of a hold scheme: its closed loop is the exact map of one
    message interval (one rotation cycle under SEQUENTIAL), not x' = A x."""
    rep = interval_map_spectrum(scn.grid, piece.comm, scn.scheme, scn.dt,
                                scn.comm.message_interval)
    return {
        "scheme": scn.scheme,
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
        "sufficient": None,
        "identity": None,
    }

    grid = scn.grid
    M = np.diag(grid.inertia())
    D = np.diag(grid.droop())
    C = np.diag(grid.cost())
    if ctx.scheme == "PAIR_FLOW" and grid.n_nodes == 2:
        L_c = np.array([[1.0, -1.0], [-1.0, 1.0]])
        doc["sufficient"] = check_sufficient_two_node(
            M, D, C, grid.lines[0].b, L_c)
    elif ctx.scheme == "HYBRID_SINGLE" and len(ctx.F) == 2:
        P, Lstar = failed_pair_last(grid, comm, tuple(sorted(ctx.F)))
        doc["sufficient"] = check_sufficient_multi_node(
            P @ M @ P.T, P @ D @ P.T, P @ C @ P.T, Lstar,
            P @ grid.weighted_laplacian() @ P.T)

    if ctx.scheme in ("PAIR_FLOW", "HYBRID_SINGLE"):
        rng = np.random.default_rng(args.seed)
        pts = rng.uniform(0.5, 5.0, args.samples) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, args.samples))
        idr = characteristic_identity_check(grid, comm, ctx, pts, eigenvalues=rep.eigenvalues)
        doc["identity"] = {
            "max_residual": idr.max_residual,
            "sign": [idr.sign.real, idr.sign.imag],
            "consistent": idr.consistent,
            "n_samples": args.samples,
        }
    return doc


def cmd_stability(args) -> int:
    """Report on the law in force at the horizon: the last piece of the
    scenario's schedule, with the links live there. The schedule's warnings
    and fallbacks to averaging go to stderr, as simulate prints them."""
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 1
    scn = _load(args)
    if scn is None:
        return 1
    try:
        plan = schedule(scn)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w in plan.warnings:
        print(f"warning at t=0: {w}", file=sys.stderr)
    for piece in plan.pieces:
        for kind, detail in piece.events:
            if kind == "fallback_consensus":
                print(f"{kind} at t={piece.start * scn.dt:g}: {detail}", file=sys.stderr)
    piece = plan.pieces[-1]
    if scn.scheme in HOLD_SCHEMES:
        doc = _interval_map_report(scn, piece)
    else:
        doc = _state_matrix_report(scn, piece, args)
    out = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def cmd_repro(args) -> int:
    rows = experiments.EXPERIMENTS[args.experiment]()
    fields = list(rows[0].keys())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            w.writerows(rows)
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
