#!/usr/bin/env python3
"""gridfreq benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload continuous --seed 1 --seconds 30 --trace 0

One process, one thread (BLAS/OpenMP pinned to 1 before numpy loads), one
client: the workload's fixed job list runs back to back against gridfreq's
public API (``run_scenario`` or ``cli.main``), pass after pass, until
``--seconds`` have elapsed; only whole passes count. Every job's output is
checked. Timings are scaled to a reference host speed, measured by a probe
that runs after every job (see ``host_probe`` and ``pass_stats``). Each
metric is printed as ``name value unit``; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones (see ``layertrace.py``) and reports the
per-layer metrics of the fastest traced pass, including ``trace.overhead_s``.
Details of each run (machine facts, per-job times, failures, and for traced
runs the spans of that pass) go to ``perfbench/out/``.

Maintenance modes, not used by a measuring run:

    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-references    # regenerate references.json
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import layertrace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = {
    "continuous": "continuous messaging: segments of 3e3 to 2e4 RK4 steps on the toy grid "
                  "and an N=60 grid leave nearly all the work to kernels.rk4_segment",
    "sampled": "1 ms and 10 ms message intervals: segments of 1 to 10 steps, so event "
               "handling in integrate, derivative and init_artificial takes a large share",
    "cli_reports": "in-process CLI: stride-1 simulate with CSV output, optimal, and "
                   "stability reports on random grids with N up to 100",
}
RUN_SECONDS = 30
SETUP_REPEATS = 15
# A round figure for host_probe()'s mean time on a 2-vCPU Intel Xeon host
# (Python 3.11, NumPy 2.4; 0.017 to 0.025 s there, by contention). It fixes
# the unit of the timing metrics: seconds at the speed that gives this mean.
REFERENCE_PROBE_S = 0.02

# (name, unit, better, bound). Scaling by the probe (see pass_stats) holds
# the run-to-run spread of the timings to 0.01-0.08; the bounds stay at the
# 0.25 maximum because the unscaled speed of the shared host moves by 1.5x.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_speed", "sim_s/s", "higher", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("job_s.tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("kernels.rk4_segment.calls", "count", "lower"),
    ("kernels.rk4_segment.steps", "count", "lower"),
    ("kernels.rk4_segment.s", "s", "lower"),
    ("kernels.rk4_segment.us_per_step", "us", "lower"),
    ("kernels.rk4_segment.steps_per_call", "steps/call", "higher"),
    ("kernels.rk4_segment.flop_computed", "flop", "lower"),
    ("kernels.rk4_segment.bytes_computed", "B", "lower"),
    ("simulator.integrate.calls", "count", "lower"),
    ("simulator.integrate.s", "s", "lower"),
    ("simulator.integrate.self_s", "s", "lower"),
    ("simulator.integrate.records", "count", "lower"),
    ("simulator.derivative.calls", "count", "lower"),
    ("simulator.derivative.self_s", "s", "lower"),
    ("controllers.init_artificial.calls", "count", "lower"),
    ("controllers.init_artificial.s", "s", "lower"),
    ("simulator.assemble_affine.calls", "count", "lower"),
    ("simulator.assemble_affine.s", "s", "lower"),
    ("simulator.assemble_per_segment", "ratio", "lower"),
    ("stability.assemble_state_matrix.s", "s", "lower"),
    ("stability.spectrum.s", "s", "lower"),
    ("stability.check_sufficient_multi_node.s", "s", "lower"),
    ("stability.characteristic_identity_check.s", "s", "lower"),
    ("stability.characteristic_identity_check.failed", "count", "lower"),
    ("simulator.write_trajectory_csv.rows", "count", "lower"),
    ("simulator.write_trajectory_csv.bytes", "B", "lower"),
    ("simulator.write_trajectory_csv.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("model.load_scenario.s", "s", "lower"),
    ("model.validate.s", "s", "lower"),
    ("dispatch.optimal_dispatch.calls", "count", "lower"),
    ("dispatch.optimal_dispatch.s", "s", "lower"),
    ("simulator.convergence_time.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
OPTIMAL_TOY_COST = 23.278       # optimal_dispatch on the default-seed toy disturbance
STATE_TOL = 1e-8                # |x - ref| <= STATE_TOL * (1 + |ref|); CSV has 9 digits
ABSCISSA_RTOL = 1e-6


def write_manifest() -> None:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Jobs

class Job:
    """One unit of work: a scenario for run_scenario, or a CLI invocation."""

    def __init__(self, name, doc, path, cli_args=None):
        self.name = name
        self.doc = doc
        self.path = path
        self.cli_args = cli_args        # None: library call run_scenario
        self.scenario = None            # filled by load_inputs
        self.sim_seconds = doc["horizon"] if self.simulates else 0.0

    @property
    def simulates(self) -> bool:
        return self.cli_args is None or self.cli_args[0] == "simulate"

    def argv(self, workdir):
        argv = [self.cli_args[0], self.path] + self.cli_args[1:]
        if self.cli_args[0] == "simulate":
            argv += ["--out", os.path.join(workdir, "run")]
        return argv


def run_job(job, workdir):
    """The timed call. Returns what observe() needs."""
    if job.cli_args is None:
        return gridfreq.run_scenario(job.scenario)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gridfreq_cli.main(job.argv(workdir))
    return rc, out.getvalue(), err.getvalue()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def observe(job, result, workdir):
    """Observable values of a job's output, plus a failure kind or None.

    Failure kinds: "error" (CLI exit code 1 or other), "nonfinite" (any
    non-finite output), "nonfinite_residual" (stability identity check).
    """
    if job.cli_args is None:
        traj, summary = result
        obs = {"final": np.concatenate([traj.omega[-1], traj.flow[-1], traj.u[-1],
                                        traj.q[-1]]).tolist(),
               "cost": summary.steady_cost_paper}
        ok = all(_finite(a) for a in (traj.omega, traj.flow, traj.u, traj.q,
                                      traj.cost_series, summary.steady_u))
        return obs, None if ok and _finite(obs["cost"]) else "nonfinite"

    rc, stdout, _ = result
    cmd = job.cli_args[0]
    if cmd == "simulate":
        if rc not in (0, 2):            # 2 = finished without convergence
            return {}, "error"
        with open(os.path.join(workdir, "run.summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(workdir, "run.csv"), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.rstrip("\n").split("\n")
        expected_rows = int(round(job.doc["horizon"] / job.doc["dt"])) + 1
        last = [float(v) for v in lines[-1].split(",")]
        obs = {"final": last, "cost": summary["steady_cost_paper"]}
        lowered = text.lower()
        ok = ("nan" not in lowered and "inf" not in lowered
              and len(lines) - 1 == expected_rows
              and _finite(summary["steady_u"] + [summary["steady_cost_paper"],
                                                 summary["max_freq_excursion"]]))
        return obs, None if ok else "nonfinite"
    if rc != 0:
        return {}, "error"
    doc = json.loads(stdout)
    if cmd == "optimal":
        obs = {"cost": doc["cost_paper"], "lambda": doc["lambda"]}
        ok = _finite(doc["u_star"] + [doc["lambda"], doc["cost_paper"]])
        return obs, None if ok else "nonfinite"
    obs = {"abscissa": doc["spectral_abscissa_excl_zeros"]}
    if not (_finite(doc["eigenvalues"]) and _finite(obs["abscissa"])):
        return obs, "nonfinite"
    if doc["identity"] is not None and not _finite(doc["identity"]["max_residual"]):
        return obs, "nonfinite_residual"
    return obs, None


def _close(a, b, rtol, atol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def compare(job, obs, ref, default_seed):
    """Mismatches of the observables against the default-seed references and
    the closed-form optimum; empty if everything agrees."""
    bad = []
    if not default_seed:
        return bad
    if ref is None:
        return [f"{job.name}: no reference stored"]
    for key, want in ref.items():
        got = obs.get(key)
        if key == "abscissa":
            ok = got is not None and _close(got, want, ABSCISSA_RTOL, 0.0)
        else:
            ok = got is not None and _close(got, want, STATE_TOL, STATE_TOL)
        if not ok:
            bad.append(f"{job.name}: {key} differs from reference")
    if job.name == "optimal_toy" and abs(obs["cost"] - OPTIMAL_TOY_COST) > 0.05:
        bad.append(f"{job.name}: cost {obs['cost']} is not {OPTIMAL_TOY_COST}")
    return bad


# ---------------------------------------------------------------------------
# Inputs and set-up

def toy_document() -> dict:
    return gridfreq.scenario_to_dict(gridfreq.toy_grid())


def build_jobs(entries, inputs_dir):
    """Write each (name, document[, CLI arguments]) entry as a scenario file."""
    jobs = []
    for entry in entries:
        name, doc = entry[0], entry[1]
        path = os.path.join(inputs_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        jobs.append(Job(name, doc, path, entry[2] if len(entry) > 2 else None))
    return jobs


def load_inputs(jobs) -> None:
    """Load and validate every input file (what each simulate job receives)."""
    for job in jobs:
        scenario = gridfreq.load_scenario(job.path)
        problems = gridfreq.validate(scenario)
        if problems:
            raise ValueError(f"{job.name}: invalid input: {'; '.join(problems)}")
        job.scenario = scenario


def check_convergence(run, jobs) -> None:
    """Default seed: the toy CONSENSUS and HYBRID_SINGLE runs reach the
    optimal cost 23.278 within 0.05 with max |omega| <= 1e-6. Untimed."""
    for job in jobs:
        traj, summary = gridfreq.run_scenario(job.scenario)
        max_omega = float(np.max(np.abs(traj.omega[-1])))
        ok = abs(summary.steady_cost_paper - OPTIMAL_TOY_COST) <= 0.05 and max_omega <= 1e-6
        print(f"# convergence {job.name}: horizon {job.doc['horizon']:g} s, cost "
              f"{summary.steady_cost_paper:.6f} (optimal {OPTIMAL_TOY_COST}), "
              f"max|omega| {max_omega:.2e}: {'ok' if ok else 'FAILED'}")
        if ok:
            run.attempted += 1
        else:
            run.mismatches.append(f"{job.name}: not converged to the optimum")
            run.fail("check", job.name)


def time_setup(cmd) -> float:
    """Wall time of one fresh process that imports gridfreq and loads and
    validates the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _thread_count():
    """OS threads of this process. The probe scaling assumes there is one:
    a thread started by the program would slow the probe as well."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": getattr(gridfreq, "KERNEL_BACKEND", "n/a"),
        "threads": _thread_count(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Measurement

_PROBE_RNG = np.random.default_rng(20160503)
_PROBE_SYSTEMS = tuple(
    (-np.eye(d) + scale * _PROBE_RNG.standard_normal((d, d)), _PROBE_RNG.standard_normal(d), n)
    for d, scale, n in ((32, 0.1, 400), (256, 0.02, 60)))
_PROBE_MATRIX = _PROBE_RNG.standard_normal((120, 120))
_PROBE_ROWS = _PROBE_RNG.standard_normal((100, 15)).tolist()


def host_probe() -> float:
    """Wall time of a fixed piece of work that uses none of gridfreq.

    The host's speed changes by up to 2x within seconds as other tenants
    load its cores, and a run's average speed differs from the next run's.
    The probe does the kinds of work gridfreq does (NumPy RK4 steps at two
    state sizes, float-to-text formatting, an eigenvalue solve), and it runs
    after every timed job, so its mean time tracks the run's average host
    speed. Dividing mean job times by it leaves the program's own speed.
    """
    t0 = time.perf_counter()
    h = 1e-3
    for A, b, n in _PROBE_SYSTEMS:
        x = np.zeros(len(b))
        for _ in range(n):
            k1 = A @ x + b
            k2 = A @ (x + 0.5 * h * k1) + b
            k3 = A @ (x + 0.5 * h * k2) + b
            k4 = A @ (x + h * k3) + b
            x += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    "\n".join(",".join(f"{v:.9g}" for v in row) for row in _PROBE_ROWS)
    np.linalg.eigvals(_PROBE_MATRIX)
    return time.perf_counter() - t0


class Run:
    """Job execution with failure accounting shared by every pass."""

    def __init__(self, jobs, seed, workdir, references):
        self.jobs = jobs
        self.default_seed = seed == inputs.DEFAULT_SEED
        self.workdir = workdir
        self.references = references
        self.attempted = 0
        self.failures = {}       # kind -> {detail: count}
        self.mismatches = []     # reference or optimum mismatches (incorrect output)

    def execute(self, job, tracer=None):
        """Run, time and check one job; returns its wall time in seconds."""
        os.makedirs(self.workdir)
        try:
            if tracer is not None:
                tracer.job = job.name
            t0 = time.perf_counter()
            try:
                result = run_job(job, self.workdir)
            except Exception as exc:    # any exception is a failed op
                elapsed = time.perf_counter() - t0
                self.fail("exception", f"{job.name}: {type(exc).__name__}: {exc}")
                return elapsed
            elapsed = time.perf_counter() - t0
            obs, kind = observe(job, result, self.workdir)
            mismatch = compare(job, obs, self.references.get(job.name), self.default_seed)
            self.mismatches.extend(m for m in mismatch if m not in self.mismatches)
            if kind is None and mismatch:
                kind = "check"
            if kind is not None:
                self.fail(kind, job.name)
            else:
                self.attempted += 1
            return elapsed
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def fail(self, kind, detail):
        self.attempted += 1
        self.failures.setdefault(kind, {})
        self.failures[kind][detail] = self.failures[kind].get(detail, 0) + 1

    @property
    def failed(self) -> int:
        return sum(sum(v.values()) for v in self.failures.values())

    @property
    def correct(self) -> bool:
        """False when any output is wrong or missing. A non-finite stability
        residual (det overflow in the identity check, a known defect at
        N = 100) is a failed op but leaves the other outputs correct."""
        return not self.mismatches and all(kind == "nonfinite_residual"
                                           for kind in self.failures)

    def run_pass(self, tracer=None, probe_times=None):
        """One pass over the job list. With probe_times, host_probe() runs
        after every job and its times are appended there."""
        timings = []
        for job in self.jobs:
            timings.append((job.name, self.execute(job, tracer), job))
            if probe_times is not None:
                probe_times.append(host_probe())
        return timings


def pass_stats(passes, probe_times) -> dict:
    """End-to-end timings from the untraced passes, at the reference host speed.

    Each job counts at its mean time over the passes, and the mean is scaled
    by REFERENCE_PROBE_S / mean(probe_times). Means of the jobs and of the
    probes interleaved with them both grow in proportion to the run's
    average contention, so their ratio does not depend on it; a job's best
    or median time does not cancel that way. wall_s is one pass at the
    scaled means; job_s.p50 and job_s.tail are percentiles over the job
    list.
    """
    runs = {}
    for p in passes:
        for name, t, _ in p:
            runs.setdefault(name, []).append(t)
    scale = REFERENCE_PROBE_S / statistics.fmean(probe_times)
    mean = {name: statistics.fmean(ts) for name, ts in runs.items()}
    scaled = {name: t * scale for name, t in mean.items()}
    sim = [job for _, _, job in passes[0] if job.simulates]
    times = sorted(scaled.values())
    usable = [q for q in TAIL_LADDER if len(times) * (1.0 - q / 100.0) >= 10.0]
    tail_q = usable[-1] if usable else 100.0
    return {
        "passes": len(passes),
        "pass_walls": [sum(t for _, t, _ in p) for p in passes],
        "probe_mean_s": statistics.fmean(probe_times),
        "probes": len(probe_times),
        "scale": scale,
        "job_mean": mean,
        "job_scaled": scaled,
        "raw_wall_s": sum(mean.values()),
        "wall_s": sum(times),
        "sim_speed": (sum(job.sim_seconds for job in sim)
                      / sum(scaled[job.name] for job in sim)),
        "job_s.p50": float(np.percentile(times, 50.0)),
        "job_s.tail": float(np.percentile(times, tail_q)),
        "tail_percentile": tail_q,
    }


def layer_metrics(summary, pass_wall) -> dict:
    """Per-layer metrics of one traced pass from the tracer's summary."""
    derived = ("kernels.rk4_segment.us_per_step", "kernels.rk4_segment.steps_per_call",
               "simulator.assemble_per_segment", "trace.overhead_s")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, _, _ in PER_LAYER:
        if name not in derived:
            layer, key = name.rsplit(".", 1)
            m[name] = float(summary.get(layer, {}).get(key, 0.0))
    rk = "kernels.rk4_segment"
    m[f"{rk}.us_per_step"] = 1e6 * ratio(m[f"{rk}.s"], m[f"{rk}.steps"])
    m[f"{rk}.steps_per_call"] = ratio(m[f"{rk}.steps"], m[f"{rk}.calls"])
    m["simulator.assemble_per_segment"] = ratio(m["simulator.assemble_affine.calls"],
                                                m[f"{rk}.calls"])
    m["pass_wall_s"] = pass_wall
    return m


def measure(run, seconds, traced, setup_cmd):
    """Untraced passes (and, when traced, alternating traced passes) until
    `seconds` have elapsed. Untraced runs also time SETUP_REPEATS set-ups,
    spread evenly over the run so that they meet the same mix of host
    speeds as the passes. host_probe() runs after every untraced job.
    Returns (untraced passes, probe times, set-up times, layer metrics and
    spans of each traced pass, layers absent from this tree)."""
    tracer = layertrace.Tracer() if traced else None
    untraced, probe_times, setup_times, layers, spans = [], [], [], [], []
    probes = 0 if traced else SETUP_REPEATS
    start = time.perf_counter()
    while True:
        untraced.append(run.run_pass(probe_times=probe_times))
        if tracer is not None:
            tracer.clear()
            tracer.install()
            try:
                tracer.job = "setup"
                load_inputs(run.jobs)
                p = run.run_pass(tracer)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.summary(), sum(t for _, t, _ in p)))
            spans.append(list(tracer.spans))
        while (len(setup_times) < probes
               and time.perf_counter() - start >= len(setup_times) * seconds / probes):
            setup_times.append(time_setup(setup_cmd))
        if time.perf_counter() - start >= seconds:
            break
    while len(setup_times) < probes:
        setup_times.append(time_setup(setup_cmd))
    return (untraced, probe_times, setup_times, layers, spans,
            (tracer.missing if tracer else []))


# ---------------------------------------------------------------------------

def run_benchmark(args) -> int:
    facts = machine_facts()
    print(f"# gridfreq benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("# machine " + "  ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    workdir_root = os.path.join(OUT, f"work-{os.getpid()}")
    inputs_dir = os.path.join(workdir_root, "inputs")
    os.makedirs(inputs_dir)
    try:
        toy = toy_document()
        jobs = build_jobs(inputs.make_jobs(args.workload, args.seed, toy), inputs_dir)
        setup_cmd = ([sys.executable, os.path.join(HERE, "setup_probe.py")]
                     + [j.path for j in jobs])
        time_setup(setup_cmd)       # untimed: fills the file and bytecode caches
        load_inputs(jobs)
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh).get(args.workload, {})
        run = Run(jobs, args.seed, os.path.join(workdir_root, "job"), references)

        # warm-up: one job and the probe, untimed and uncounted
        Run(jobs[:1], args.seed, run.workdir, references).run_pass()
        host_probe()
        if args.workload == "continuous" and run.default_seed:
            converge = build_jobs(inputs.convergence_jobs(toy), inputs_dir)
            load_inputs(converge)
            check_convergence(run, converge)

        untraced, probe_times, setup_times, layers, spans, missing = measure(
            run, args.seconds, bool(args.trace), setup_cmd)
    finally:
        shutil.rmtree(workdir_root, ignore_errors=True)

    stats = pass_stats(untraced, probe_times)
    report_jobs = [j for j in jobs if j.cli_args and j.cli_args[0] in ("stability", "optimal")]
    extra = {}
    if report_jobs:
        extra["reports_per_s"] = (len(report_jobs)
                                  / sum(stats["job_scaled"][j.name] for j in report_jobs))

    print(f"# jobs per pass {len(jobs)}, untraced passes {stats['passes']}, "
          f"job_s.tail = p{stats['tail_percentile']:g} of {len(jobs)} job mean times")
    print(f"# host speed: {stats['probes']} probes, mean {stats['probe_mean_s']:.5f} s "
          f"(reference {REFERENCE_PROBE_S} s), times scaled by {stats['scale']:.4f}; "
          f"unscaled pass {stats['raw_wall_s']:.4f} s")
    for name, t in stats["job_scaled"].items():
        print(f"#   job {name:32s} scaled {t:.4f} s  mean {stats['job_mean'][name]:.4f} s")
    print(f"# failed_ops {run.failed} of attempted_ops {run.attempted}")
    for kind, details in run.failures.items():
        for detail, count in details.items():
            print(f"#   failed {kind}: {detail} x{count}")
    for m in run.mismatches:
        print(f"#   mismatch {m}")

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    if args.trace:
        if missing:
            print(f"# layers absent from this tree: {', '.join(missing)}")
        k_fast = min(range(len(layers)), key=lambda k: layers[k]["pass_wall_s"])
        fastest = layers[k_fast]
        metrics = {name: fastest[name] for name, _, _ in PER_LAYER
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = fastest["pass_wall_s"] - min(stats["pass_walls"])
        print(f"# per-layer numbers of the fastest of {len(layers)} traced passes")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) * stats["scale"],
            "wall_s": stats["wall_s"],
            "sim_speed": stats["sim_speed"],
            "job_s.p50": stats["job_s.p50"],
            "job_s.tail": stats["job_s.tail"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in extra.items():
            print(f"{name} {value:.6g} 1/s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": facts, "setup_times": setup_times,
                   "stats": stats,
                   "job_times": {j.name: [t for p in untraced for n, t, _ in p if n == j.name]
                                 for j in jobs}, "metrics": metrics,
                   "extra": extra, "failures": run.failures,
                   "mismatches": run.mismatches, "attempted": run.attempted}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, info in spans[k_fast]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "info": info}) + "\n")

    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def write_references() -> None:
    """Observables of every job at the default seed, for the output checks."""
    refs = {}
    for workload in WORKLOADS:
        workdir_root = os.path.join(OUT, f"refs-{os.getpid()}")
        os.makedirs(os.path.join(workdir_root, "inputs"))
        try:
            jobs = build_jobs(inputs.make_jobs(workload, inputs.DEFAULT_SEED, toy_document()),
                              os.path.join(workdir_root, "inputs"))
            load_inputs(jobs)
            refs[workload] = {}
            for job in jobs:
                workdir = os.path.join(workdir_root, "job")
                os.makedirs(workdir)
                obs, kind = observe(job, run_job(job, workdir), workdir)
                shutil.rmtree(workdir)
                refs[workload][job.name] = obs
                print(f"{workload}/{job.name}: {kind or 'ok'}")
        finally:
            shutil.rmtree(workdir_root, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if not os.path.isfile(os.path.join(SRC, "gridfreq", "__init__.py")):
        print(f"error: no gridfreq sources under {SRC}", file=sys.stderr)
        return 2
    _import_program()
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    return run_benchmark(args)


def _import_program() -> None:
    """Import gridfreq from this checkout's src/, never an installed copy."""
    global gridfreq, gridfreq_cli
    sys.path.insert(0, SRC)
    import gridfreq
    import gridfreq.cli as gridfreq_cli
    if not os.path.abspath(gridfreq.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported gridfreq from {gridfreq.__file__}, not {SRC}")


if __name__ == "__main__":
    sys.exit(main())
