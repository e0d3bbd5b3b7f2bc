"""Seeded input generator for the benchmark workloads.

Every job input is a scenario document in gridfreq's JSON file format. The
program under test sees only these documents (written to disk, then read
back with ``gridfreq.load_scenario``); the seed decides everything random
about them:

* the disturbance node, size and time on the bundled toy grid,
* which power-adjacent communication links fail,
* the random grids used by the N = 60 simulation and the stability reports.

Seed 0 is the default. It keeps the bundled toy disturbance (node 3,
-5 p.u. at t = 1 s) and the failed links of the bundled experiment sweeps,
so its runs can be checked against the optimal cost 23.278 and against the
reference states stored in ``references.json``.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0
FAIL_T0 = 0.5            # link failures precede the disturbance, as in the sweeps
DT = 1e-3

# Horizons (s) of the timed jobs, short enough for many passes per run.
# Continuous segments are 1e4 to 2e4 RK4 steps long (3e3 on the N = 60
# grid); sampled segments are 1 and 10 steps long.
CONTINUOUS_HORIZON = 10.0
CONTINUOUS_TOY_CONSENSUS_HORIZON = 20.0
RANDOM_SIM_HORIZON = 4.0
SAMPLED_1MS_HORIZON = 3.0
SEQUENTIAL_10MS_HORIZON = 10.0
CLI_TOY_HORIZON = 8.0
CLI_SAMPLED_HORIZON = 3.0
STABILITY_SIZES = (10, 30, 60, 100)
# Untimed convergence check of the default seed. At the toy grid's own 200 s
# horizon HYBRID_SINGLE still has max |omega| = 4.7e-6, above the 1e-6 limit.
CONVERGENCE_HORIZON = 250.0
CONTINUOUS_STRIDE = 100
SAMPLED_STRIDE = 100

# Toy-grid failures used by the bundled sweeps (1-based ids).
TOY_HYBRID_LINK = (2, 7)
TOY_MULTI_LINKS = ((1, 2), (2, 5))


def _link_key(link):
    a, b = link
    return (min(a, b), max(a, b))


def power_adjacent_links(doc: dict) -> list:
    """Communication links (1-based, sorted) that coincide with a power line."""
    lines = {_link_key((ln["i"], ln["j"])) for ln in doc["lines"]}
    return sorted(_link_key(l) for l in doc["comm_links"] if _link_key(l) in lines)


def _pick_links(rng: np.random.Generator, doc: dict, k: int) -> list:
    cand = power_adjacent_links(doc)
    idx = rng.choice(len(cand), size=k, replace=False)
    return [cand[i] for i in sorted(idx)]


def _with(doc: dict, **changes) -> dict:
    out = dict(doc)
    out.update(changes)
    return out


def _failures(links) -> list:
    return [{"link": list(l), "time": FAIL_T0} for l in links]


def toy_disturbance(rng: np.random.Generator, seed: int, n_nodes: int) -> list:
    if seed == DEFAULT_SEED:
        return [{"time": 1.0, "node": 3, "delta_p": -5.0}]
    node = int(rng.integers(1, n_nodes + 1))
    size = float(np.round(rng.uniform(2.0, 8.0), 3)) * float(rng.choice([-1.0, 1.0]))
    time = int(rng.integers(600, 2001)) * DT       # on the dt grid
    return [{"time": round(time, 3), "node": node, "delta_p": size}]


def random_grid(rng: np.random.Generator, n: int, scheme: str, n_failed: int,
                horizon: float, record_stride: int) -> dict:
    """Connected random grid with N nodes and N - 1 + round(0.3 N) lines.

    The line count is fixed by N, so every seed gives the same state size
    (3N + E for simulation). Communication links coincide with the lines,
    so every link is power-adjacent and may fail.
    """
    costs = (5.0, 7.0, 9.0, 10.0, 100.0)
    p = rng.uniform(-5.0, 5.0, n)
    p -= p.mean()
    nodes = [{"id": k + 1,
              "inertia": float(rng.uniform(0.01, 1.0)),
              "droop": float(rng.uniform(0.3, 3.4)),
              "cost": float(costs[rng.integers(len(costs))]),
              "p": float(p[k])} for k in range(n)]
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a, b = int(order[k]), int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n - 1 + round(0.3 * n):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    doc = {
        "nodes": nodes,
        "lines": [{"i": a + 1, "j": b + 1, "reactance": float(np.round(rng.uniform(1.0, 9.0), 3))}
                  for a, b in edges],
        "comm_links": [[a + 1, b + 1] for a, b in edges],
        "comm_failures": [],
        "message_interval": "continuous",
        "disturbances": [{"time": 1.0, "node": int(rng.integers(1, n + 1)),
                          "delta_p": float(np.round(rng.uniform(-5.0, 5.0), 3))}],
        "scheme": scheme,
        "horizon": horizon,
        "dt": DT,
        "record_stride": record_stride,
    }
    doc["comm_failures"] = _failures(_pick_links(rng, doc, n_failed))
    return doc


def continuous_jobs(rng, seed, toy: dict) -> list:
    toy = _with(toy, disturbances=toy_disturbance(rng, seed, len(toy["nodes"])),
                horizon=CONTINUOUS_HORIZON, record_stride=CONTINUOUS_STRIDE)
    if seed == DEFAULT_SEED:
        hybrid, multi = [TOY_HYBRID_LINK], list(TOY_MULTI_LINKS)
    else:
        hybrid, multi = _pick_links(rng, toy, 1), _pick_links(rng, toy, 2)
    cons_fail = _pick_links(rng, toy, 1)
    return [
        ("toy_consensus", _with(toy, scheme="CONSENSUS",
                                horizon=CONTINUOUS_TOY_CONSENSUS_HORIZON)),
        ("toy_hybrid_single", _with(toy, scheme="HYBRID_SINGLE",
                                    comm_failures=_failures(hybrid))),
        ("toy_multi_failure", _with(toy, scheme="MULTI_FAILURE",
                                    comm_failures=_failures(multi))),
        ("toy_consensus_failed_link", _with(toy, scheme="CONSENSUS",
                                            comm_failures=_failures(cons_fail))),
        ("random60_hybrid_single", random_grid(rng, 60, "HYBRID_SINGLE", 1,
                                               RANDOM_SIM_HORIZON, CONTINUOUS_STRIDE)),
    ]


def sampled_jobs(rng, seed, toy: dict) -> list:
    toy = _with(toy, disturbances=toy_disturbance(rng, seed, len(toy["nodes"])),
                record_stride=SAMPLED_STRIDE)
    fail = TOY_HYBRID_LINK if seed == DEFAULT_SEED else _pick_links(rng, toy, 1)[0]
    return [
        ("toy_sampled_1ms", _with(toy, scheme="CONSENSUS_SAMPLED", message_interval=1e-3,
                                  horizon=SAMPLED_1MS_HORIZON)),
        ("toy_sampled_1ms_failed_link", _with(toy, scheme="CONSENSUS_SAMPLED",
                                              message_interval=1e-3,
                                              horizon=SAMPLED_1MS_HORIZON,
                                              comm_failures=_failures([fail]))),
        ("toy_sequential_10ms", _with(toy, scheme="SEQUENTIAL", message_interval=1e-2,
                                      horizon=SEQUENTIAL_10MS_HORIZON)),
    ]


def cli_report_jobs(rng, seed, toy: dict) -> list:
    """(name, scenario document, CLI arguments after the scenario path)."""
    toy = _with(toy, disturbances=toy_disturbance(rng, seed, len(toy["nodes"])))
    jobs = [
        ("simulate_toy", _with(toy, horizon=CLI_TOY_HORIZON),
         ["simulate", "--record-stride", "1"]),
        ("simulate_toy_sampled_1ms", _with(toy, scheme="CONSENSUS_SAMPLED",
                                           message_interval=1e-3,
                                           horizon=CLI_SAMPLED_HORIZON),
         ["simulate", "--record-stride", "1"]),
        ("optimal_toy", toy, ["optimal"]),
    ]
    for n in STABILITY_SIZES:
        for scheme, n_failed in (("HYBRID_SINGLE", 1), ("MULTI_FAILURE", 2),
                                 ("CONSENSUS", 0)):
            doc = random_grid(rng, n, scheme, n_failed, 200.0, 100)
            jobs.append((f"stability_{scheme.lower()}_n{n}", doc, ["stability"]))
    return jobs


def convergence_jobs(toy: dict) -> list:
    """Default seed only: toy CONSENSUS and HYBRID_SINGLE run to steady state."""
    toy = _with(toy, horizon=CONVERGENCE_HORIZON, record_stride=1000)
    return [
        ("converge_toy_consensus", _with(toy, scheme="CONSENSUS")),
        ("converge_toy_hybrid_single", _with(toy, scheme="HYBRID_SINGLE",
                                             comm_failures=_failures([TOY_HYBRID_LINK]))),
    ]


WORKLOADS = {
    "continuous": continuous_jobs,
    "sampled": sampled_jobs,
    "cli_reports": cli_report_jobs,
}


def make_jobs(workload: str, seed: int, toy: dict) -> list:
    """Job list of one workload. The generator is seeded from the workload
    name and the seed, so each workload's inputs depend on the seed only."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, seed, toy)
