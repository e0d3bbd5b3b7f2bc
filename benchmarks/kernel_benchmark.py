"""Benchmark the RK4 kernel against plain step-by-step RK4.

The workload is the bundled ten-node grid under the averaging law: a 40-state
affine system stepped at dt = 1 ms, which is exactly the inner loop of every
simulation. `kernels.rk4_segment` applies RK4's exact one-step map in jumps;
the reference steps RK4 one step at a time with NumPy. Run from the
repository root:

    PYTHONPATH=src python3 benchmarks/kernel_benchmark.py [--steps N]
"""
import argparse
import time

import numpy as np

from gridfreq.controllers import ControlContext
from gridfreq.kernels import rk4_segment
from gridfreq.model import toy_grid
from gridfreq.simulator import assemble_affine, initial_flows


def build_workload():
    scn = toy_grid()
    grid = scn.grid
    p = grid.fixed_power().copy()
    p[2] -= 5.0
    A, b = assemble_affine(grid, scn.comm, ControlContext(scheme="CONSENSUS"),
                           p, {}, 0.0)
    x0 = np.zeros(A.shape[0])
    x0[grid.n_nodes:grid.n_nodes + grid.n_lines] = initial_flows(
        grid, grid.fixed_power())
    return np.ascontiguousarray(A), b, x0


def stepwise_rk4(A, b, x, h, n_steps):
    """Plain RK4, one step at a time."""
    for _ in range(n_steps):
        k1 = A @ x + b
        k2 = A @ (x + 0.5 * h * k1) + b
        k3 = A @ (x + 0.5 * h * k2) + b
        k4 = A @ (x + h * k3) + b
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return x


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=200_000,
                    help="RK4 steps per timed run (default: one 200 s horizon)")
    args = ap.parse_args()

    A, b, x0 = build_workload()
    print(f"state dimension {A.shape[0]}, {args.steps} steps, dt=1e-3")
    results = {}
    for name in ("kernel", "stepwise"):
        x = x0.copy()
        t0 = time.perf_counter()
        if name == "kernel":
            rk4_segment(A, b, x, 1e-3, args.steps, 0, 1, np.empty((0, len(x0))))
        else:
            x = stepwise_rk4(A, b, x, 1e-3, args.steps)
        elapsed = time.perf_counter() - t0
        results[name] = (elapsed, x)
        print(f"  {name:<8} {elapsed:8.3f} s   {args.steps / elapsed / 1e6:8.2f} Msteps/s")

    gap = np.abs(results["kernel"][1] - results["stepwise"][1]).max()
    print(f"  speedup {results['stepwise'][0] / results['kernel'][0]:.0f}x, "
          f"final-state agreement {gap:.2e}")
    assert gap < 1e-12, "kernel and stepwise RK4 disagree"


if __name__ == "__main__":
    main()
