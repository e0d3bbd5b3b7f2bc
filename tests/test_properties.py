"""Property tests on random grids (hypothesis).

Every law is linear once the event data is fixed, so the assembled
(A, B) on a run's coordinates z = [omega, theta, u, q] must reproduce
conftest.angle_derivative() at any state: with b = B [y; p] for held
values y and powers p, A z + b == angle_derivative(z), and
b == angle_derivative(0).
Grids are connected, with 2 to 6 nodes; the scheme's flow-based pair is a
power-adjacent communication link that has failed (or, under SEQUENTIAL,
the active shared link).

Splitting off the cycle flows changes no answer: on seeded grids of 2 to
60 nodes (trees, meshed grids and the toy grid) the spectrum that
stability.spectrum reports matches a dense solve of the state matrix, and
a step map in grounded angles, lifted to full coordinates, matches the
full one.
"""
import dataclasses
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import angle_derivative, identity_system, lift, sequential_context
from gridfreq.controllers import ControlContext
from gridfreq.kernels import k_step_map, one_step_map
from gridfreq.model import SCHEMES, CommGraph, Line, NodeParams, PowerGrid, toy_grid
from gridfreq.simulator import context_step, context_system, held_messages, law_base
from gridfreq.stability import STRUCTURAL_ZERO_TOL, assemble_state_matrix, spectrum

positive = st.floats(0.05, 5.0)


@st.composite
def grids(draw):
    n = draw(st.integers(2, 6))
    nodes = tuple(NodeParams(k + 1, draw(positive), draw(st.floats(0.0, 3.0)),
                             draw(positive), draw(st.floats(-5.0, 5.0)))
                  for k in range(n))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}   # spanning tree
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    lines = tuple(Line(i, j, draw(positive)) for i, j in sorted(edges))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2))   # links with no line
    links = tuple(sorted(edges | set(extra)))
    return PowerGrid(nodes, lines), links


@st.composite
def cases(draw):
    grid, links = draw(grids())
    scheme = draw(st.sampled_from(SCHEMES))
    failed = draw(st.sampled_from(sorted((ln.i, ln.j) for ln in grid.lines)))
    if scheme == "SEQUENTIAL":
        return grid, CommGraph(links=links), sequential_context(failed)
    live = CommGraph(links=tuple(l for l in links if l != failed))
    if scheme in ("CONSENSUS", "CONSENSUS_SAMPLED"):
        return grid, live, ControlContext(scheme=scheme)
    if scheme == "PAIR_FLOW":
        live = CommGraph(links=links)
    return grid, live, ControlContext(scheme=scheme, F=frozenset(failed))


@settings(max_examples=50, deadline=None)
@given(cases(), st.integers(0, 2 ** 32 - 1))
def test_assembled_affine_map_reproduces_derivative(case, seed):
    grid, comm, ctx = case
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    y = rng.normal(size=n)
    last_rx = held_messages(y, comm.links)
    p = rng.normal(size=n)
    AB = context_system(grid, law_base(grid, comm, ctx), ctx)
    A, B = AB[:, :len(AB)], AB[:, len(AB):]
    b = B @ np.concatenate([y, p])
    dz = angle_derivative(np.zeros(len(A)), grid, comm, ctx, p, last_rx=last_rx)
    assert np.abs(b - dz).max() <= 1e-12
    for z in rng.normal(size=(3, len(A))):
        dz = angle_derivative(z, grid, comm, ctx, p, last_rx=last_rx)
        assert np.abs(A @ z + b - dz).max() <= 1e-12


def seeded_grid(n: int, chords: int, seed: int) -> PowerGrid:
    """A connected grid of n nodes: a random spanning tree plus up to
    chords distinct chords (fewer where the complete graph has no more),
    unequal costs."""
    rng = np.random.default_rng(seed)
    nodes = tuple(NodeParams(k + 1, float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.3, 3.4)),
                             float(rng.choice((5.0, 7.0, 9.0, 10.0, 100.0))),
                             float(rng.uniform(-5.0, 5.0))) for k in range(n))
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[k]), int(order[rng.integers(0, k)])))) for k in range(1, n)}
    free = [(i, j) for j in range(n) for i in range(j) if (i, j) not in edges]
    picks = rng.permutation(len(free))[:chords]
    edges |= {free[k] for k in picks}
    return PowerGrid(nodes, tuple(Line(i, j, float(rng.uniform(0.1, 1.0)))
                                  for i, j in sorted(edges)))


def law_cases(grid: PowerGrid, scheme: str):
    """(live links, context) of scheme on grid, whose links are its lines:
    CONSENSUS with every link live, HYBRID_SINGLE with its first line
    failed, MULTI_FAILURE with its first two lines failed (one on a single
    line)."""
    links = tuple((ln.i, ln.j) for ln in grid.lines)
    failed = {"CONSENSUS": (), "HYBRID_SINGLE": links[:1], "MULTI_FAILURE": links[:2]}[scheme]
    live = CommGraph(links=tuple(l for l in links if l not in failed))
    return live, ControlContext(scheme, F=frozenset(i for l in failed for i in l))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("toy", "tree", "meshed")), st.integers(2, 60),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("CONSENSUS", "HYBRID_SINGLE", "MULTI_FAILURE")))
@example("tree", 2, 0, "HYBRID_SINGLE")
@example("tree", 60, 1, "MULTI_FAILURE")
@example("toy", 10, 0, "HYBRID_SINGLE")
@example("meshed", 60, 2, "CONSENSUS")
def test_split_spectrum_and_maps_match_the_full_ones(kind, n, seed, scheme):
    """With the E - N + 1 cycle flows split off, the reported spectrum
    matches a dense solve of the state matrix on [omega, f, u, q], the
    moving rows of conftest.identity_system on the full state, paired by
    least total distance,
    within 1e-10 of the spectral radius (at least 1); structural_zero_count
    equals the dense count of |lam| <= 1e-8, of which E - N + 1 are listed
    as exact zeros; and the step map in grounded angles, lifted to full
    coordinates (conftest.lift), and its 10-step map stay within 1e-14 of
    the full maps' largest entry."""
    if kind == "toy":
        grid = toy_grid().grid
    else:
        grid = seeded_grid(n, 0 if kind == "tree" else round(0.3 * n), seed)
    n, e = grid.n_nodes, grid.n_lines
    live, ctx = law_cases(grid, scheme)
    sm = assemble_state_matrix(grid, live, ctx)
    rep = spectrum(sm)
    AB = identity_system(grid, live, ctx, angles=False)     # [A B] on [x; y; p]
    moving = np.flatnonzero(AB.any(axis=1))
    dense = np.linalg.eigvals(AB[np.ix_(moving, moving)])
    lam = rep.eigenvalues
    assert lam.shape == dense.shape and sm.cycles == e - n + 1
    assert not lam[len(lam) - sm.cycles:].any()
    rows, cols = linear_sum_assignment(np.abs(lam[:, None] - dense[None, :]))
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(lam[rows] - dense[cols]).max() <= 1e-10 * scale
    assert rep.structural_zero_count == int((np.abs(dense) <= STRUCTURAL_ZERO_TOL).sum())

    step = context_step(grid, law_base(grid, live, ctx), ctx, 1e-3)
    assert len(step.D) == len(sm.angles) == len(moving) - sm.cycles
    full = one_step_map(AB[:, :len(AB)], AB[:, len(AB):], 1e-3)
    for k in (1, 10):
        want = full if k == 1 else k_step_map(*full, k)
        Dk, Gk = (step.D, step.G) if k == 1 else k_step_map(step.D, step.G, k)
        got = lift(grid, dataclasses.replace(step, D=Dk, G=Gk))
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


def test_a_failing_property_fails_alone(tmp_path):
    """A failing hypothesis test under this suite's warning filters is one
    failure (exit 1), not an INTERNALERROR (exit 3) that ends the session:
    hypothesis's failure report imports libcst, which warns that
    mypy_extensions.TypedDict is deprecated."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1 and "1 failed" in run.stdout
