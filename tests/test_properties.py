"""Property tests on small random grids (hypothesis).

Every law is linear once the event data is fixed, so the assembled
(A, B) must reproduce derivative() at any state: with b = B [y; p] for held
values y and powers p, A x + b == derivative(x), and b == derivative(0).
Grids are connected, with 2 to 6 nodes; the scheme's flow-based pair is a
power-adjacent communication link that has failed (or, under SEQUENTIAL,
the active shared link).
"""
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derivative, sequential_context
from gridfreq.controllers import ControlContext
from gridfreq.model import SCHEMES, CommGraph, Line, NodeParams, PowerGrid
from gridfreq.simulator import context_system, held_messages, law_base, vector_to_state

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
    zero = np.zeros(3 * n + grid.n_lines)
    dx = derivative(vector_to_state(0.0, zero, grid, last_rx), grid, comm, ctx, p)
    assert np.abs(b - dx).max() <= 1e-12
    for x in rng.normal(size=(3, 3 * n + grid.n_lines)):
        dx = derivative(vector_to_state(0.0, x, grid, last_rx), grid, comm, ctx, p)
        assert np.abs(A @ x + b - dx).max() <= 1e-12


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
