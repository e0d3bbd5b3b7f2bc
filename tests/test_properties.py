"""Property tests on small random grids (hypothesis).

Every law is linear once the event data is fixed, so the assembled
(A, B) must reproduce derivative() at any state: with b = B [y; p] for held
values y and powers p, A x + b == derivative(x), and b == derivative(0).
Grids are connected, with 2 to 6 nodes; the scheme's flow-based pair is a
power-adjacent communication link that has failed (or, under SEQUENTIAL,
the active shared link).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq.controllers import ControlContext
from gridfreq.model import SCHEMES, CommGraph, Line, NodeParams, PowerGrid
from gridfreq.simulator import (context_matrices, derivative, held_messages, sequential_context,
                                vector_to_state)

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
    A, B, _ = context_matrices(grid, comm, ctx)
    b = B @ np.concatenate([y, p])
    zero = np.zeros(3 * n + grid.n_lines)
    dx = derivative(vector_to_state(0.0, zero, grid, last_rx), grid, comm, ctx, p)
    assert np.abs(b - dx).max() <= 1e-12
    for x in rng.normal(size=(3, 3 * n + grid.n_lines)):
        dx = derivative(vector_to_state(0.0, x, grid, last_rx), grid, comm, ctx, p)
        assert np.abs(A @ x + b - dx).max() <= 1e-12
