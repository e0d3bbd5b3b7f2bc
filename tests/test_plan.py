"""The plan of kernel calls, checked without numerics (hypothesis).

simulator.plan turns a schedule into the calls that integrate() executes,
from step counts and keys alone. Random schedules (piece boundaries, link
failures at some of them, K = T / dt or continuous messaging, rotation
length L) and record strides check that the calls tile the run inside
their pieces, that interval and cycle maps jump only between sampling
instants, that every record step is booked once, that the records of one
interval or cycle jump share a rotation phase, and that whole intervals
stop short of a piece's end only before a partial interval or a failure.
Named cases pin the stop rules.
"""
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridfreq.controllers import ControlContext
from gridfreq.model import CommGraph
from gridfreq.simulator import Piece, Schedule, plan

LINKS = ((0, 1), (1, 2), (2, 3), (3, 4))


def make_schedule(n, cuts, K, L, fails=()):
    """n steps cut into pieces at cuts, each rotating over L contexts. At
    each cut in fails a link fails: the pieces from there on hold a new
    CommGraph, one link shorter."""
    contexts = tuple(ControlContext("SEQUENTIAL", F=frozenset(link)) for link in LINKS[:L])
    steps = sorted(set(cuts) | {0, n})
    pieces = []
    for a, b in zip(steps, steps[1:] + [n]):
        if a == 0 or a in fails:
            comm = CommGraph(links=LINKS[sum(f <= a for f in fails):])
        pieces.append(Piece(a, b, comm, contexts, contexts[0], ()))
    return Schedule(n, K, tuple(pieces))


def booked(call):
    """The record steps a call books."""
    if call.kind == "pause":
        return [call.start] * call.rows
    m = (call.stop - call.start) // call.k
    return [call.start + (call.first + i * call.every) * m for i in range(call.rows)]


def pauses(calls):
    return [c.start for c in calls if c.kind == "pause"]


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 400))
    cuts = draw(st.sets(st.integers(1, n), max_size=4))
    fails = draw(st.sets(st.sampled_from(sorted(cuts)), max_size=3)) if cuts else ()
    K = draw(st.one_of(st.none(), st.integers(1, 25)))
    L = 1 if K is None else draw(st.integers(1, len(LINKS)))
    return make_schedule(n, cuts, K, L, fails), draw(st.integers(1, 150))


@settings(max_examples=50, deadline=None)
@given(schedules())
def test_calls_tile_the_run_and_book_every_record_once(case):
    sched, stride = case
    K, n = sched.interval_steps, sched.n_steps
    calls = list(plan(sched, stride))
    at, piece = 0, None
    for c in calls:
        assert c.start == at and c.piece.start <= c.start <= c.stop <= c.piece.stop
        if c.piece is not piece:            # every piece opens with a pause at its start
            assert c.kind == "pause" and c.start == c.piece.start
            piece = c.piece
        if c.kind == "pause":
            assert c.stop == c.start and c.rows in (0, 1)
            continue
        assert c.stop > c.start and c.k >= 1 and (c.stop - c.start) % c.k == 0
        assert (c.first > 0) == (c.rows > 0)
        if c.kind != "stretch":
            assert c.start % K == 0 and c.stop % K == 0
        if c.kind == "cycles":
            cycle = len(c.piece.contexts) * K
            assert c.start % cycle == 0 and c.stop - c.start == c.k * cycle
            assert c.key == c.piece.contexts
        else:
            assert c.key == c.piece.context(c.start, K)
            assert c.kind == "stretch" or c.stop - c.start == K
        at = c.stop
    assert at == n and piece is sched.pieces[-1]
    assert [s for c in calls for s in booked(c)] == list(range(0, n, stride)) + [n]


@settings(max_examples=50, deadline=None)
@given(schedules())
def test_the_records_of_an_interval_or_cycle_call_share_one_rotation_phase(case):
    """integrate() resets the records of an interval or cycle jump as one
    stack, by the R of the first record's context: an interval call crosses
    one interval and records at most one state, and every record step of a
    cycle call, those inside it and the ones it books, lies at the same
    phase step // K % L of the rotation."""
    sched, stride = case
    K = sched.interval_steps
    for c in plan(sched, stride):
        if c.kind == "intervals":
            assert c.k == 1 and c.rows <= 1
        elif c.kind == "cycles":
            inside = range(c.start - c.start % stride + stride, c.stop, stride)
            assert len({s // K % len(c.piece.contexts) for s in [*inside, *booked(c)]}) <= 1


@settings(max_examples=50, deadline=None)
@given(schedules(), st.integers(1, 6))
def test_a_pause_reached_by_intervals_ends_a_partial_interval_or_precedes_a_failure(case, m):
    """With a stride that is a multiple of K no record stops the run. A
    pause at an instant other than a piece's start and its first instant,
    one that whole intervals reach, is then followed by a stretch over a
    partial interval, or sits at the last instant before a boundary where
    the live links change: elsewhere whole intervals run up to the piece's
    end."""
    sched, _ = case
    K = sched.interval_steps
    assume(K is not None)
    calls = list(plan(sched, m * K))
    after = dict(zip(sched.pieces, sched.pieces[1:]))
    for before, c, nxt in zip(calls, calls[1:], calls[2:]):
        pc = c.piece
        if (c.kind == "pause" and c.start % K == 0 and c.start != pc.start
                and before.kind in ("intervals", "cycles")):
            assert nxt.kind == "stretch" or (
                c.start == pc.stop - K and after[pc].comm is not pc.comm)


@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("stride", [10, 30, 60])
def test_stride_a_multiple_of_K_stops_only_at_pieces_and_instants_next_to_them(L, stride):
    """With stride % K == 0 every record is an instant, so the run pauses
    only at a piece's start and its first instant, and at the last instant
    before a piece's end that lies inside an interval: 50, since a stretch
    covers [50, 57) with the messages held from there. The other piece ends
    (430, 700, 1000) are instants where the live links stay, so whole
    intervals run up to them. With one context the kernel calls also end
    only there: one jump crosses the whole intervals between."""
    calls = list(plan(make_schedule(1000, (57, 430, 700), 10, L), stride))
    for c in calls:
        pc = c.piece
        if c.kind == "pause" or L == 1:
            assert c.stop in {pc.start, -(-pc.start // 10) * 10, (pc.stop - 1) // 10 * 10, pc.stop}
    assert pauses(calls) == [0, 50, 57, 60, 430, 700, 1000]


@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("stride", [10, 30, 60])
def test_a_link_failure_on_an_instant_keeps_the_stop_before_it(L, stride):
    """A link that fails at 430, an instant, gives the later pieces a second
    CommGraph. The failed link keeps, and a flow law's init reads, the
    messages held at 420, so the run still pauses there and crosses the
    last interval in a call of its own; 700 and 1000 keep the live links."""
    calls = list(plan(make_schedule(1000, (57, 430, 700), 10, L, fails=(430,)), stride))
    assert pauses(calls) == [0, 50, 57, 60, 420, 430, 700, 1000]
    assert [(c.start, c.stop) for c in calls if 420 <= c.start < 430] == [(420, 420), (420, 430)]


def test_stride_off_the_instants_stops_at_every_record():
    """With stride 105 and K = 10 an interval map cannot record: the run
    pauses at every record and no kernel call books one, while one jump
    still crosses the whole intervals between two records."""
    calls = list(plan(make_schedule(2100, (), 10, 1), 105))
    assert set(range(0, 2101, 105)) <= set(pauses(calls))
    assert all(c.rows == 0 for c in calls if c.kind != "pause")
    assert [(c.kind, c.start, c.stop, c.k) for c in calls if 105 <= c.start < 210] == [
        ("pause", 105, 105, 0), ("stretch", 105, 110, 5), ("pause", 110, 110, 0),
        ("cycles", 110, 200, 9), ("pause", 200, 200, 0), ("cycles", 200, 210, 1)]


@pytest.mark.parametrize("stride", [7, 10, 20, 30, 60, 105])
def test_cycle_jump_only_where_it_records_every_record(stride):
    """A rotation over L = 3 contexts with K = 10 plans a cycle jump only
    when the stride is a multiple of L K = 30 or no record lies between the
    pauses around the jump; otherwise each interval is its own jump."""
    calls = list(plan(make_schedule(1000, (57, 430), 10, 3), stride))
    stops = pauses(calls)
    cycles = [c for c in calls if c.kind == "cycles"]
    for c in cycles:
        before = max(s for s in stops if s <= c.start)
        after = min(s for s in stops if s >= c.stop)
        assert stride % 30 == 0 or not any(before < r < after for r in range(0, 1001, stride))
    assert bool(cycles) == (stride in (30, 60, 105))


def test_plan_is_lazy():
    """A plan yields its calls as the run reaches them, so its memory does
    not grow with the record count: a run of 1e12 records starts at once."""
    first = list(itertools.islice(plan(make_schedule(10 ** 12, (), None, 1), 1), 3))
    assert [(c.kind, c.start, c.stop, c.rows) for c in first] == [
        ("pause", 0, 0, 1), ("stretch", 0, 512, 512), ("stretch", 512, 1024, 512)]
