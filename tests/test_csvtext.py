"""csvtext.format_rows writes each value as the bytes of f"{v:.9g}".

The property tests compare it one value at a time, and in blocks of rows,
with Python's own formatting: any double, rounding near-ties, the edges of
the vectorised range, powers of ten and their neighbours.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfreq.csvtext import format_rows


def reference(block):
    return "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in block).encode()


def one(v):
    return format_rows(np.array([[v]]))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(999999999.5)
@example(9999999995.0)
@example(99999.99995)
@example(0.000099999999995)
@example(1e99)
@example(-1e99)
@example(1e-99)
@example(-1e-99)
@example(1e100)
@example(1e-100)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(2.225073858507201e-308)
@example(-0.0)
@example(0.0)
def test_each_value_is_pythons(v):
    assert one(v) == f"{v:.9g}\n".encode()


@settings(max_examples=300, deadline=None)
@given(st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-110, 110), st.booleans())
def test_near_ties_round_as_python_does(m, k, negative):
    """(m + 0.5) 10^k: a tie in its 10th significant digit, up to the
    rounding of the double, and an exact tie where the double holds it."""
    sign = -1.0 if negative else 1.0
    values = [sign * (m + 0.5) * 10.0 ** k, sign * (m + 0.5) * 2.0 ** (k // 4)]
    if 0 <= k <= 6:
        values.append(sign * float((2 * m + 1) * 10 ** k) / 2)
    for v in values:
        assert one(v) == f"{v:.9g}\n".encode(), v


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([10.0 ** k for k in range(-110, 111)] + [float(f"1e{k}") for k in range(-110, 111)])
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                             9.9999999995 * tens, 9.999999999 * tens, 9.99999999 * tens])
    values = np.concatenate([values, -values])
    block = values.reshape(-1, 4)
    assert format_rows(block) == reference(block)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda cols: st.lists(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=cols, max_size=cols),
    min_size=1, max_size=40)))
def test_blocks_join_rows_as_the_reference_does(rows):
    block = np.array(rows, dtype=np.float64)
    assert format_rows(block) == reference(block)


@pytest.mark.parametrize("scale", [1e-120, 1e-30, 1e-6, 1.0, 1e6, 1e30, 1e120])
def test_seeded_random_values(scale):
    rng = np.random.default_rng(int(-math.log10(scale) + 200))
    block = (rng.standard_normal(6000) * scale * 10.0 ** rng.integers(-8, 9, 6000)).reshape(-1, 6)
    assert format_rows(block) == reference(block)
    bits = rng.integers(0, 2 ** 64, 6000, dtype=np.uint64).view(np.float64).reshape(-1, 3)
    assert format_rows(bits) == reference(bits)
