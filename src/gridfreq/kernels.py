"""RK4 kernel: RK4's exact one-step map on an affine system, applied in jumps.

On x' = A x + B w with the input w held constant one RK4 step of size h is
exactly the affine map

    x -> x + D x + G w,   D = R(hA) - I = hA S(hA),   G = h S(hA) B,

with RK4's stability function R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and
S(z) = 1 + z/2 + z^2/6 + z^3/24 (Van Loan, 1978, for such block maps with
inputs). `one_step_map` builds (D, G) from (A, B, h); a caller keeps it per
system, so that the offset g = G w of an input is one product. k steps are
x -> x + D_k x + G_k w, where I + D_k = (I + D)^k and
G_k = (I + (I + D) + ... + (I + D)^(k-1)) G. `k_step_map` builds (D_k, G_k)
by repeated squaring in the increment form

    D_2m = 2 D_m + D_m D_m,      G_2m = 2 G_m + D_m G_m,
    D_m+1 = D_m + D + D D_m,     G_m+1 = G_m + G + D G_m,

both halves of a step in one product with the block [D_m G_m]. Powers of
I + D itself would round away the O(h) increment; these do not.
The same squaring runs on any map in increment form, such as the map of one
message interval, and `compose_maps` chains maps in the same form, such as
the interval maps of a rotation cycle.

`jump` applies a map x -> x + D x + G w k times to x in place, recording the
state after application s (1-based) whenever s == first_record + i * stride;
first_record <= 0 disables recording. It returns the number of rows written
to out before the first row that is not finite. It jumps over an unrecorded
run, or a whole record stride, with one (D_k, G_k w), or applies (D, G w) k
times where building D_k costs more than it saves (see _jump_map). Past its
first two rows a call with many rows writes them in blocks, each one matrix
product of earlier rows with a lag map of L strides, L = 2, 4, ... up to a
top lag of at most _REC_BLOCK, each lag map one squaring of the previous
one; the top lag is the one whose products cost least (_top_lag), and a
call with few rows per lag product uses none. A caller that passes
the same `powers` dict with the same (D, G) builds each chosen (D_k, G_k)
once across calls, whatever w is: a new input then costs the one product
G_k w, and powers[k] holds the same array whichever path built it. One
unrecorded jump over 1e4 RK4 steps of a 30-state system stays within 1e-14
of stepping RK4 one step at a time, at a state scale of 4, and 1200 rows in
blocks within 1e-13 (tests/test_kernels.py checks 1e-12). A call's
arithmetic is fixed by its jump lengths, its row count and the dimension:
a row's bits depend on its index in the call, so a recorded call need not
give the same bits as unrecorded calls over the same jumps, nor as a call
that starts at another row.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

# The largest lag, in strides, so the most rows one block product writes;
# simulator.plan also cuts a stretch into calls of this many records.
_REC_BLOCK = 512


def one_step_map(A: np.ndarray, B: np.ndarray, h: float):
    """RK4's one-step map (D, G) on x' = A x + B w: S = S(hA) by Horner's
    rule, D = hA S and G = h S B, four matrix products. New arrays."""
    diag = slice(None, None, A.shape[0] + 1)      # of .flat, in any memory order
    S = A * (h / 4.0)
    S.flat[diag] += 1.0
    v = A @ S
    v *= h / 3.0
    v.flat[diag] += 1.0
    np.matmul(A, v, out=S)
    S *= h / 2.0
    S.flat[diag] += 1.0
    D = A @ S
    D *= h
    G = S @ B
    G *= h
    return D, G


def _square(M: np.ndarray, Dm: np.ndarray, prod: np.ndarray, one=None) -> None:
    """One step of k_step_map on the block M = [D_m G_m], in place, with Dm
    the view of M's D_m: M becomes the block of 2m applications, or of
    2m + 1 when one is (D, [D G]), the map of a single application. prod is
    scratch of M's shape."""
    np.matmul(Dm, M, out=prod)
    M *= 2.0
    M += prod
    if one is not None:
        np.matmul(one[0], M, out=prod)
        M += prod
        M += one[1]


def k_step_map(D: np.ndarray, G: np.ndarray, k: int):
    """(D_k, G_k) of k >= 1 applications of x -> x + D x + G w, by repeated
    squaring in increment form on the block [D_m G_m], one product per
    step: bit_length(k) + popcount(k) - 2 products. G may have several
    columns. Returns views of one new array."""
    dim = D.shape[0]
    step = np.concatenate([D, G], axis=1)
    Mk = step.copy()
    Dk = Mk[:, :dim]
    prod = np.empty_like(Mk)
    for bit in bin(k)[3:]:
        _square(Mk, Dk, prod, (D, step) if bit == "1" else None)
    return Dk, Mk[:, dim:]


def _product_cost(dim: int) -> float:
    """A matrix product at state size dim in matrix-vector products: about
    dim / 6 (single-threaded BLAS at dim 257), and at least one."""
    return max(1.0, dim / 6.0)


def _jump_map(D: np.ndarray, G: np.ndarray, w: np.ndarray, k: int, reps: int,
              powers: dict):
    """Map of a k-step jump that the call makes `reps` times, as
    (Dk, gk, times): one application of (D_k, G_k w), or k applications of
    (D, G w) where building D_k, bit_length(k) + popcount(k) - 2 matrix
    products, costs at least the reps * (k - 1) matrix-vector products it
    saves. A built (D_k, G_k) is kept in powers[k]."""
    products = k.bit_length() + bin(k).count("1") - 2
    if products * _product_cost(D.shape[0]) >= reps * (k - 1):
        return D, G @ w, k
    if k not in powers:
        powers[k] = k_step_map(D, G, k)
    Dk, Gk = powers[k]
    return Dk, Gk @ w, 1


def _top_lag(n_rec: int, dim: int) -> int:
    """The largest lag T, in strides, of a call that writes n_rec rows: 1
    (no lag map) or a power of two up to _REC_BLOCK. With T = 1 rows 2 to
    n_rec - 1 take one matrix-vector product each. Lags 2, 4, ..., T take
    log2 T matrix products (_product_cost) and write those rows with
    log2 T + ceil((n_rec - 2T) / T) block products, each about 1.5
    matrix-vector products at small dim (measured: its Python overhead).
    T doubles while that lowers the cost."""
    product = _product_cost(dim)
    top, cost = 1, n_rec - 2
    while 2 * top <= min(_REC_BLOCK, n_rec - 1):
        T = 2 * top
        lags = T.bit_length() - 1
        blocks = lags + -(-max(0, n_rec - 2 * T) // T)
        if lags * product + 1.5 * blocks >= cost:
            break
        top, cost = T, lags * product + 1.5 * blocks
    return top


def _lag_map(D: np.ndarray, G: np.ndarray, k: int, powers: dict):
    """powers[2k], built where missing by one _square of powers[k] ((D, G)
    for k = 1): the same array k_step_map(D, G, 2k) gives, as the binary
    digits of 2k are those of k and a 0."""
    if 2 * k not in powers:
        M = np.concatenate(powers[k] if k > 1 else (D, G), axis=1)
        _square(M, M[:, :len(M)], np.empty_like(M))
        powers[2 * k] = M[:, :len(M)], M[:, len(M):]
    return powers[2 * k]


def _steps(Dm: np.ndarray, gm: np.ndarray, times: int, x: np.ndarray, inc: np.ndarray) -> None:
    """x advanced in place by times applications of x -> x + Dm x + gm; inc
    is scratch of x's shape."""
    for _ in range(times):
        np.matmul(Dm, x, out=inc)
        inc += gm
        x += inc


def compose_maps(maps):
    """The map of applying the maps x -> x + D_i x + G_i w in the given
    order, with the same input w, as (D, G) in increment form:

        D <- D + D_i + D_i D,      G <- G + G_i + D_i G.

    I + D is the product of the I + D_i without forming it, so the small
    increments are not rounded away. One map is returned as it is."""
    D, G = maps[0]
    for Di, Gi in maps[1:]:
        D = D + Di + Di @ D
        G = G + Gi + Di @ G
    return D, G


def jump(D: np.ndarray, G: np.ndarray, w: np.ndarray, x: np.ndarray, k: int,
         first_record: int = 0, stride: int = 1, out: Optional[np.ndarray] = None,
         powers: Optional[dict] = None) -> int:
    """Apply the map x -> x + D x + G w k times to x, in place, recording x
    after application s (1-based) into out whenever s == first_record + i *
    stride, for at most out.shape[0] rows; first_record <= 0 disables
    recording. powers holds the squared maps (D_k, G_k) of (D, G) by k,
    read and extended here; pass one dict per (D, G) to build each once.
    Returns the number of rows written before the first row that is not
    finite.

    Row 0 is x advanced by first_record applications, row 1 row 0 by one
    stride. Past them the rows come in blocks: with the lag map of L
    strides, rows [r, r + b) are rows [r - L, r - L + b) advanced by it,
    X + X D_L^T + (G_L w)^T, one (b x dim)(dim x dim) product. L doubles
    at r = 2L, so rows [L, 2L) come from rows [0, L), up to a top lag
    T <= _REC_BLOCK, which then writes each further block of T rows. A lag
    map is one _square of the previous one, kept in powers[L * stride].
    Lag maps need the stride map to be one application; _top_lag picks T
    from the row count and dim, and with T = 1 the call steps from row to
    row. After the rows x is the last row advanced by the rest of the k
    applications."""
    n_rec = 0
    if 0 < first_record <= k:
        n_rec = min(1 + (k - first_record) // stride, out.shape[0])
    powers = {} if powers is None else powers
    if not n_rec:                   # one jump of k applications
        if k:
            _steps(*_jump_map(D, G, w, k, 1, powers), x, np.empty_like(x))
        return 0
    tail = k - (first_record + (n_rec - 1) * stride)
    uses = {tail: 1}                # jumps by length
    uses[first_record] = uses.get(first_record, 0) + 1
    uses[stride] = uses.get(stride, 0) + n_rec - 1
    maps = {m: _jump_map(D, G, w, m, reps, powers) for m, reps in uses.items() if m and reps}
    inc = np.empty_like(x)
    top = _top_lag(n_rec, len(x)) if n_rec > 2 and maps[stride][2] == 1 else 1
    _steps(*maps[first_record], x, inc)
    out[0] = x
    if n_rec > 1:
        Ds, gs, times = maps[stride]
        for r in range(1, 2 if top > 1 else n_rec):     # _steps inlined: once per row
            for _ in range(times):
                np.matmul(Ds, x, out=inc)
                inc += gs
                x += inc
            out[r] = x
    r, lag = 2, 1
    while top > 1 and r < n_rec:
        if r == 2 * lag <= top:
            Dl, Gl = _lag_map(D, G, lag * stride, powers)
            gl = Gl @ w
            lag *= 2
        b = min(lag, n_rec - r)
        src, dst = out[r - lag:r - lag + b], out[r:r + b]
        np.matmul(src, Dl.T, out=dst)
        dst += gl
        dst += src
        r += b
    if top > 1:
        x[:] = out[n_rec - 1]
    if tail:
        _steps(*maps[tail], x, inc)

    if top > 1 or not np.isfinite(x).all():
        finite = np.isfinite(out[:n_rec]).all(axis=1)
        if not finite.all():
            n_rec = int(finite.argmin())
    return n_rec
