"""RK4 kernel: RK4's exact one-step map on an affine system, applied in jumps.

`jump` applies a map in increment form, x -> x + D x + g, k times to x in
place, recording the state after application s (1-based) whenever
s == first_record + i * stride; first_record <= 0 disables recording. It
returns the number of rows written to out. If the state leaves the finite
range, the rows recorded after that are not counted. `rk4_segment`
advances the affine system dx/dt = A x + b by n_steps classical
Runge-Kutta steps of size h with the same recording contract: it builds
RK4's one-step map (D, g) from (A, b) and calls jump.

On x' = A x + b one RK4 step is exactly the affine map

    x -> x + D x + g,   D = R(hA) - I = hA S(hA),   g = h S(hA) b,

with RK4's stability function R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and
S(z) = 1 + z/2 + z^2/6 + z^3/24. k steps are x -> x + D_k x + g_k, where
I + D_k = (I + D)^k and g_k = (I + (I + D) + ... + (I + D)^(k-1)) g. The
kernel builds D once per A and jumps over an unrecorded run, or a whole
record stride, with one (D_k, g_k), computed by repeated squaring in the
increment form

    D_2m = 2 D_m + D_m D_m,      g_2m = 2 g_m + D_m g_m,
    D_m+1 = D_m + D + D D_m,     g_m+1 = g_m + g + D g_m.

Powers of I + D itself would round away the O(h) increment; these do not.
Over 2e5 steps on the bundled grid they stay within 6e-14 of stepping RK4
one step at a time, at a state scale of 11. Where building D_k costs more
than it saves, the jump applies (D, g) k times instead (see _k_step_map).
Either way a jump's arithmetic is fixed by its length, the number of such
jumps in the call and the dimension, so a recorded call gives the same
states as unrecorded calls over the same jumps whenever the choices agree.

The same squaring runs on any map in increment form: `k_step_map` gives
the k-step map of a system with constant inputs, x' = A x + B w, and
`jump` records and jumps the same way over repetitions of a map the caller
built, such as the map of one message interval, where one application is
one interval and a stride counts intervals.

D is cached per A by identity while A is alive, for at most _MAX_CACHED
matrices, so A must not be changed in place between calls. D depends on
(A, h) alone, so the cache changes how long a call takes, never its result.
"""
from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

_MAX_CACHED = 16
# id(A) -> (weak reference to A, h, D); an entry leaves when its A dies
_cache: dict = {}


def _increment_matrix(A: np.ndarray, h: float) -> np.ndarray:
    """D = hA S(hA) by Horner's rule: three matrix products."""
    dim = A.shape[0]
    diag = np.arange(dim), np.arange(dim)
    w = A * (h / 4.0)
    w[diag] += 1.0
    v = A @ w
    v *= h / 3.0
    v[diag] += 1.0
    np.matmul(A, v, out=w)
    w *= h / 2.0
    w[diag] += 1.0
    np.matmul(A, w, out=v)
    v *= h
    return v


def _cached_increment(A: np.ndarray, h: float) -> np.ndarray:
    key = id(A)
    hit = _cache.get(key)
    if hit is not None and hit[0]() is A and hit[1] == h:
        return hit[2]
    D = _increment_matrix(A, h)
    if len(_cache) >= _MAX_CACHED:
        del _cache[next(iter(_cache))]
    forget = lambda _, key=key, cache=_cache: cache.pop(key, None)  # noqa: E731
    _cache[key] = (weakref.ref(A, forget), h, D)
    return D


def _offset(A: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """g = h S(hA) b by Horner's rule: three matrix products with b, which
    may be a vector or a matrix of input columns."""
    g = A @ b
    g *= h / 4.0
    g += b
    g = A @ g
    g *= h / 3.0
    g += b
    g = A @ g
    g *= h / 2.0
    g += b
    g *= h
    return g


def _squared_map(D: np.ndarray, g: np.ndarray, k: int, work: list):
    """(D_k, g_k) for k >= 2 by repeated squaring in increment form:
    bit_length(k) + popcount(k) - 2 matrix products. g may have several
    columns. D_k and g_k go into the buffers in `work`, allocated on first
    use."""
    if not work:
        work += [np.empty_like(D), np.empty_like(D), np.empty_like(g)]
    Dk, prod, gprod = work
    Dk[...] = D
    gk = g.copy()
    for bit in bin(k)[3:]:
        np.matmul(Dk, gk, out=gprod)
        gk *= 2.0
        gk += gprod
        np.matmul(Dk, Dk, out=prod)
        Dk *= 2.0
        Dk += prod
        if bit == "1":
            np.matmul(D, gk, out=gprod)
            gk += gprod
            gk += g
            np.matmul(D, Dk, out=prod)
            Dk += prod
            Dk += D
    return Dk, gk


def _k_step_map(D: np.ndarray, g: np.ndarray, k: int, reps: int, work: list):
    """Map of a k-step jump that the call makes `reps` times, as
    (Dk, gk, times): one application of (D_k, g_k), or k applications of
    (D, g) where that costs less. Building D_k takes bit_length(k) +
    popcount(k) - 2 matrix products, each worth about dim / 6 matrix-vector
    products (single-threaded BLAS at dim 257)."""
    products = k.bit_length() + bin(k).count("1") - 2
    if products * max(1.0, D.shape[0] / 6.0) >= reps * (k - 1):
        return D, g, k
    Dk, gk = _squared_map(D, g, k, work)
    return Dk, gk, 1


def k_step_map(A: np.ndarray, B: np.ndarray, h: float, k: int):
    """RK4's exact k-step map on x' = A x + B w with the input w held
    constant: x -> x + D_k x + G_k w. Returns new arrays (D_k, G_k)."""
    D = _increment_matrix(A, h)
    G = _offset(A, B, h)
    if k == 1:
        return D, G
    return _squared_map(D, G, k, [])


def jump(D: np.ndarray, g: np.ndarray, x: np.ndarray, k: int,
         first_record: int = 0, stride: int = 1,
         out: Optional[np.ndarray] = None) -> int:
    """Apply the map x -> x + D x + g k times to x, in place, recording x
    after application s (1-based) into out whenever s == first_record + i *
    stride, for at most out.shape[0] rows; first_record <= 0 disables
    recording. Returns the number of rows written, without the rows after
    the state left the finite range."""
    n_rec = 0
    if 0 < first_record <= k:
        n_rec = min(1 + (k - first_record) // stride, out.shape[0])
    # jump lengths: one per recorded row, then the unrecorded tail
    jumps = [first_record] + [stride] * (n_rec - 1) if n_rec else []
    tail = k - sum(jumps)
    if tail:
        jumps.append(tail)

    inc = np.empty_like(x)
    work: list = []
    k_map = 0
    for row, m in enumerate(jumps):
        if m != k_map:
            k_map = m
            Dm, gm, times = _k_step_map(D, g, m, jumps.count(m), work)
        for _ in range(times):
            np.matmul(Dm, x, out=inc)
            inc += gm
            x += inc
        if row < n_rec:
            out[row] = x

    if n_rec and not np.isfinite(x).all():
        while n_rec and not np.isfinite(out[n_rec - 1]).all():
            n_rec -= 1
    return n_rec


def rk4_segment(A: np.ndarray, b: np.ndarray, x: np.ndarray, h: float,
                n_steps: int, first_record: int, stride: int,
                out: np.ndarray) -> int:
    """n_steps RK4 steps of x' = A x + b: jump() with RK4's one-step map."""
    return jump(_cached_increment(A, h), _offset(A, b, h), x, n_steps,
                first_record, stride, out)
