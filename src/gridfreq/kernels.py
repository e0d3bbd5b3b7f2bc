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
to out; if the state leaves the finite range, the rows recorded after that
are not counted. It jumps over an unrecorded run, or a whole record stride,
with one (D_k, G_k w), or applies (D, G w) k times where building D_k costs
more than it saves (see _jump_map). A caller that passes the same `powers`
dict with the same (D, G) builds each chosen (D_k, G_k) once across calls,
whatever w is: a new input then costs the one product G_k w. One unrecorded
jump over 1e4 RK4 steps of a 30-state system stays within 1e-14 of stepping
RK4 one step at a time, at a state scale of 4 (tests/test_kernels.py checks
1e-12). Either way a jump's arithmetic is fixed by its length, the number
of such jumps in the call and the dimension, so a recorded call gives the
same states as unrecorded calls over the same jumps whenever the choices
agree.
"""
from __future__ import annotations

from typing import Optional

import numpy as np


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
        np.matmul(Dk, Mk, out=prod)
        Mk *= 2.0
        Mk += prod
        if bit == "1":
            np.matmul(D, Mk, out=prod)
            Mk += prod
            Mk += step
    return Dk, Mk[:, dim:]


def _jump_map(D: np.ndarray, G: np.ndarray, w: np.ndarray, k: int, reps: int,
              powers: dict):
    """Map of a k-step jump that the call makes `reps` times, as
    (Dk, gk, times): one application of (D_k, G_k w), or k applications of
    (D, G w) where that costs less. Building D_k takes bit_length(k)
    + popcount(k) - 2 matrix products, each worth about dim / 6
    matrix-vector products (single-threaded BLAS at dim 257). A built
    (D_k, G_k) is kept in powers[k]."""
    products = k.bit_length() + bin(k).count("1") - 2
    if products * max(1.0, D.shape[0] / 6.0) >= reps * (k - 1):
        return D, G @ w, k
    if k not in powers:
        powers[k] = k_step_map(D, G, k)
    Dk, Gk = powers[k]
    return Dk, Gk @ w, 1


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
    Returns the number of rows written, without the rows after the state
    left the finite range."""
    n_rec = 0
    if 0 < first_record <= k:
        n_rec = min(1 + (k - first_record) // stride, out.shape[0])
    # jump lengths: one per recorded row, then the unrecorded tail
    jumps = [first_record] + [stride] * (n_rec - 1) if n_rec else []
    tail = k - sum(jumps)
    if tail:
        jumps.append(tail)

    powers = {} if powers is None else powers
    inc = np.empty_like(x)
    k_map = 0
    for row, m in enumerate(jumps):
        if m != k_map:
            k_map = m
            Dm, gm, times = _jump_map(D, G, w, m, jumps.count(m), powers)
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
