"""Small-signal stability analysis of the closed loop.

Assembles the exact state matrix (the dynamics are linear), computes its
spectrum with structural zero eigenvalues separated out, checks the
sufficient positive-definiteness conditions for the flow-based laws, and
numerically verifies the characteristic-polynomial factorizations

    two-node:    s(lam) = sigma (lam + 2) det(M^-1) det(H(lam))
    multi-node:  s(lam) = sigma (-1)^N lam^(1+E-N) (lam + 2) det(M^-1) det(H(lam))

where H is the cubic matrix pencil built from M, D, C and the two graph
Laplacians, and sigma is a single global sign calibrated at the first
sample point (row-reduction sign bookkeeping is not re-derived here).
Both sides are compared as log-determinants, since on large grids the
determinants themselves leave the floating-point range. The left side is
read off the spectrum, log s(lam) = sum_i log(lam_i - lam), so a report
decomposes A once; the right side is one stacked slogdet of H at all the
sample points.

The multi-node factorization silently commutes the cost matrix with a
Laplacian; it holds exactly when all cost coefficients are equal and fails
otherwise. check results therefore carry an explicit `consistent` flag
instead of asserting the identity.

Under the hold schemes (CONSENSUS_SAMPLED, SEQUENTIAL) the closed loop is a
sampled-data system, not x' = A x: interval_map_spectrum reports the
spectral radius of its exact interval map and the decay rate it implies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .controllers import ControlContext, Link
from .kernels import compose_maps
from .model import HOLD_SCHEMES, CommGraph, PowerGrid, interval_steps
from .simulator import (context_matrices, context_step, interval_map, law_base, modes,
                        state_labels)

STRUCTURAL_ZERO_TOL = 1e-8
IDENTITY_TOL = 1e-8         # characteristic_identity_check: consistent below this residual
DEFINITENESS_MARGIN = 1e-9


@dataclass(frozen=True)
class StateMatrix:
    A: np.ndarray
    labels: Tuple[str, ...]
    q_nodes: Tuple[int, ...]   # nodes whose artificial variable is part of the state


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    structural_zero_count: int
    spectral_abscissa_excl_zeros: float


@dataclass(frozen=True)
class IntervalMapReport:
    eigenvalues: np.ndarray          # of the state map over one period
    unit_eigenvalue_count: int
    spectral_radius_excl_unit: float
    period: float                    # s: T, or L T for a SEQUENTIAL rotation cycle
    rate: float                      # 1/s: -ln(spectral radius) / period


@dataclass(frozen=True)
class IdentityReport:
    max_residual: float
    sign: complex
    consistent: bool
    residuals: Tuple[float, ...]


def assemble_state_matrix(grid: PowerGrid, comm: CommGraph,
                          ctx: ControlContext) -> StateMatrix:
    """Homogeneous state matrix over [omega, f, u, q(active nodes)].

    A sliced out of the simulator's assembly of [A B]
    (simulator.context_matrices): the same bits as a run's matrices
    (exact: the dynamics are linear). Artificial variables outside the
    flow-controlled nodes ctx.F are left out, since the law never touches
    them. Held messages are inputs, not state. comm holds the live links
    only.
    """
    n, e = grid.n_nodes, grid.n_lines
    q_nodes = tuple(sorted(ctx.F))
    keep = list(range(2 * n + e)) + [2 * n + e + i for i in q_nodes]
    A, _, _ = context_matrices(grid, comm, ctx)
    return StateMatrix(A=A[np.ix_(keep, keep)], labels=state_labels(grid, q_nodes),
                       q_nodes=q_nodes)


def spectrum(A) -> SpectrumReport:
    """Eigenvalues with structural zeros (|lam| <= 1e-8) counted separately."""
    mat = A.A if isinstance(A, StateMatrix) else np.asarray(A, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("state matrix contains non-finite entries")
    lam = np.linalg.eigvals(mat)
    zero = np.abs(lam) <= STRUCTURAL_ZERO_TOL
    rest = lam[~zero]
    abscissa = float(np.max(rest.real)) if rest.size else float("-inf")
    return SpectrumReport(eigenvalues=lam, structural_zero_count=int(zero.sum()),
                          spectral_abscissa_excl_zeros=abscissa)


def interval_map_spectrum(grid: PowerGrid, comm: CommGraph, scheme: str,
                          dt: float, T: float) -> IntervalMapReport:
    """Spectrum of a hold scheme's exact sampled-data map (Chen & Francis,
    Optimal Sampled-Data Control Systems, 1995).

    CONSENSUS_SAMPLED: the map of one message interval of T / dt RK4 steps.
    SEQUENTIAL: the map of one rotation cycle over its L shared links, the
    product of L interval maps (kernels.compose_maps, as integrate() crosses
    whole cycles), with period L T. The contexts come from simulator.modes
    and share one law_base, as a run's do. The eigenvalues are 1 plus those
    of the map's increment D, so those near 1 keep their digits. Eigenvalues
    within STRUCTURAL_ZERO_TOL * period of 1 are the images of structural
    zeros and of states no law moves; they are counted apart, and the rest
    decay at -ln(rho) / period per second. comm holds the live links only.
    Raises ValueError unless T is a whole number of steps dt
    (model.interval_steps), as validate does.
    """
    if scheme not in HOLD_SCHEMES:
        raise ValueError(f"{scheme} holds no messages; its closed loop is x' = A x")
    ctxs = modes(scheme, grid.edge_set(), comm.links)
    if not ctxs:
        raise ValueError("SEQUENTIAL has no shared power/communication link "
                         "to rotate over")
    K = interval_steps(T, dt)
    base = law_base(grid, comm, True)
    D, _ = compose_maps([interval_map(grid, context_step(base, ctx, dt), K) for ctx in ctxs])
    mu = np.linalg.eigvals(D)
    lam = 1.0 + mu
    period = len(ctxs) * T
    unit = np.abs(mu) <= STRUCTURAL_ZERO_TOL * period
    rho = float(np.max(np.abs(lam[~unit]))) if (~unit).any() else 0.0
    return IntervalMapReport(eigenvalues=lam, unit_eigenvalue_count=int(unit.sum()),
                             spectral_radius_excl_unit=rho, period=period,
                             rate=-math.log(rho) / period if rho > 0 else math.inf)


# ---------------------------------------------------------------------------
# Sufficient conditions (positive definiteness on symmetric parts)

def _sym(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.T)

def _lam_min_sym(X: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_sym(X))[0])

def _lam_max_sym(X: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_sym(X))[-1])

def _is_pd(X: np.ndarray) -> bool:
    return bool(_lam_min_sym(X) > DEFINITENESS_MARGIN)


def check_sufficient_two_node(M: np.ndarray, D: np.ndarray, C: np.ndarray,
                              B: float, L_c: np.ndarray) -> Dict[str, bool]:
    """Stability conditions for the two-node flow-based law.

    inertia_positive:    M > 0
    inertia_cross_term:  sym(L_c M) + D > 0
    damping_cross_term:  sym(L_c D) + L_p^B + C^-1 > 0
    coupling_margin:     lam_min[L_p^B + sym(L_c D) + C^-1]
                         * lam_min[sym(L_c M) + D]  >  4 B max(M_1, M_2)
    """
    M, D, C, L_c = (np.asarray(X, dtype=float) for X in (M, D, C, L_c))
    if M.shape != (2, 2):
        raise ValueError("two-node check expects 2x2 matrices")
    Ap = np.array([[1.0], [-1.0]])
    LpB = B * (Ap @ Ap.T)
    Cinv = np.linalg.inv(C)
    lhs = (_lam_min_sym(LpB + _sym(L_c @ D) + Cinv)
           * _lam_min_sym(_sym(L_c @ M) + D))
    rhs = 4.0 * B * max(M[0, 0], M[1, 1])
    return {
        "inertia_positive": _is_pd(M),
        "inertia_cross_term": _is_pd(_sym(L_c @ M) + D),
        "damping_cross_term": _is_pd(_sym(L_c @ D) + LpB + Cinv),
        "coupling_margin": bool(lhs > rhs * (1.0 + DEFINITENESS_MARGIN)),
    }


def check_sufficient_multi_node(M: np.ndarray, D: np.ndarray, C: np.ndarray,
                                L_c_star: np.ndarray,
                                L_pB: np.ndarray) -> Dict[str, bool]:
    """Multi-node analogue with the modified Laplacian L_c*.

    The fourth condition involves eigenvalue extrema of non-symmetric
    products; the verdict uses their symmetric parts (`coupling_margin`)
    and the raw-matrix variant is reported alongside
    (`coupling_margin_raw`, real parts of the raw eigenvalues).

    M, D and C are diagonal. The cross terms of the second and third
    conditions are the symmetric parts of the two factors of the fourth,
    so each of the three matrices below is solved once, symmetric and
    general, and M's extreme eigenvalues are read off its diagonal.
    """
    M, D, C, L_c_star, L_pB = (np.asarray(X, dtype=float)
                               for X in (M, D, C, L_c_star, L_pB))
    LC = L_c_star @ C
    damping = L_pB + LC @ D + np.linalg.inv(C)
    inertia = LC @ M + D
    coupling = LC @ L_pB
    m = np.diag(M)
    lam_damping, lam_inertia = _lam_min_sym(damping), _lam_min_sym(inertia)
    lhs_sym = lam_damping * lam_inertia
    rhs_sym = _lam_max_sym(coupling) * m.max()

    def _min_real(X):
        return float(np.min(np.linalg.eigvals(X).real))

    lhs_raw = _min_real(damping) * _min_real(inertia)
    rhs_raw = float(np.max(np.linalg.eigvals(coupling).real)) * m.max()
    return {
        "inertia_positive": bool(m.min() > DEFINITENESS_MARGIN),
        "inertia_cross_term": bool(lam_inertia > DEFINITENESS_MARGIN),
        "damping_cross_term": bool(lam_damping > DEFINITENESS_MARGIN),
        "coupling_margin": bool(lhs_sym > rhs_sym * (1.0 + DEFINITENESS_MARGIN)),
        "coupling_margin_raw": bool(lhs_raw > rhs_raw * (1.0 + DEFINITENESS_MARGIN)),
    }


# ---------------------------------------------------------------------------
# Characteristic-polynomial factorizations

def build_Lc_star(L_c: np.ndarray, C: np.ndarray,
                  failed_pair: Tuple[int, int]) -> np.ndarray:
    """Modified communication Laplacian for the single-failure analysis.

    Requires the failed pair to be the last two nodes (relabel first). The
    top block keeps the surviving-Laplacian rows over all N columns (the
    block shorthand this follows is dimensionally ambiguous; the all-columns
    reading is the one validated numerically by the identity check). The
    bottom two rows are [0 | L2 C2^-1] with L2 the two-node Laplacian.
    """
    L_c = np.asarray(L_c, dtype=float)
    C = np.asarray(C, dtype=float)
    N = L_c.shape[0]
    i, j = failed_pair
    if (i, j) != (N - 2, N - 1):
        raise ValueError("relabel nodes so the failed pair is (N-2, N-1)")
    out = np.zeros((N, N))
    out[: N - 2, :] = L_c[: N - 2, :]
    L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    C2inv = np.diag(1.0 / np.diag(C)[N - 2:])
    out[N - 2:, N - 2:] = L2 @ C2inv
    return out


def failed_pair_last(grid: PowerGrid, comm: CommGraph, pair: Link
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(P, L_c*) of the single-failure analysis: the permutation matrix P
    that relabels the nodes so the failed pair comes last, as build_Lc_star
    requires, and L_c* from the Laplacian of comm's links in that labelling
    (a link between the pair touches only the rows L_c* replaces). A matrix
    X over the nodes relabels as P X P^T."""
    n = grid.n_nodes
    P = np.eye(n)[[k for k in range(n) if k not in pair] + sorted(pair)]
    L_c = P @ comm.laplacian(comm.links, n) @ P.T
    return P, build_Lc_star(L_c, P @ np.diag(grid.cost()) @ P.T, (n - 2, n - 1))


def _pencil_logdets(pts: np.ndarray, M, D, Cinv, K, LpB, H0) -> np.ndarray:
    """Complex log det(H(z)) at each point, H(z) = z^3 M + z^2 (D + K M)
    + z (C^-1 + K D + L_p^B) + H0 for the two-node pencil (K = L_c,
    H0 = 2 L_p^B) and the multi-node one (K = L_c* C, H0 = K L_p^B): the
    fixed products are formed once, and the k determinants are taken by one
    stacked slogdet over a (k, N, N) array."""
    z = pts[:, None, None]
    H = ((z * M + (D + K @ M)) * z + (Cinv + K @ D + LpB)) * z + H0
    sign, logabs = np.linalg.slogdet(H)
    return np.log(sign) + logabs


def characteristic_identity_check(grid: PowerGrid, comm: CommGraph,
                                  ctx: ControlContext,
                                  sample_points: Sequence[complex],
                                  eigenvalues: Optional[np.ndarray] = None
                                  ) -> IdentityReport:
    """Compare det(A - lam I) against the factored form at the samples.

    Supports the two-node flow law (PAIR_FLOW) and the single-failure law
    (HYBRID_SINGLE, nodes relabeled so the pair comes last). Points within
    1e-6 of a factorization singularity (0, -2, eigenvalues of -L_c* C) are
    rejected, and so is an empty set of points. The returned `consistent`
    flag is max_residual <= IDENTITY_TOL.

    Both sides are taken as complex logs, so determinants beyond the
    floating-point range still compare. The left side is
    log det(A - z I) = sum_i log(lam_i - z) over the spectrum of A:
    `eigenvalues` as spectrum() returns them, or, when omitted, those of
    assemble_state_matrix's A. Computed eigenvalues are the exact ones of a
    matrix within about eps |A| of A, the backward error an LU factorization
    carries too. The right side is one stacked slogdet of the pencil at all
    points. The residual at each point is |r - 1| / max(|r|, 1) with
    r = lhs / (sigma rhs), which equals
    |lhs - sigma rhs| / max(|lhs|, |sigma rhs|).
    """
    if ctx.scheme not in ("PAIR_FLOW", "HYBRID_SINGLE"):
        raise ValueError("identity check applies to the flow-based laws only")
    if not len(sample_points):
        raise ValueError("no sample points")
    if len(ctx.F) != 2:
        raise ValueError(f"exactly two flow-controlled nodes expected, got {len(ctx.F)}")
    n, e = grid.n_nodes, grid.n_lines
    if eigenvalues is None:
        eigenvalues = spectrum(assemble_state_matrix(grid, comm, ctx)).eigenvalues

    M = np.diag(grid.inertia())
    D = np.diag(grid.droop())
    C = np.diag(grid.cost())
    LpB = grid.weighted_laplacian()

    if ctx.scheme == "PAIR_FLOW":
        if n != 2:
            raise ValueError("two-node form requires a two-node grid")
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        H0 = 2.0 * LpB
        log_sign_n, exp_lam = 0.0, 0
        singular_eigs = np.array([0.0, -2.0])
    else:
        P, Lstar = failed_pair_last(grid, comm, tuple(sorted(ctx.F)))
        M, D, C, LpB = (P @ X @ P.T for X in (M, D, C, LpB))
        K = Lstar @ C
        H0 = K @ LpB
        log_sign_n, exp_lam = 1j * math.pi * (n % 2), 1 + e - n
        singular_eigs = np.concatenate([[0.0, -2.0], np.linalg.eigvals(-K)])

    pts = np.array([complex(z) for z in sample_points])
    for z in pts:
        if np.min(np.abs(z - singular_eigs)) < 1e-6:
            raise ValueError(f"sample point {z} is within 1e-6 of a factorization "
                             "singularity")

    lhs = np.log(np.asarray(eigenvalues)[None, :] - pts[:, None]).sum(axis=1)
    log_factored = (log_sign_n + exp_lam * np.log(pts) + np.log(pts + 2.0)
                    - np.log(grid.inertia()).sum()
                    + _pencil_logdets(pts, M, D, np.linalg.inv(C), K, LpB, H0))
    log_ratio = lhs - log_factored
    sigma = np.exp(log_ratio[0])
    r = np.exp(log_ratio - log_ratio[0])
    residuals = np.abs(r - 1.0) / np.maximum(np.abs(r), 1.0)
    worst = float(np.max(residuals))
    return IdentityReport(max_residual=worst, sign=complex(sigma),
                          consistent=worst <= IDENTITY_TOL,
                          residuals=tuple(float(r) for r in residuals))
