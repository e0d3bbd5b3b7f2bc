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
determinants themselves leave the floating-point range.

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
from typing import Dict, Sequence, Tuple

import numpy as np

from .controllers import ControlContext, Link
from .kernels import compose_maps
from .model import HOLD_SCHEMES, CommGraph, PowerGrid
from .simulator import (context_step, derivative, held_messages, interval_map, modes,
                        state_labels, vector_to_state)

STRUCTURAL_ZERO_TOL = 1e-8
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

    One evaluation of the reference derivative on the unit vectors of that
    reduced state, with zero held values and powers (exact: the dynamics
    are linear); artificial variables outside the flow-controlled nodes
    ctx.F are left out, since the law never touches them. Held messages are
    inputs, not state. comm holds the live links only.
    """
    n, e = grid.n_nodes, grid.n_lines
    q_nodes = tuple(sorted(ctx.F))
    keep = list(range(2 * n + e)) + [2 * n + e + i for i in q_nodes]
    X = np.zeros((len(keep), 3 * n + e))
    X[np.arange(len(keep)), keep] = 1.0
    dx = derivative(vector_to_state(0.0, X, grid, held_messages(np.zeros(n), comm.links)),
                    grid, comm, ctx, np.zeros(n))
    return StateMatrix(A=np.ascontiguousarray(dx[:, keep].T),
                       labels=state_labels(grid, q_nodes), q_nodes=q_nodes)


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
    whole cycles), with period L T. The eigenvalues are 1 plus those of the
    map's increment D, so those near 1 keep their digits. Eigenvalues within
    STRUCTURAL_ZERO_TOL * period of 1 are the images of structural zeros
    and of states no law moves; they are counted apart, and the rest decay
    at -ln(rho) / period per second. comm holds the live links only; the
    contexts come from simulator.modes, as a run's do.
    """
    if scheme not in HOLD_SCHEMES:
        raise ValueError(f"{scheme} holds no messages; its closed loop is x' = A x")
    ctxs = modes(scheme, grid.edge_set(), comm.links)
    if not ctxs:
        raise ValueError("SEQUENTIAL has no shared power/communication link "
                         "to rotate over")
    K = int(round(T / dt))
    D, _ = compose_maps([interval_map(grid, *context_step(grid, comm, ctx, dt), K)
                         for ctx in ctxs])
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
    """
    M, D, C, L_c_star, L_pB = (np.asarray(X, dtype=float)
                               for X in (M, D, C, L_c_star, L_pB))
    Cinv = np.linalg.inv(C)
    LC = L_c_star @ C
    cond2 = 0.5 * (LC @ M + M @ C @ L_c_star.T) + D
    cond3 = L_pB + 0.5 * (LC @ D + D @ C @ L_c_star.T) + Cinv
    lhs_sym = (_lam_min_sym(L_pB + LC @ D + Cinv) * _lam_min_sym(LC @ M + D))
    rhs_sym = _lam_max_sym(LC @ L_pB) * _lam_max_sym(M)

    def _min_real(X):
        return float(np.min(np.linalg.eigvals(X).real))

    def _max_real(X):
        return float(np.max(np.linalg.eigvals(X).real))

    lhs_raw = _min_real(L_pB + LC @ D + Cinv) * _min_real(LC @ M + D)
    rhs_raw = _max_real(LC @ L_pB) * _max_real(M)
    return {
        "inertia_positive": _is_pd(M),
        "inertia_cross_term": _is_pd(cond2),
        "damping_cross_term": _is_pd(cond3),
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


def _pencil_two_node(lam: complex, M, D, Cinv, L_c, LpB) -> np.ndarray:
    return ((lam ** 2) * D + (lam ** 3) * M + lam * Cinv
            + lam * (L_c @ D) + (lam ** 2) * (L_c @ M) + (2.0 + lam) * LpB)


def _pencil_multi(lam: complex, M, D, Cinv, LstarC, LpB) -> np.ndarray:
    N = M.shape[0]
    return ((lam ** 2) * D + (lam ** 3) * M + lam * Cinv
            + lam * (LstarC @ D) + (lam ** 2) * (LstarC @ M)
            + (LstarC + lam * np.eye(N)) @ LpB)


def _logdet(X: np.ndarray) -> complex:
    """Complex log of det(X): log|det X| plus i times its phase."""
    sign, logabs = np.linalg.slogdet(X)
    return np.log(complex(sign)) + logabs


def characteristic_identity_check(grid: PowerGrid, comm: CommGraph,
                                  ctx: ControlContext,
                                  sample_points: Sequence[complex],
                                  tol: float = 1e-8) -> IdentityReport:
    """Compare det(A - lam I) against the factored form at the samples.

    Supports the two-node flow law (PAIR_FLOW) and the single-failure law
    (HYBRID_SINGLE, nodes relabeled so the pair comes last). Points within
    1e-6 of a factorization singularity (0, -2, eigenvalues of -L_c* C) are
    rejected. The returned `consistent` flag is max_residual <= tol.

    Both sides are taken as complex logs (slogdet), so determinants beyond
    the floating-point range still compare. The residual at each point is
    |r - 1| / max(|r|, 1) with r = lhs / (sigma rhs), which equals
    |lhs - sigma rhs| / max(|lhs|, |sigma rhs|).
    """
    if ctx.scheme not in ("PAIR_FLOW", "HYBRID_SINGLE"):
        raise ValueError("identity check applies to the flow-based laws only")
    if len(ctx.F) != 2:
        raise ValueError(f"exactly two flow-controlled nodes expected, got {len(ctx.F)}")
    pair = tuple(sorted(ctx.F))

    n, e = grid.n_nodes, grid.n_lines
    sm = assemble_state_matrix(grid, comm, ctx)
    A = sm.A
    dim = A.shape[0]

    M = np.diag(grid.inertia())
    D = np.diag(grid.droop())
    C = np.diag(grid.cost())
    Cinv = np.linalg.inv(C)
    LpB = grid.weighted_laplacian()
    log_det_Minv = -_logdet(M)

    if ctx.scheme == "PAIR_FLOW":
        if n != 2:
            raise ValueError("two-node form requires a two-node grid")
        L_c = np.array([[1.0, -1.0], [-1.0, 1.0]])

        def log_factored(lam: complex) -> complex:
            return (np.log(lam + 2.0) + log_det_Minv
                    + _logdet(_pencil_two_node(lam, M, D, Cinv, L_c, LpB)))

        singular_eigs = np.array([0.0, -2.0])
    else:
        P, Lstar = failed_pair_last(grid, comm, pair)
        Mp, Dp, Cp = P @ M @ P.T, P @ D @ P.T, P @ C @ P.T
        LpBp = P @ LpB @ P.T
        LstarC = Lstar @ Cp
        Cinv_p = np.linalg.inv(Cp)
        log_det_Minv = -_logdet(Mp)
        log_sign_n = 1j * math.pi * (n % 2)
        exp_lam = 1 + e - n

        def log_factored(lam: complex) -> complex:
            return (log_sign_n + exp_lam * np.log(lam) + np.log(lam + 2.0)
                    + log_det_Minv
                    + _logdet(_pencil_multi(lam, Mp, Dp, Cinv_p, LstarC, LpBp)))

        singular_eigs = np.concatenate([[0.0, -2.0],
                                        np.linalg.eigvals(-LstarC)])

    pts = [complex(z) for z in sample_points]
    for z in pts:
        if np.min(np.abs(z - singular_eigs)) < 1e-6:
            raise ValueError(f"sample point {z} is within 1e-6 of a factorization "
                             "singularity")

    eye = np.eye(dim)
    log_ratio = np.array([_logdet(A - z * eye) - log_factored(z) for z in pts])
    sigma = np.exp(log_ratio[0])
    r = np.exp(log_ratio - log_ratio[0])
    residuals = np.abs(r - 1.0) / np.maximum(np.abs(r), 1.0)
    worst = float(np.max(residuals))
    return IdentityReport(max_residual=worst, sign=complex(sigma),
                          consistent=worst <= tol,
                          residuals=tuple(float(r) for r in residuals))
