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

from .controllers import ControlContext
from .model import CommGraph, PowerGrid
from .simulator import (assemble_affine, interval_map, sequential_context,
                        shared_links, state_labels)

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


def _active_q_nodes(grid: PowerGrid, ctx: ControlContext) -> Tuple[int, ...]:
    if ctx.scheme in ("PAIR_FLOW", "HYBRID_SINGLE", "MULTI_FAILURE"):
        return tuple(sorted(ctx.F))
    if ctx.scheme == "SEQUENTIAL" and ctx.active_link is not None:
        return tuple(sorted(ctx.active_link))
    return ()


def assemble_state_matrix(grid: PowerGrid, comm: CommGraph,
                          ctx: ControlContext) -> StateMatrix:
    """Homogeneous state matrix over [omega, f, u, q(active nodes)].

    Built by evaluating the reference derivative at unit basis states
    (exact: the dynamics are linear); rows and columns of artificial
    variables that the selected law never touches are dropped.
    """
    n, e = grid.n_nodes, grid.n_lines
    last_rx = {}
    if ctx.scheme in ("CONSENSUS_SAMPLED", "SEQUENTIAL"):
        # held messages are event data, not state; zero-fill them for the
        # homogeneous matrix (they only shift the affine term)
        for a, b in comm.live_links(0.0):
            last_rx[(a, b)] = 0.0
            last_rx[(b, a)] = 0.0
    A_full, _ = assemble_affine(grid, comm, ctx, np.zeros(n), last_rx, 0.0)
    q_nodes = _active_q_nodes(grid, ctx)
    keep = list(range(2 * n + e)) + [2 * n + e + i for i in q_nodes]
    A = A_full[np.ix_(keep, keep)]
    return StateMatrix(A=A, labels=state_labels(grid, q_nodes), q_nodes=q_nodes)


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
    product of L interval maps, with period L T. Eigenvalues within
    STRUCTURAL_ZERO_TOL * period of 1 are the images of structural zeros
    and of states no law moves; they are counted apart, and the rest decay
    at -ln(rho) / period per second. comm holds the live links only.
    """
    if scheme == "CONSENSUS_SAMPLED":
        ctxs = [ControlContext(scheme=scheme)]
    elif scheme == "SEQUENTIAL":
        ctxs = [sequential_context(link) for link in shared_links(grid, comm)]
        if not ctxs:
            raise ValueError("SEQUENTIAL has no shared power/communication link "
                             "to rotate over")
    else:
        raise ValueError(f"{scheme} holds no messages; its closed loop is x' = A x")
    K = int(round(T / dt))
    M = np.eye(3 * grid.n_nodes + grid.n_lines)
    for ctx in ctxs:
        D, _ = interval_map(grid, comm, ctx, dt, K)
        M += D @ M
    lam = np.linalg.eigvals(M)
    period = len(ctxs) * T
    unit = np.abs(lam - 1.0) <= STRUCTURAL_ZERO_TOL * period
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


def _pencil_two_node(lam: complex, M, D, Cinv, L_c, LpB) -> np.ndarray:
    return ((lam ** 2) * D + (lam ** 3) * M + lam * Cinv
            + lam * (L_c @ D) + (lam ** 2) * (L_c @ M) + (2.0 + lam) * LpB)


def _pencil_multi(lam: complex, M, D, Cinv, LstarC, LpB) -> np.ndarray:
    N = M.shape[0]
    return ((lam ** 2) * D + (lam ** 3) * M + lam * Cinv
            + lam * (LstarC @ D) + (lam ** 2) * (LstarC @ M)
            + (LstarC + lam * np.eye(N)) @ LpB)


def characteristic_identity_check(grid: PowerGrid, comm: CommGraph,
                                  ctx: ControlContext,
                                  sample_points: Sequence[complex],
                                  tol: float = 1e-8) -> IdentityReport:
    """Compare det(A - lam I) against the factored form at the samples.

    Supports the two-node flow law (PAIR_FLOW) and the single-failure law
    (HYBRID_SINGLE, nodes relabeled so the pair comes last). Points within
    1e-6 of a factorization singularity (0, -2, eigenvalues of -L_c* C) are
    rejected. The returned `consistent` flag is max_residual <= tol.
    """
    if ctx.scheme not in ("PAIR_FLOW", "HYBRID_SINGLE"):
        raise ValueError("identity check applies to the flow-based laws only")
    if len(ctx.pair_edges) != 1:
        raise ValueError("exactly one pair edge expected")
    pair = next(iter(ctx.pair_edges))

    n, e = grid.n_nodes, grid.n_lines
    sm = assemble_state_matrix(grid, comm, ctx)
    A = sm.A
    dim = A.shape[0]

    M = np.diag(grid.inertia())
    D = np.diag(grid.droop())
    C = np.diag(grid.cost())
    Cinv = np.linalg.inv(C)
    LpB = grid.weighted_laplacian()
    det_Minv = 1.0 / np.linalg.det(M)

    if ctx.scheme == "PAIR_FLOW":
        if n != 2:
            raise ValueError("two-node form requires a two-node grid")
        L_c = np.array([[1.0, -1.0], [-1.0, 1.0]])

        def factored(lam: complex) -> complex:
            return ((lam + 2.0) * det_Minv
                    * np.linalg.det(_pencil_two_node(lam, M, D, Cinv, L_c, LpB)))

        singular_eigs = np.array([0.0, -2.0])
    else:
        # permute so the failed pair occupies the last two slots
        i, j = pair
        order = [k for k in range(n) if k not in (i, j)] + [i, j]
        P = np.eye(n)[order]
        Mp, Dp, Cp = P @ M @ P.T, P @ D @ P.T, P @ C @ P.T
        LpBp = P @ LpB @ P.T
        surviving = [l for l in comm.links if l != pair]
        L_c_surv = P @ comm.laplacian(surviving, n) @ P.T
        Lstar = build_Lc_star(L_c_surv, Cp, (n - 2, n - 1))
        LstarC = Lstar @ Cp
        Cinv_p = np.linalg.inv(Cp)
        det_Minv = 1.0 / np.linalg.det(Mp)
        sign_n = (-1.0) ** n
        exp_lam = 1 + e - n

        def factored(lam: complex) -> complex:
            return (sign_n * lam ** exp_lam * (lam + 2.0) * det_Minv
                    * np.linalg.det(_pencil_multi(lam, Mp, Dp, Cinv_p, LstarC, LpBp)))

        singular_eigs = np.concatenate([[0.0, -2.0],
                                        np.linalg.eigvals(-LstarC)])

    pts = [complex(z) for z in sample_points]
    for z in pts:
        if np.min(np.abs(z - singular_eigs)) < 1e-6:
            raise ValueError(f"sample point {z} is within 1e-6 of a factorization "
                             "singularity")

    eye = np.eye(dim)
    lhs = np.array([np.linalg.det(A - z * eye) for z in pts])
    rhs = np.array([factored(z) for z in pts])
    sigma = lhs[0] / rhs[0]
    residuals = np.abs(lhs - sigma * rhs) / np.maximum(np.abs(lhs),
                                                       np.abs(sigma * rhs))
    worst = float(np.max(residuals))
    return IdentityReport(max_residual=worst, sign=complex(sigma),
                          consistent=worst <= tol,
                          residuals=tuple(float(r) for r in residuals))
