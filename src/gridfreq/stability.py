"""Small-signal stability analysis of the closed loop.

Assembles the exact state matrix (the dynamics are linear), computes its
spectrum with structural zero eigenvalues separated out, checks the
sufficient positive-definiteness conditions for the flow-based laws, and
numerically verifies the characteristic-polynomial factorization of the
single-failure analysis

    s(lam) = sigma (-1)^N lam^(1+E-N) (lam + 2) det(M^-1) det(H(lam))

where H is the cubic matrix pencil built from M, D, C, the power Laplacian
L_p^B and the modified communication Laplacian L_c*, and sigma is a single
global sign calibrated at the first sample point (row-reduction sign
bookkeeping is not re-derived here). The two-node flow law (PAIR_FLOW) is
its smallest case: at N = 2, E = 1 the failed pair is the whole grid,
L_c* = L2 C^-1 with L2 = [[1, -1], [-1, 1]], and the factor
(-1)^N lam^(1+E-N) is 1, so both flow laws get one certificate. Every
matrix of the certificate is taken in the grid's own labelling: L_c*
replaces the rows of the failed pair wherever the pair sits.
Both sides are compared as log-determinants, since on large grids the
determinants themselves leave the floating-point range. The left side is
read off the spectrum, log s(lam) = sum_i log(lam_i - lam), so a report
decomposes A once; the right side is one stacked slogdet of H at all the
sample points, a (k, N, N) stack filled in place.

The certificate takes its spectra from the structure of L_c*. Its pair
rows are zero outside the pair's columns, and its other rows are those of
the live links' Laplacian, so with the nodes ordered (R, P), P the pair
and R the rest, L_c* W + S is block upper-triangular for any diagonal W
and S (Golub & Van Loan, Matrix Computations, 4th ed., 7.1). Its spectrum
is that of the pair's 2 x 2 block and that of L_RR W_R + S_R, which the
diagonal scaling W_R^(1/2) makes similar to the symmetric
W_R^(1/2) L_RR W_R^(1/2) + S_R (Horn & Johnson, Matrix Analysis, 2nd ed.,
4.5): real, and taken by a symmetric solve. The singular points of the
factorization (W = C, S = 0) and the raw least real part of the inertia
term (W = C M, S = D) are read that way; the damping and coupling terms
mix in the full power Laplacian, have complex spectra on many grids, and
keep general solves. M, D and C are applied as vectors.

The factorization silently commutes the cost matrix with a Laplacian; on
more than two nodes it holds exactly when all cost coefficients are equal
and fails otherwise. check results therefore carry an explicit `consistent`
flag instead of asserting the identity.

Under the hold schemes (CONSENSUS_SAMPLED, SEQUENTIAL) the closed loop is a
sampled-data system, not x' = A x: interval_map_spectrum reports the
spectral radius of its exact interval map and the decay rate it implies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .controllers import ControlContext
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


def _pencil_coefficients(m: np.ndarray, d: np.ndarray, c: np.ndarray,
                         L_c_star: np.ndarray, L_pB: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A0, A1, A2) = (K L_p^B, K D + C^-1 + L_p^B, K M + D) with
    K = L_c* C, from the diagonals m, d and c as vectors: the pencil's
    constant, linear and quadratic terms, and the coupling, damping and
    inertia terms of the sufficient conditions."""
    K = L_c_star * c
    diag = np.diag_indices(len(c))
    A2 = K * m
    A2[diag] += d
    A1 = K * d
    A1[diag] += 1.0 / c
    A1 += L_pB
    return K @ L_pB, A1, A2


def _block_spectrum(L_c_star: np.ndarray, pair: Tuple[int, int], w: np.ndarray,
                    s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of L_c* diag(w) + diag(s) for w >= 0: those of the
    pair's 2 x 2 block (one general solve) and those of the rest R,
    ascending, from the symmetric diag(w_R)^(1/2) L_RR diag(w_R)^(1/2)
    + diag(s_R). Raises ValueError unless L_c* has the form build_Lc_star
    gives it: the pair's rows zero outside the pair's columns and L_RR
    symmetric, which makes the matrix block-triangular and its R block
    similar to the symmetric one (the limit of that similarity where some
    w_R is 0)."""
    n = L_c_star.shape[0]
    if len(pair) != 2 or pair[0] == pair[1] or not all(0 <= k < n for k in pair):
        raise ValueError(f"pair {pair} is not two distinct nodes of {n}")
    P = np.array(pair)
    R = np.setdiff1d(np.arange(n), P)
    if np.any(L_c_star[np.ix_(P, R)]):
        raise ValueError("L_c* has a nonzero entry in a row of the pair outside "
                         "the pair's columns")
    L_RR = L_c_star[np.ix_(R, R)]
    if not np.array_equal(L_RR, L_RR.T):
        raise ValueError("L_c* is not symmetric outside the pair's rows and columns")
    root = np.sqrt(w[R])
    S = root[:, None] * L_RR * root
    S[np.diag_indices(len(R))] += s[R]
    return (np.linalg.eigvals(L_c_star[np.ix_(P, P)] * w[P] + np.diag(s[P])),
            np.linalg.eigvalsh(S))


def check_sufficient_multi_node(M: np.ndarray, D: np.ndarray, C: np.ndarray,
                                L_c_star: np.ndarray, L_pB: np.ndarray,
                                pair: Tuple[int, int]) -> Dict[str, bool]:
    """Stability conditions for a flow law with the modified Laplacian L_c*
    of the failed pair `pair` (build_Lc_star).

    At N = 2, with L_c* = L2 C^-1 and L_p^B = B L2, the first four keys are
    the paper's two-node conditions: M > 0, sym(L2 M) + D > 0,
    sym(L2 D) + L_p^B + C^-1 > 0, and the product of their least
    eigenvalues above 4 B max(M_1, M_2), since lam_max[sym(L2 L_p^B)] = 4 B.

    The fourth condition involves eigenvalue extrema of non-symmetric
    products; the verdict uses their symmetric parts (`coupling_margin`)
    and the raw-matrix variant is reported alongside
    (`coupling_margin_raw`, real parts of the raw eigenvalues).

    M, D and C are diagonal, and are applied as the vectors of their
    diagonals; C must be positive and M nonnegative. The cross terms of the
    second and third conditions are the symmetric parts of the two factors
    of the fourth, so the symmetric parts of the inertia term
    L_c* C M + D, the damping term L_p^B + L_c* C D + C^-1 and the coupling
    term L_c* C L_p^B are each solved once, and M's extreme eigenvalues are
    read off its diagonal. Of the raw spectra, the inertia term's is real:
    L_c* C M + D is block-triangular with the pair's 2 x 2 block and an R
    block similar to the symmetric (C_R M_R)^(1/2) L_RR (C_R M_R)^(1/2) + D_R
    (_block_spectrum), so its least real part is the smaller of the pair
    block's and that symmetric matrix's least eigenvalue. The damping and
    coupling terms mix in the full L_p^B, their spectra are complex on many
    grids, and each keeps one general solve. Raises ValueError unless L_c*
    has the form build_Lc_star gives it, and unless the diagonals have the
    signs above.
    """
    M, D, C, L_c_star, L_pB = (np.asarray(X, dtype=float)
                               for X in (M, D, C, L_c_star, L_pB))
    m, d, c = np.diag(M), np.diag(D), np.diag(C)
    if any(np.any(X != np.diag(np.diag(X))) for X in (M, D, C)):
        raise ValueError("M, D and C must be diagonal")
    if np.any(c <= 0.0) or np.any(m < 0.0):
        raise ValueError("C must be positive and M nonnegative")
    coupling, damping, inertia = _pencil_coefficients(m, d, c, L_c_star, L_pB)
    pair_eigs, rest_eigs = _block_spectrum(L_c_star, pair, c * m, d)
    lam_damping, lam_inertia = _lam_min_sym(damping), _lam_min_sym(inertia)
    lhs_sym = lam_damping * lam_inertia
    rhs_sym = _lam_max_sym(coupling) * m.max()

    min_real_inertia = float(np.concatenate([pair_eigs.real, rest_eigs[:1]]).min())
    lhs_raw = float(np.min(np.linalg.eigvals(damping).real)) * min_real_inertia
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

def build_Lc_star(L_c: np.ndarray, C: np.ndarray, pair: Tuple[int, int]) -> np.ndarray:
    """Modified communication Laplacian of the single-failure analysis, in
    the grid's own labelling.

    Every row outside the failed pair keeps its row of L_c over all N
    columns (the block shorthand this follows is dimensionally ambiguous;
    the all-columns reading is the one validated numerically by the
    identity check). The pair's rows are zero outside the pair's columns
    and L2 C2^-1 in them, with L2 the two-node Laplacian and C2 the pair's
    costs, wherever the pair sits. A link between the pair touches only
    the rows this replaces.
    """
    out = np.array(L_c, dtype=float)
    idx = np.array(pair)
    out[idx] = 0.0
    L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out[np.ix_(idx, idx)] = L2 / np.diag(np.asarray(C, dtype=float))[idx]
    return out


def certificate_matrices(grid: PowerGrid, comm: CommGraph, ctx: ControlContext
                         ) -> Optional[Tuple[np.ndarray, ...]]:
    """(M, D, C, L_p^B, L_c*) that certify a flow law with two
    flow-controlled nodes, PAIR_FLOW or HYBRID_SINGLE, from which both the
    sufficient conditions and the identity check read: the diagonal M, D
    and C, the power Laplacian L_p^B and L_c* (build_Lc_star on the
    Laplacian of comm's links), all as the grid labels its nodes. On a
    two-node grid L_c* = L2 C^-1. None for any other law. comm holds the
    live links only."""
    if ctx.scheme not in ("PAIR_FLOW", "HYBRID_SINGLE") or len(ctx.F) != 2:
        return None
    C = np.diag(grid.cost())
    Lstar = build_Lc_star(comm.laplacian(grid.n_nodes), C, tuple(ctx.F))
    return np.diag(grid.inertia()), np.diag(grid.droop()), C, grid.weighted_laplacian(), Lstar


def sufficient_conditions(grid: PowerGrid, comm: CommGraph, ctx: ControlContext
                          ) -> Optional[Dict[str, bool]]:
    """The sufficient stability conditions of ctx's flow law:
    check_sufficient_multi_node on certificate_matrices. None for a law
    without a certificate."""
    mats = certificate_matrices(grid, comm, ctx)
    if mats is None:
        return None
    M, D, C, LpB, Lstar = mats
    return check_sufficient_multi_node(M, D, C, Lstar, LpB, tuple(ctx.F))


def _pencil_logdets(pts: np.ndarray, m: np.ndarray, A0: np.ndarray, A1: np.ndarray,
                    A2: np.ndarray) -> np.ndarray:
    """Complex log det(H(z)) at each point, H(z) = z^3 M + z^2 A2 + z A1 + A0
    with the terms of _pencil_coefficients (at N = 2, K = L2 and
    K L_p^B = 2 L_p^B, the two-node pencil): H is evaluated by Horner's rule
    in place in one (k, N, N) stack, M added on its diagonal, and the k
    determinants are taken by one stacked slogdet."""
    H = np.empty((len(pts), len(m), len(m)), dtype=complex)
    H[:] = A2
    diag = np.arange(len(m))
    H[:, diag, diag] += pts[:, None] * m
    z = pts[:, None, None]
    H *= z
    H += A1
    H *= z
    H += A0
    sign, logabs = np.linalg.slogdet(H)
    return np.log(sign) + logabs


def characteristic_identity_check(grid: PowerGrid, comm: CommGraph,
                                  ctx: ControlContext,
                                  sample_points: Sequence[complex],
                                  eigenvalues: Optional[np.ndarray] = None
                                  ) -> IdentityReport:
    """Compare det(A - lam I) against the factored form at the samples.

    Supports the single-failure law (HYBRID_SINGLE) and its two-node case,
    the flow law PAIR_FLOW, on the matrices of certificate_matrices, in the
    grid's own labelling, from which the report's sufficient conditions
    read too. Points within 1e-6 of a factorization singularity are
    rejected, and so is an empty set of points: 0, -2 and the eigenvalues
    of -L_c* C, which are minus those of the pair's 2 x 2 block and
    -eigvalsh(C_R^(1/2) L_RR C_R^(1/2)) (_block_spectrum). The returned
    `consistent` flag is max_residual <= IDENTITY_TOL.

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
    if ctx.scheme == "PAIR_FLOW" and n != 2:
        raise ValueError("two-node form requires a two-node grid")
    if eigenvalues is None:
        eigenvalues = spectrum(assemble_state_matrix(grid, comm, ctx)).eigenvalues

    M, D, C, LpB, Lstar = certificate_matrices(grid, comm, ctx)
    m, d, c = np.diag(M), np.diag(D), np.diag(C)
    pair_eigs, rest_eigs = _block_spectrum(Lstar, tuple(ctx.F), c, np.zeros(n))
    singular_eigs = np.concatenate([[0.0, -2.0], -pair_eigs, -rest_eigs])

    pts = np.array([complex(z) for z in sample_points])
    for z in pts:
        if np.min(np.abs(z - singular_eigs)) < 1e-6:
            raise ValueError(f"sample point {z} is within 1e-6 of a factorization "
                             "singularity")

    lhs = np.log(np.asarray(eigenvalues)[None, :] - pts[:, None]).sum(axis=1)
    log_factored = (1j * math.pi * (n % 2) + (1 + e - n) * np.log(pts) + np.log(pts + 2.0)
                    - np.log(grid.inertia()).sum()
                    + _pencil_logdets(pts, m, *_pencil_coefficients(m, d, c, Lstar, LpB)))
    log_ratio = lhs - log_factored
    sigma = np.exp(log_ratio[0])
    r = np.exp(log_ratio - log_ratio[0])
    residuals = np.abs(r - 1.0) / np.maximum(np.abs(r), 1.0)
    worst = float(np.max(residuals))
    return IdentityReport(max_residual=worst, sign=complex(sigma),
                          consistent=worst <= IDENTITY_TOL,
                          residuals=tuple(float(r) for r in residuals))
