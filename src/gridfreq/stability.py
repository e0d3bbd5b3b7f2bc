"""Small-signal stability analysis of the closed loop.

Assembles the exact state matrix on the states the law moves (the
dynamics are linear), computes its spectrum with structural zero
eigenvalues separated out, checks the sufficient positive-definiteness
conditions for the flow-based laws, and numerically verifies the
characteristic-polynomial factorization of the single-failure analysis

    s(lam) = sigma (-1)^N lam^(1+E-N) (lam + 2) det(M^-1) det(H(lam))

where H is the cubic matrix pencil built from M, D, C, the power Laplacian
L_p^B and the modified communication Laplacian L_c*, and sigma is a single
global sign calibrated at the first sample point (row-reduction sign
bookkeeping is not re-derived here). It covers every law with two
flow-controlled nodes and no held messages, whatever the scheme that put
it in force. The two-node flow law (PAIR_FLOW) is its smallest case: at
N = 2, E = 1 the failed pair is the whole grid, L_c* = C^-1 L2 with
L2 = [[1, -1], [-1, 1]], and the factor (-1)^N lam^(1+E-N) is 1, so it
gets the same certificate. Every matrix of the certificate is taken in the
grid's own labelling: L_c* replaces the rows of the failed pair wherever
the pair sits.
Both sides are compared as log-determinants, since on large grids the
determinants themselves leave the floating-point range. The left side is
read off the spectrum, log s(lam) = sum_i log(lam_i - lam), so a report
takes one eigenvalue decomposition; the right side is one stacked slogdet
of H at all the sample points, a (k, N, N) stack filled in place.

The spectrum splits off the cycle flows. The line flows obey
f' = Gamma B^T omega (Bergen & Hill, IEEE Trans. PAS 100(1), 1981), so
written as f = Gamma B^T theta + Z c, theta the node angles grounded at
one node per component of the power graph and Z a basis of the cycle
space (B Z = 0), the E - N + c cycle flows c never change and no rate
reads them. A is similar to the block on [omega, theta, u, q]
(StateMatrix.angles, simulator.angle_system, from which a run's step
maps are built too) beside a zero block of that size. spectrum solves
that block, about 301 states instead of 331 at N = 100 with 129 lines,
and lists the E - N + c zeros exactly, counted by structure; a report's
state_dim and labels stay those of A.

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

The identity is exact whatever the costs. In the pair's rows the law has
C_i u_i' = -omega_i - q_i and q' = -2 q - L2 omega_P, so
(lam I + L2) C_P u_P = -omega_P (L2^2 = 2 L2), and the pair block of
K = L_c* C is C_P^-1 L2 C_P: L_c*'s pair block is C_P^-1 L2. The omega
and u rows of A - lam I meet through -lam I, which commutes with every
block, so det [[P(lam), -lam I], [W, lam I + K]] =
det((lam I + K) P(lam) + lam W) with P(lam) = lam^2 M + lam D + L_p^B, no
cost matrix commuting with a Laplacian (Silvester, "Determinants of block
matrices", Math. Gazette 84, 2000). On the toy grid the pairs (1,2), (2,7)
and (2,5) leave residuals of 2-3e-14 over 10 points. The transposed block
L2 C_P^-1 gives the same determinant at N = 2 only; on more nodes it fails
wherever the pair's two costs differ (2.8e-3 for (2,7)). check results
carry an explicit `consistent` flag, so such a failure is reported, not
asserted away.

A law that holds messages (ControlContext.hold: CONSENSUS_SAMPLED, and
SEQUENTIAL's rotation) makes the closed loop a sampled-data system, not
x' = A x: interval_map_spectrum reports, from the law's contexts, the
spectral radius of its exact map over one cycle of them and the decay rate
it implies.

A function here that takes a law takes it as a run's schedule gives it:
the control contexts of a piece (simulator.schedule reads the scheme name
once, through simulator.modes) and its live links, never a scheme name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .controllers import ControlContext
from .model import CommGraph, PowerGrid, interval_steps
from .simulator import LinkStore, angle_system, context_system, law_base, state_labels

STRUCTURAL_ZERO_TOL = 1e-8
IDENTITY_TOL = 1e-8         # characteristic_identity_check: consistent below this residual
DEFINITENESS_MARGIN = 1e-9


@dataclass(frozen=True)
class StateMatrix:
    A: np.ndarray
    labels: Tuple[str, ...]
    q_nodes: Tuple[int, ...]   # nodes whose artificial variable the law moves
    angles: np.ndarray         # A with the flows as grounded angles (simulator.angle_system)
    cycles: int                # the constant cycle flows split off: E - N + c


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
    """Homogeneous state matrix of ctx on the states it moves.

    A is the simulator's [A B] (simulator.context_system of the law_base
    of comm) at its rows that are not zero, in those rows and columns: the
    states that simulator.context_step moves, by the same rule, and the
    same bits as a run's matrices (exact: the dynamics are linear). They
    are omega, f, u and the artificial variables of the flow-controlled
    nodes ctx.F; the law never touches the others. Held messages are
    inputs, not state. labels are state_labels(grid) at those rows, and
    q_nodes the nodes of their artificial variables. angles is the same
    law with the flows carried as grounded node angles, the A of
    simulator.angle_system, on which a run's step maps are built too: A
    is similar to angles beside a zero block of the cycles = E - N + c
    cycle flows (c the power graph's components), which never change and
    which no rate reads. comm holds the live links only.
    """
    AB = context_system(grid, law_base(grid, comm, ctx), ctx)
    moving = np.flatnonzero(AB.any(axis=1))
    labels, q0 = state_labels(grid), 2 * grid.n_nodes + grid.n_lines
    return StateMatrix(A=AB[np.ix_(moving, moving)], labels=tuple(labels[k] for k in moving),
                       q_nodes=tuple(int(k) - q0 for k in moving if k >= q0),
                       angles=angle_system(grid, AB)[0],
                       cycles=grid.n_lines - len(grid.angle_rates()))


def spectrum(A) -> SpectrumReport:
    """Eigenvalues with structural zeros counted separately. For a
    StateMatrix they are those of its angles block and its cycles
    split-off zeros, listed last as exact zeros and counted as structural
    by that count, not by a test; among the block's eigenvalues, as for a
    raw matrix, those with |lam| <= 1e-8 are structural zeros too. The
    entries of A must be finite."""
    mat = A.A if isinstance(A, StateMatrix) else np.asarray(A, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("state matrix contains non-finite entries")
    split = isinstance(A, StateMatrix)
    lam = np.linalg.eigvals(A.angles if split else mat)
    zero = np.abs(lam) <= STRUCTURAL_ZERO_TOL
    rest = lam[~zero]
    abscissa = float(np.max(rest.real)) if rest.size else float("-inf")
    cycles = A.cycles if split else 0
    return SpectrumReport(eigenvalues=np.concatenate([lam, np.zeros(cycles, lam.dtype)]),
                          structural_zero_count=cycles + int(zero.sum()),
                          spectral_abscissa_excl_zeros=abscissa)


def interval_map_spectrum(grid: PowerGrid, comm: CommGraph, contexts: Sequence[ControlContext],
                          dt: float, T: float) -> IntervalMapReport:
    """Spectrum of the exact sampled-data map of a law that holds messages
    (Chen & Francis, Optimal Sampled-Data Control Systems, 1995), over one
    cycle of its contexts, as a schedule's piece carries them: message
    interval k runs context k mod L.

    One context (CONSENSUS_SAMPLED): the map of one message interval of
    T / dt RK4 steps, period T. A SEQUENTIAL rotation over L shared links:
    the product of the L interval maps, period L T. The map is one lookup
    of the cycle over contexts in a simulator.LinkStore of comm: the map
    by which a run crosses whole cycles. The eigenvalues are 1 plus those
    of the map's increment D, so those near 1 keep their digits.
    Eigenvalues within STRUCTURAL_ZERO_TOL * period of 1 are the images of
    structural zeros and of states no law moves; they are counted apart,
    and the rest decay at -ln(rho) / period per second. comm holds the
    live links only. Raises ValueError for no contexts or a context that
    holds no messages (ControlContext.hold), and unless T is a whole number
    of steps dt (model.interval_steps), as validate does.
    """
    if not contexts or not all(ctx.hold for ctx in contexts):
        raise ValueError("an interval map needs one or more contexts that hold messages")
    (D, _), _ = LinkStore(grid, comm, dt, interval_steps(T, dt))["cycles", tuple(contexts)]
    mu = np.linalg.eigvals(D)
    lam = 1.0 + mu
    period = len(contexts) * T
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

    At N = 2, with L_c* = C^-1 L2 and L_p^B = B L2, the first four keys are
    the paper's two-node conditions with L2 replaced by K = C^-1 L2 C,
    which is L2 when the two costs are equal: M > 0, sym(K M) + D > 0,
    sym(K D) + L_p^B + C^-1 > 0, and the product of their least
    eigenvalues above lam_max[sym(K L_p^B)] max(M_1, M_2), 4 B max(M_1, M_2)
    at equal costs. K and L2 give the two-node pencil the same determinant.

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
    and C2^-1 L2 in them, with L2 the two-node Laplacian and C2 the pair's
    costs, wherever the pair sits: the pair's rows of the law give K =
    L_c* C the block C2^-1 L2 C2 (see the module docstring). A link between the pair touches only
    the rows this replaces.
    """
    out = np.array(L_c, dtype=float)
    idx = np.array(pair)
    out[idx] = 0.0
    L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out[np.ix_(idx, idx)] = L2 / np.diag(np.asarray(C, dtype=float))[idx][:, None]
    return out


def certificate_matrices(grid: PowerGrid, comm: CommGraph, ctx: ControlContext
                         ) -> Optional[Tuple[np.ndarray, ...]]:
    """(M, D, C, L_p^B, L_c*) that certify a flow law with two
    flow-controlled nodes and no held messages (not ctx.hold, two nodes in
    ctx.F: the law of PAIR_FLOW, of HYBRID_SINGLE and of MULTI_FAILURE
    after one power-line failure), from which both the sufficient
    conditions and the identity check read: the diagonal M, D and C, the
    power Laplacian L_p^B and L_c* (build_Lc_star on the Laplacian of
    comm's links), all as the grid labels its nodes. On a two-node grid
    L_c* = C^-1 L2. None for any other law. comm holds the live links
    only."""
    if ctx.hold or len(ctx.F) != 2:
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
    with the terms of _pencil_coefficients (at N = 2, K = C^-1 L2 C, whose
    pencil has the determinant of the paper's two-node one, where K = L2
    and K L_p^B = 2 L_p^B): H is evaluated by Horner's rule
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

    Supports the laws that certificate_matrices certifies, on its matrices,
    in the grid's own labelling, from which the report's sufficient
    conditions read too; any other law is a ValueError. Points within 1e-6
    of a factorization singularity are rejected, and so is an empty set of
    points: 0, -2 and the eigenvalues of -L_c* C, which are minus those of
    the pair's 2 x 2 block and -eigvalsh(C_R^(1/2) L_RR C_R^(1/2))
    (_block_spectrum). The returned `consistent` flag is
    max_residual <= IDENTITY_TOL.

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
    mats = certificate_matrices(grid, comm, ctx)
    if mats is None:
        raise ValueError("identity check applies to a law with two flow-controlled nodes "
                         "and no held messages")
    if not len(sample_points):
        raise ValueError("no sample points")
    n, e = grid.n_nodes, grid.n_lines
    if eigenvalues is None:
        eigenvalues = spectrum(assemble_state_matrix(grid, comm, ctx)).eigenvalues

    M, D, C, LpB, Lstar = mats
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
