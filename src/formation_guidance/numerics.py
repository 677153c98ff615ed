"""Shared numerical kernels.

A fixed-step classical RK4 integrator, an algebraic Riccati solver with
residual verification, a matrix exponential, and a central-difference
Jacobian used as an oracle for analytic derivatives.

The cold Riccati solve, the factor of the control weight, the cold
solve's contract check and the matrix exponential run on numpy alone.
Importing ``scipy.linalg`` after numpy takes 0.26-0.28 s and raises
peak RSS from about 27 MB to 55 MB (2-vCPU Xeon, Python 3.11.7, numpy
2.4.6, scipy 1.17.1), so it is reached only through
:func:`scipy_linalg`, which imports it on first use, and only by the
warm Riccati solve (raw LAPACK ``dgees`` and ``dtrsyl``), which the
pointwise SDRE law runs at every step after the first, and by the cold
solve's fallback.  LQR, NN-LQR, MPSP, G-MPSP and
finite-horizon SDRE runs never import it.

All operations are pure functions of their inputs and may be called
concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class NumericsError(RuntimeError):
    """Raised when a numerical kernel fails to meet its contract."""


@functools.cache
def scipy_linalg():
    """The ``scipy.linalg`` module, imported at the first call.

    Only the warm Riccati solve's Schur forms and Lyapunov solves
    (``dgees``, ``dtrsyl``) and the cold solve's fallback to
    ``solve_continuous_are`` call it; the SDRE law's gain needs no
    LAPACK of its own.
    """
    import scipy.linalg

    return scipy.linalg


def rk4_step(
    derivative: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    x: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Advance ``x`` by one classical fourth-order Runge-Kutta step.

    Parameters
    ----------
    derivative : callable
        Right-hand side f(t, x) of the ODE.
    t : float
        Current time [s].
    x : ndarray
        Current state.
    dt : float
        Step size [s], must be positive.

    Returns
    -------
    ndarray
        State at ``t + dt``.
    """
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(derivative(t, x), dtype=float)
    k2 = np.asarray(derivative(t + 0.5 * dt, x + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(derivative(t + 0.5 * dt, x + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(derivative(t + dt, x + dt * k3), dtype=float)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"non-finite state after RK4 step at t={t}")
    return out


#: Most Newton-Kleinman steps, each on a fresh Schur form of its
#: iterate's closed loop, a warm start takes before the cold solve.
NEWTON_MAX_STEPS = 4

#: Relative Riccati residual at which the warm iteration stops, far
#: inside the 1e-8 contract so a warm ``P`` agrees with the cold one.
NEWTON_TOL = 1e-14

#: Factor by which a chord correction on a handed-in Schur form must
#: shrink the Riccati residual for the next correction to reuse that
#: form; after one that shrinks it less, Newton-Kleinman takes over.
CHORD_CONTRACTION = 1e-3

#: Most Newton steps of the matrix sign function before the cold solve
#: falls back to scipy.  Well-posed problems take 3 to 7, and 21 with a
#: state weight 1e-24 times the control weight.
SIGN_MAX_STEPS = 40

#: Relative change (1-norm) at which the sign iteration has converged.
SIGN_TOL = 1e-10


@dataclass(frozen=True)
class RiccatiWeights:
    """What ``solve_are`` and its gain need of a fixed ``B``, ``Q`` and ``R``.

    ``B_tilde = B L⁻ᵀ`` for the Cholesky factor ``R = L Lᵀ``, ``G =
    B_tilde B_tildeᵀ = B R⁻¹ Bᵀ``, the Frobenius norms of ``G`` and
    ``Q``, and ``R_inv_BT = R⁻¹ Bᵀ`` (by ``np.linalg.solve``), which maps
    a solution ``P`` to the gain ``R⁻¹ Bᵀ P``.  Built by
    :func:`riccati_weights`; a run that solves many Riccati equations
    with the same weights builds it once.
    """

    B_tilde: np.ndarray
    G: np.ndarray
    norm_G: float
    norm_Q: float
    R_inv_BT: np.ndarray


def riccati_weights(B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> RiccatiWeights:
    """The :class:`RiccatiWeights` of ``B``, ``Q`` and ``R``.

    Raises NumericsError when ``R`` is not positive definite.
    """
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)
    try:
        # Absorb R into the input map (B L^-T with R = L L^T) so widely
        # scaled control weights keep the Hamiltonian pencil balanced.
        # For a diagonal R, LU without a row exchange solves L X = Bᵀ
        # with the bits of the triangular solve (LAPACK's dtrtrs).
        L = np.linalg.cholesky(R)
        B_tilde = np.linalg.solve(L, B.T).T
        R_inv_BT = np.linalg.solve(R, B.T)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericsError(f"Riccati solve failed: {exc}") from exc
    G = B_tilde @ B_tilde.T
    return RiccatiWeights(B_tilde, G, _norm(G), _norm(np.asarray(Q, dtype=float)), R_inv_BT)


class RiccatiState(NamedTuple):
    """A warm start that :func:`solve_are` takes and returns.

    ``P`` is a Riccati solution, or None for no guess.  ``(T, Z)`` is
    the real Schur form ``closedᵀ = Z T Zᵀ`` of its closed loop ``closed
    = A − B R⁻¹ Bᵀ P`` for the ``A`` it solved, or None where no form
    was computed: a guess made of a ``P`` alone, or a ``P`` from the
    cold solve.
    """

    P: np.ndarray | None
    T: np.ndarray | None = None
    Z: np.ndarray | None = None


def solve_are(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    guess: RiccatiState | None = None,
    *,
    weights: RiccatiWeights | None = None,
) -> np.ndarray | RiccatiState:
    """Solve the continuous algebraic Riccati equation.

    Finds the symmetric positive-semidefinite ``P`` satisfying

        P A + Aᵀ P + Q − P B R⁻¹ Bᵀ P = 0

    such that the closed loop ``A − B R⁻¹ Bᵀ P`` is Hurwitz.

    ``weights`` is ``riccati_weights(B, Q, R)``, built here when absent:
    a caller that solves many equations with the same ``B``, ``Q`` and
    ``R``, like the pointwise SDRE law over one run, passes it to skip
    the factorization of ``R`` and the products of ``B``.

    ``guess`` is None or a :class:`RiccatiState`.  The result is ``P``
    for None, and otherwise the :class:`RiccatiState` of ``P``: a chain
    of solves, like the pointwise SDRE law's, hands each result to the
    next solve, and ``RiccatiState(None)`` starts one with a cold solve.

    Without a guessed ``P`` the solve is cold (:func:`_cold_solve`).  It
    computes ``W = sign(H)`` of the Hamiltonian ``H = [[A, −G], [−Q,
    −Aᵀ]]``, ``G = B R⁻¹ Bᵀ``, by Newton's iteration with determinant
    scaling (Byers, Linear Algebra Appl. 1987; Kenney & Laub, IEEE TAC
    1995).  The iteration stops at a relative change of ``SIGN_TOL``, or
    one step after a change of at most ``√SIGN_TOL``, when quadratic
    convergence has reached the round-off floor.  ``P`` is the
    symmetrized least-squares solution of ``[W₁₂; W₂₂ + I] P = −[W₁₁ +
    I; W₂₁]``.  The iteration runs only for a symmetric positive
    definite ``Q``: with a stabilizable ``(A, B)``, ``H`` then has no
    eigenvalue on the imaginary axis, where the iteration could not
    converge (with ``Q = 0`` it may have them).  scipy's
    ``solve_continuous_are`` on the same ``(A, B L⁻ᵀ, Q, I)`` form
    answers instead when ``Q`` fails that gate, when an iterate is
    singular or not finite, when ``SIGN_MAX_STEPS`` steps do not
    converge, or when the sign function's ``P`` breaks the contract.
    So a cold solve raises only where scipy's raises or breaks the
    contract.  A cold ``P`` comes back without a Schur form.

    With a guessed ``P``, typically the solution for a nearby ``A``,
    the inexact Kleinman-Newton iteration (:func:`_newton_kleinman`)
    starts from it instead.  Each correction ``P ← P − δ`` solves the
    Lyapunov equation ``Cᵀ δ + δ C = Res(P)`` for the Riccati residual
    ``Res(P) = P A + Aᵀ P + Q − P G P`` by the Bartels-Stewart method
    (CACM 1972) on raw LAPACK: a quasi-triangular solve by ``dtrsyl`` on
    a real Schur form of ``C`` from ``dgees``, and ``δ`` is symmetrized.  A Newton-Kleinman step
    (Kleinman, IEEE TAC 1968) takes ``C`` as the closed loop ``A − G
    P`` of the current iterate and a fresh Schur form of it, which must
    show that loop Hurwitz.  When the guess also hands in the Schur
    form of the closed loop it was solved for, the corrections are
    chord steps on that form (Kelley, SIAM 1995; the
    inexact Newton-Kleinman of Feitzinger, Hylla & Sachs, SIAM J.
    Matrix Anal. Appl. 2009) for as long as each shrinks the residual by
    the factor ``CHORD_CONTRACTION``; after one that does not, the
    iteration goes on by Newton-Kleinman steps from the better of the
    two iterates.  Along a pointwise SDRE chain one or a few chords
    reach the tolerance, so a warm solve takes one ``dgees``, the
    Hurwitz test of its result, which is also the form it hands on.
    The warm start falls back to the cold solve when a Newton step's
    closed loop is not Hurwitz, when LAPACK reports a failure in a
    Newton step, or when the iteration has not reached a relative
    residual of ``NEWTON_TOL`` within ``NEWTON_MAX_STEPS`` Newton steps.
    The residual is relative to ``1 + ||P||`` or, where larger, to the
    size of its terms, ``||A|| ||P|| + ||P||^2 ||B R⁻¹ Bᵀ|| + ||Q||``.
    The Lyapunov solve does the arithmetic of scipy's
    ``solve_continuous_lyapunov`` without its argument checks.  The
    iteration takes at least one correction, since a guess that already
    meets the tolerance can lie 1e-9 off a solution that has moved.  A
    warm ``P`` agrees with the cold solve to about 1e-11 relative (at
    most 3.5e-11 along 300-step pointwise SDRE runs on chiefs with e =
    0, 0.15 and 0.5 at dt = 1 s and 30 s, R = 1e8 and 1e11).

    The contract, for a cold and a warm ``P`` alike, is a Riccati
    residual, formed with ``weights.G = B R⁻¹ Bᵀ``, of at most ``1e-8 (1
    + ||P||)`` in the Frobenius norm (:func:`_residual_ok`), and a
    Hurwitz closed loop.  A warm ``P`` is tested for Hurwitz on the real
    parts of a ``dgees`` Schur form of its own closed loop
    (:func:`_hurwitz_schur`), the form it returns; a cold ``P`` by
    ``np.linalg.eigvals`` (:func:`_contract_failure`), which needs no
    LAPACK beyond numpy's.  The check decides only whether a ``P`` is
    returned: a warm ``P`` that fails it is discarded for the cold
    solve, so a guess never makes the solve raise where a cold solve
    succeeds, and a cold ``P`` that fails it raises.

    Raises
    ------
    NumericsError
        If the solver fails or the residual/stability contract is not met.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if weights is None:
        weights = riccati_weights(B, Q, R)
    solved = None
    if guess is not None and guess.P is not None:
        solved = _newton_kleinman(A, Q, guess, weights)
    if solved is None:
        solved = RiccatiState(_cold_solve(A, Q, weights))
    return solved.P if guess is None else solved


def _cold_solve(A: np.ndarray, Q: np.ndarray, weights: RiccatiWeights) -> np.ndarray:
    """The cold solve of ``solve_are``: the sign function of the
    Hamiltonian, or scipy's ``solve_continuous_are`` where that fails.

    Returns a ``P`` that meets the contract, or raises NumericsError.
    """
    P = _sign_solve(A, Q, weights)
    if P is not None:
        return P
    B_tilde = weights.B_tilde
    try:
        P = scipy_linalg().solve_continuous_are(A, B_tilde, Q, np.eye(B_tilde.shape[1]))
    except Exception as exc:  # scipy raises LinAlgError or ValueError
        raise NumericsError(f"Riccati solve failed: {exc}") from exc
    P = 0.5 * (P + P.T)
    failure = _contract_failure(A, Q, weights.G, P)
    if failure is not None:
        raise NumericsError(failure)
    return P


def _sign_solve(A: np.ndarray, Q: np.ndarray, weights: RiccatiWeights) -> np.ndarray | None:
    """The stabilizing ``P`` from the matrix sign function of the
    Hamiltonian, or None when ``Q`` is not exactly symmetric and
    positive definite, the sign iteration fails, or ``P`` breaks the
    contract."""
    try:
        if not np.array_equal(Q, Q.T):
            return None
        np.linalg.cholesky(Q)
        n = A.shape[0]
        W = _matrix_sign(np.block([[A, -weights.G], [-Q, -A.T]]))
        if W is None:
            return None
        eye = np.eye(n)
        P = np.linalg.lstsq(np.vstack([W[:n, n:], W[n:, n:] + eye]),
                            -np.vstack([W[:n, :n] + eye, W[n:, :n]]), rcond=None)[0]
    except (np.linalg.LinAlgError, ValueError):  # Q not definite, shapes that do not fit
        return None
    P = 0.5 * (P + P.T)
    if _contract_failure(A, Q, weights.G, P) is not None:
        return None
    return P


def _matrix_sign(Z: np.ndarray) -> np.ndarray | None:
    """``sign(Z)`` by the determinant-scaled Newton iteration ``Z ← (Z/c
    + c Z⁻¹)/2``, ``c = |det Z|^(1/N)``; None when an iterate is singular
    or not finite, or ``SIGN_MAX_STEPS`` steps do not converge."""
    N = Z.shape[0]
    near = False
    for _ in range(SIGN_MAX_STEPS):
        sign, logdet = np.linalg.slogdet(Z)
        if sign == 0.0 or not math.isfinite(logdet):
            return None
        c = math.exp(logdet / N)
        step = 0.5 * (Z / c + c * np.linalg.inv(Z))
        change, size = np.linalg.norm(step - Z, 1), np.linalg.norm(step, 1)
        Z = step
        if not math.isfinite(size):
            return None
        if near or change <= SIGN_TOL * size:
            return Z
        near = change <= math.sqrt(SIGN_TOL) * size
    return None


def _newton_kleinman(
    A: np.ndarray, Q: np.ndarray, start: RiccatiState, weights: RiccatiWeights
) -> RiccatiState | None:
    """Inexact Newton-Kleinman for P A + Aᵀ P + Q − P G P = 0 from
    ``start.P``: chord corrections on ``start``'s Schur form, if it has
    one, then Newton-Kleinman steps, as :func:`solve_are` describes.

    Returns the :class:`RiccatiState` of the converged iterate once it
    meets the residual/Hurwitz contract of ``solve_are``, or None when
    a Newton step's closed loop ``A − G P`` is not Hurwitz, LAPACK fails
    in a Newton step, an iterate is not finite, ``NEWTON_MAX_STEPS``
    Newton steps do not reach the ``NEWTON_TOL`` residual, or the result
    breaks the contract.  The residual is measured against the larger
    of ``1 + ||P||`` and the size of its terms: the round-off floor of a
    badly scaled system lies above ``NEWTON_TOL (1 + ||P||)``, and the
    iteration would stagnate there until the fallback.  A chord that
    diverges, even to overflow, is discarded like one that contracts too
    little, under an error state that keeps numpy from warning.
    """
    G = weights.G
    P = start.P
    chord = None if start.T is None else (start.T, start.Z)
    newton_steps = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            norm_A = _norm(A)
            closed, res, res_norm, norm_P = _riccati_terms(A, Q, G, P)
            if not math.isfinite(res_norm):
                return None
            while True:
                # Each correction solves Cᵀ δ + δ C = Res(P) for P − δ.
                if chord is None:
                    if newton_steps == NEWTON_MAX_STEPS:
                        return None
                    newton_steps += 1
                    delta = _lyapunov(closed, res)
                    if delta is None:
                        return None
                else:
                    delta = _schur_lyapunov(*chord, res)
                    if delta is None:
                        chord = None
                        continue
                trial = P - 0.5 * (delta + delta.T)
                terms = _riccati_terms(A, Q, G, trial)
                if chord is None:
                    if not math.isfinite(terms[2]):
                        return None
                elif not terms[2] <= CHORD_CONTRACTION * res_norm:
                    # Newton-Kleinman goes on from the better iterate.
                    chord = None
                    if not terms[2] < res_norm:
                        continue
                P = trial
                closed, res, res_norm, norm_P = terms
                if res_norm <= NEWTON_TOL * max(1.0 + norm_P, norm_A * norm_P
                                                + norm_P**2 * weights.norm_G + weights.norm_Q):
                    break
    except (np.linalg.LinAlgError, ValueError):  # wrong-shaped guess
        return None
    if not _residual_ok(res_norm, norm_P):
        return None
    schur = _hurwitz_schur(closed)
    return None if schur is None else RiccatiState(P, *schur)


def _riccati_terms(
    A: np.ndarray, Q: np.ndarray, G: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(closed, res, res_norm, norm_P)`` of a symmetric ``P``: the
    closed loop ``A − G P``, the Riccati residual ``P A + Aᵀ P + Q − P G
    P`` (formed as ``P closed + Aᵀ P + Q``, since ``G = B R⁻¹ Bᵀ``) and
    the Frobenius norms of the residual and of ``P``."""
    closed = A - G.dot(P)
    res = P.dot(closed)
    res += A.T.dot(P)
    res += Q
    return closed, res, _norm(res), _norm(P)


def _residual_ok(res_norm: float, norm_P: float) -> bool:
    """Whether a Riccati residual meets the contract's ``1e-8 (1 + ||P||)``."""
    return res_norm <= 1e-8 * (1.0 + norm_P)


def _contract_failure(
    A: np.ndarray, Q: np.ndarray, G: np.ndarray, P: np.ndarray
) -> str | None:
    """Why a cold symmetric ``P`` breaks ``solve_are``'s contract, or
    None if it keeps it.

    The contract is the residual bound of :func:`_residual_ok` on the
    :func:`_riccati_terms` of ``P``, then a closed loop ``A − G P`` that
    ``np.linalg.eigvals`` finds Hurwitz.
    """
    closed, _, res_norm, norm_P = _riccati_terms(A, Q, G, P)
    if not _residual_ok(res_norm, norm_P):
        return f"Riccati residual too large: {res_norm:.3e}"
    if not np.max(np.linalg.eigvals(closed).real) < 0.0:
        return "closed loop not Hurwitz; (A, B) may not be stabilizable"
    return None


def _norm(X: np.ndarray) -> float:
    """Frobenius norm by the operations of ``np.linalg.norm(X)``: the dot
    product of ``X`` raveled in memory order with itself, then sqrt."""
    v = X.ravel(order="K")
    return math.sqrt(v.dot(v))


def _lyapunov(closed: np.ndarray, C: np.ndarray) -> np.ndarray | None:
    """Solve ``closedᵀ X + X closed = C`` for a Hurwitz ``closed``: the
    Schur form of :func:`_hurwitz_schur`, then :func:`_schur_lyapunov`.
    Returns None when ``closed`` is not Hurwitz, when ``dgees`` fails or
    when ``dtrsyl`` reports a failure, including eigenvalue sums near
    zero.
    """
    schur = _hurwitz_schur(closed)
    if schur is None:
        return None
    return _schur_lyapunov(*schur, C)


def _schur_lyapunov(T: np.ndarray, Z: np.ndarray, C: np.ndarray) -> np.ndarray | None:
    """Solve ``closedᵀ X + X closed = C`` on the real Schur form
    ``closedᵀ = Z T Zᵀ``.

    Bartels-Stewart: the equation becomes ``T Y + Y Tᵀ = Zᵀ C Z`` for
    ``Y = Zᵀ X Z``, which ``dtrsyl`` solves up to a scale it reports
    against overflow.  This is the arrangement of scipy's
    ``solve_continuous_lyapunov``.  Returns None when ``dtrsyl`` reports
    a failure, including eigenvalue sums near zero.
    """
    Y, scale, info = scipy_linalg().lapack.dtrsyl(T, T, Z.T.dot(C.dot(Z)), tranb="T")
    if info != 0:
        return None
    if scale != 1.0:
        Y /= scale
    return Z.dot(Y).dot(Z.T)


def _hurwitz_schur(closed: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The real Schur form ``closedᵀ = Z T Zᵀ`` from ``dgees`` as ``(T,
    Z)``, or None when ``dgees`` fails or ``closed`` is not Hurwitz, read
    off the real parts of the eigenvalues of that Schur form."""
    T, _, wr, _, Z, _, info = scipy_linalg().lapack.dgees(_no_sort, closed.T)
    if info != 0 or not wr.max() < 0.0:
        return None
    return T, Z


def _no_sort(wr: float, wi: float) -> int:
    """Eigenvalue selector ``dgees`` requires; unused without sorting."""
    return 0


#: Coefficients b_0 ... b_m of the degree-m diagonal Padé approximant
#: r_m(A) = q_m(A)^-1 p_m(A), p_m(A) = sum b_j A^j, q_m(A) = p_m(-A), of
#: exp(A) (Higham, SIAM J. Matrix Anal. Appl. 2005, eqs. 2.3 and 2.7).
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}

#: Largest 1-norm θ_m at which r_m has a backward error below the unit
#: roundoff 2^-53 (Higham 2005, Table 2.3), for m = 3, 5, 7, 9 and 13.
PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
              7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}


def _pade_table(m: int) -> np.ndarray:
    """Rows of coefficients that turn the stack ``I, A², A⁴, ...`` into
    the sums of :func:`_pade_approximant`: for m ≤ 9 the odd sum ``u``,
    with ``U = A u``, and ``V``; for m = 13 the inner and outer parts
    of each, ``U = A (A⁶ u₁ + u₂)`` and ``V = A⁶ v₁ + v₂``."""
    b = _PADE_B[m]
    if m < 13:
        return np.array([b[1::2], b[0::2]])
    return np.array([(0.0, *b[9::2]), b[1:9:2], (0.0, *b[8::2]), b[0:8:2]])


_PADE_TABLES = {m: _pade_table(m) for m in _PADE_B}


def _pade_approximant(A: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``r_m(A) = (V − U)⁻¹ (V + U)`` for ``U`` and ``V`` the odd and even
    parts of ``p_m(A)``, with ``table`` from :func:`_pade_table`.

    The even powers are stacked so that one product with ``table`` forms
    every sum of them.  ``ndarray.dot`` has the bits of ``@`` and a
    fraction of its call cost on small matrices.
    """
    k, n = table.shape[1], A.shape[0]
    evens = np.empty((k, n, n))
    evens[0] = np.eye(n)
    np.dot(A, A, out=evens[1])
    for j in range(2, k):
        np.dot(evens[j - 1], evens[1], out=evens[j])
    sums = table.dot(evens.reshape(k, n * n)).reshape(-1, n, n)
    if len(sums) == 2:
        odd, even = sums
    else:
        A6 = evens[3]
        odd = A6.dot(sums[0]) + sums[1]
        even = A6.dot(sums[2]) + sums[3]
    odd = A.dot(odd)
    return np.linalg.solve(even - odd, even + odd)


def matrix_exponential(M: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Compute ``exp(M * scale)`` by Padé scaling-and-squaring in numpy.

    The algorithm of Higham (SIAM J. Matrix Anal. Appl. 2005): with ``A
    = M * scale``, the lowest degree m of 3, 5, 7 and 9 whose
    ``PADE_THETA[m]`` bounds the 1-norm of ``A`` gives ``r_m(A)``; above
    those, ``A`` is halved ``s = ⌈log₂(‖A‖₁ / θ₁₃)⌉`` times and ``r₁₃(A
    / 2^s)`` squared ``s`` times.  scipy's ``expm``, the tests' oracle,
    follows Al-Mohy & Higham (ibid. 2009), who keep these degrees and
    thresholds but choose ``s`` from norms of powers of ``A``; where
    ``‖A‖₁`` far exceeds the spectral radius the 2005 choice squares more
    often and loses a few digits to it.  Agreement with scipy, relative:
    at most 3.6e-13 on 3000 random 12 × 12 matrices of 1-norm 1e-4 ...
    1e3, and 8.4e-12 on the finite-horizon SDRE Hamiltonians of a
    2000 s horizon, whose ``‖H τ‖₁ = 2000`` takes 9 squarings; well
    inside 1e-10.

    Raises NumericsError when ``M * scale`` is not finite, read off its
    1-norm before any power is formed, and when its 1-norm or the result
    overflows.  The scaling and squaring run under an error state that
    keeps numpy from warning of the overflow or invalid value first.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.asarray(M, dtype=float) * scale
        norm = max(np.abs(A).sum(axis=0).tolist())
        if not math.isfinite(norm):
            if not np.isfinite(A).all():
                raise NumericsError("non-finite argument of the matrix exponential")
            raise NumericsError("overflow in matrix exponential")
        for m in (3, 5, 7, 9):
            if norm <= PADE_THETA[m]:
                out = _pade_approximant(A, _PADE_TABLES[m])
                break
        else:
            s = max(0, math.ceil(math.log2(norm / PADE_THETA[13])))
            out = _pade_approximant(A * 2.0**-s, _PADE_TABLES[13])
            for _ in range(s):
                out = out.dot(out)
    if not np.all(np.isfinite(out)):
        raise NumericsError("overflow in matrix exponential")
    return out


def fd_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x``.

    The step for component ``j`` is ``h * max(1, |x_j|)``.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    n = x.size
    J = np.zeros((f0.size, n))
    for j in range(n):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (
            2.0 * step
        )
    return J
