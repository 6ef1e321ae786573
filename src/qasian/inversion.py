"""Fast inversion of the diagonalizable factors and preconditioning.

The system matrix splits as (A + B) with A = I (x) A2 block-diagonal in
the centered-Fourier basis and A1 diagonal in position, so both factors
invert exactly by reciprocating eigenvalues.  A windowed-phase-estimation
simulation of the same inversion is provided for scaling studies: it
works per eigenvalue (the factors' eigenbases are known analytically,
which is exactly what makes them fast-forwardable), never materializing
the phase-register unitary.

Preconditioning replaces (A+B)x = b by W x = rhs_pre with W = I + A^-1 B,
whose condition number is bounded by
(1 + ||(A+B)^-1|| ||B||) * (1 + ||A^-1|| ||B||).  SpaceTimeSystem applies
and solves every operator of the split through the Kronecker-sum
structure of the system, without forming a dim x dim matrix.
"""

from dataclasses import dataclass
import json
import math

import numpy as np
from scipy.linalg import schur
from scipy.linalg.blas import zgemm, zgemv
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse.linalg import LinearOperator, svds

from .errors import (AliasingError, DimensionCapError, SingularFactorError,
                     ValidationError)
from . import grid as grid_mod

#: Largest space-time dimension N_tau1 * N_eta the solver accepts.  On a
#: shared 2-core x86 VM, sigma=1, n_eta=7 (512 x 128, dim 2^16) solved
#: with its condition report in 1.7-3.5 s and sigma=0.5, n_eta=8
#: (512 x 256, dim 2^17) in 4.4-8.3 s, at a peak RSS of 152 MB.
DIM_CAP = 2 ** 17

#: Smallest eigenvalue magnitude fast_invert_exact reciprocates.
EIGEN_FLOOR = 1e-30

#: Largest dimension whose Schur-transformed system is solved as one
#: banded matrix rather than column by column.  On a 2-core x86 VM a
#: solve_pricing_system at 8 x 32 took 28 ms whole and 43 ms by columns,
#: at 16 x 32 39 and 46 ms, and at 32 x 32 75 and 58 ms.
BANDED_SYSTEM_DIM = 2 ** 9


@dataclass(frozen=True)
class QPEConfig:
    """Windowed phase-estimation settings.

    T_HHL : window length (power of two, >= 2)
    t0    : evolution-time scale; estimation error is O(1/t0)
    C     : rotation constant in (0, 1); None -> 0.5/kappa of the input
    """

    T_HHL: int
    t0: float
    C: float = None

    def __post_init__(self):
        if self.T_HHL < 2 or self.T_HHL & (self.T_HHL - 1):
            raise ValidationError(
                "T_HHL must be a power of two >= 2 (the sine window is not "
                "unit-norm at T_HHL = 1)")
        if self.C is not None and not 0 < self.C < 1:
            raise ValidationError("C must lie in (0, 1)")


@dataclass(frozen=True)
class PreconditionReport:
    """Condition numbers of the raw and preconditioned systems."""

    kappa_raw: float
    kappa_W: float
    C_AB: float
    C_AB_prime: float

    @property
    def bound_satisfied(self):
        return self.kappa_W <= self.C_AB * self.C_AB_prime * (1 + 1e-9)

    def to_json(self):
        return json.dumps({
            "kappa_raw": self.kappa_raw,
            "kappa_W": self.kappa_W,
            "C_AB": self.C_AB,
            "C_AB_prime": self.C_AB_prime,
            "bound_satisfied": bool(self.bound_satisfied),
        })


def window_state(T_HHL):
    """Sine window sqrt(2/T)*sin(pi*(tau+1/2)/T), tau = 0..T-1.

    Unit norm for every T >= 2; the T = 1 case evaluates to sqrt(2) and
    is returned as-is (callers that need a state must use T >= 2).
    """
    if T_HHL < 1:
        raise ValidationError("T_HHL must be >= 1")
    tau = np.arange(T_HHL)
    return math.sqrt(2.0 / T_HHL) * np.sin(np.pi * (tau + 0.5) / T_HHL)


def qpe_invert(eigenvalues, cfg):
    """Simulated windowed-QPE inversion of a known spectrum.

    For each eigenvalue lam, the sine-windowed phase register evolves
    with phase lam*t0*tau/T, is Fourier transformed, and the dominant
    bin k* gives the estimate lam_est = 2*pi*k*/t0.  Returns
    (1/lam_est per eigenvalue, per-eigenvalue success probability of the
    C/lam rotation).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam == 0):
        raise ValidationError("eigenvalues must be nonzero")
    T = cfg.T_HHL
    t0 = cfg.t0
    if np.max(np.abs(lam)) * t0 / (2 * np.pi) >= T:
        raise AliasingError(
            "spectrum exceeds the representable phase range: need "
            "max|lam|*t0/(2*pi) < T_HHL")
    C = cfg.C
    if C is None:
        C = 0.5 * np.min(np.abs(lam)) / np.max(np.abs(lam))
    w = window_state(T)
    tau = np.arange(T)
    k = np.arange(T)
    k_signed = np.where(k <= T // 2, k, k - T)
    lam_bins = 2 * np.pi * k_signed / t0
    inv_est = np.empty(lam.size)
    success = np.empty(lam.size)
    for j, l in enumerate(lam):
        amps = np.fft.fft(w * np.exp(1j * l * t0 * tau / T)) / math.sqrt(T)
        probs = np.abs(amps) ** 2
        probs_no0 = probs.copy()
        probs_no0[0] = 0.0  # k = 0 bin carries no invertible phase
        k_star = int(np.argmax(probs_no0))
        inv_est[j] = 1.0 / lam_bins[k_star]
        success[j] = float(np.sum(C ** 2 * probs_no0[1:] / lam_bins[1:] ** 2))
    return inv_est, success


def fast_invert_exact(kind, spec, params):
    """Exact inverse of a fast-forwardable factor.

    kind "A1": reciprocal of the position-diagonal entries.
    kind "A2": reciprocal eigenvalues in the centered-Fourier basis.
    """
    if kind == "A1":
        diag = np.diag(grid_mod.build_A1(spec, params))
        if np.min(np.abs(diag)) < EIGEN_FLOOR:
            raise SingularFactorError("A1 eigenvalue below floor")
        return np.diag(1.0 / diag)
    if kind == "A2":
        eig = grid_mod.a2_eigenvalues(spec)
        if np.min(np.abs(eig)) < EIGEN_FLOOR:
            raise SingularFactorError("A2 eigenvalue below floor")
        return grid_mod.fourier_multiplier(spec.n_eta, 1.0 / eig)
    raise ValidationError("kind must be 'A1' or 'A2'")


class SpaceTimeSystem:
    """The preconditioned space-time system of one grid, matrix-free.

    The assembled system is the Kronecker sum M = Ct (x) I + I (x) L,
    with Ct = delta_tau1*(C_tau1 + C_close) the closed time operator and
    L = C_eta1 + C_eta2.  On X = x.reshape(N_tau1, N_eta) it acts as
    Ct X + X L^T, and M X = C is the Sylvester equation solved exactly by
    the Hessenberg-Schur method (Golub, Nash and Van Loan, IEEE TAC 24(6),
    1979).  Ct is banded, with lower bandwidth 2 (the closure row) and
    upper bandwidth 1; grid.build_operators builds it in LAPACK band
    storage, which is factored as it is (`ops.Ct.data`) and applied as
    the dia_array it comes in.  Only the N_eta x N_eta L^T = V S V^H is
    brought to complex Schur form.  With Z = X V and F = C V the equation
    becomes Ct Z + Z S = F, and since S is upper triangular its columns
    solve in order, each as one shifted banded system (Ct + S_jj I) z_j = f_j - Z[:, :j] S[:j, j]; then
    X = Z V^H.  Each Ct + S_jj I is LU-factored once (LAPACK zgbtrf), and
    M^H X = C runs the columns backwards through the same factors,
    conjugate-transposed.  Ct is not normal (its closure row), which this
    route does not need.  The factors grow as N_eta^2 + N_eta*N_tau1 + dim.

    Up to dim BANDED_SYSTEM_DIM the column loop costs more in calls than
    in arithmetic, so Ct Z + Z S = F is instead solved whole: in time-major
    order it is one banded matrix Ct (x) I + I (x) S^T with bandwidths
    (2 N_eta, N_eta), factored once and stored in (5 N_eta + 1) * dim
    entries.

    The split of the dense reference assembly follows from M without
    forming it: A + B = (I (x) A1^-1) M, A = I (x) A2, B = (A + B) - A and
    W = I + A^-1 B = (I (x) A2^-1) (A + B).  They are kept as
    LinearOperators (`AB`, `AB_inv`, `B`, `W`, `W_inv`) that close over
    the factors, never over the system, so that a system holds no
    reference to itself and is freed as soon as its caller drops it.  The
    object stands for W x = rhs_pre: `system @ x` is W x and
    `system.solve(r)` is W^-1 r.
    """

    def __init__(self, spec, params, kink_shift=0.0):
        if spec.dim > DIM_CAP:
            raise DimensionCapError(
                f"dimension {spec.dim} exceeds cap {DIM_CAP}")
        ops = grid_mod.build_operators(spec, params, kink_shift=kink_shift)
        self.spec = spec
        self.norm_b = ops.norm_b
        shape = (spec.N_tau1, spec.N_eta)
        Ct = ops.Ct
        Lt = (ops.C_eta1 + ops.C_eta2).T
        S, V = schur(Lt, output="complex")
        if spec.dim <= BANDED_SYSTEM_DIM:
            solve_schur = _whole_solver(Ct.data, S)
        else:
            solve_schur = _column_solver(Ct.data, S)
        Ct_adj = Ct.T  # Ct is real
        a1 = np.diag(ops.A1)
        a1_inv = np.diag(fast_invert_exact("A1", spec, params))
        apply_A = _blocks(ops.A2)
        apply_A2_inv = _blocks(fast_invert_exact("A2", spec, params))

        # Products go through scipy's BLAS (zgemm, zgemv; trans 1 = T,
        # 2 = H), the library zgbtrs and ARPACK use: numpy ships its own
        # OpenBLAS, and interleaving the two libraries' thread pools slowed
        # the report five-fold on two cores.

        def apply(X, adjoint):
            """M X = Ct X + X L^T, or M^H X = Ct^H X + X conj(L)."""
            if adjoint:
                return Ct_adj @ X + zgemm(1.0, X, Lt, trans_b=2)
            return Ct @ X + zgemm(1.0, X, Lt)

        def solve(X, adjoint):
            """M^-1 X, or M^-H X, through Ct Z + Z S = X V."""
            return zgemm(1.0, solve_schur(zgemm(1.0, X, V), adjoint), V,
                         trans_b=2)

        def ab(X, adjoint):
            """A + B = (I (x) A1^-1) M, A1 a column scaling."""
            if adjoint:
                return apply(X * a1_inv, True)
            return apply(X, False) * a1_inv

        def ab_inv(X, adjoint):
            """(A + B)^-1 = M^-1 (I (x) A1)."""
            if adjoint:
                return solve(X, True) * a1
            return solve(X * a1, False)

        self.AB = _operator(shape, ab)
        self.AB_inv = _operator(shape, ab_inv)
        self.B = _operator(shape, lambda X, adjoint: (
            ab(X, adjoint) - apply_A(X, adjoint)))
        self.W = _operator(shape, _compose(apply_A2_inv, ab))
        self.W_inv = _operator(shape, _compose(ab_inv, apply_A))
        self.rhs_pre = apply_A2_inv(
            ops.rhs_hat.reshape(shape) * a1_inv, False).reshape(-1)

    def __matmul__(self, x):
        return self.W @ x

    def solve(self, rhs_pre):
        """W^-1 rhs_pre, through one Sylvester solve of M."""
        return self.W_inv @ rhs_pre

    def report(self):
        """Condition numbers and bound terms from largest singular values."""
        norm_B = _norm2(self.B)
        norm_AB_inv = _norm2(self.AB_inv)
        # ||A^-1|| = ||A2^-1||, the reciprocal of A2's smallest eigenvalue
        norm_A_inv = 1.0 / float(np.min(grid_mod.a2_eigenvalues(self.spec)))
        return PreconditionReport(
            kappa_raw=_norm2(self.AB) * norm_AB_inv,
            kappa_W=_norm2(self.W) * _norm2(self.W_inv),
            C_AB=1.0 + norm_AB_inv * norm_B,
            C_AB_prime=1.0 + norm_A_inv * norm_B)


def _operator(shape, on_grid):
    """LinearOperator on flat vectors of on_grid(X, adjoint), a map of grids."""
    dim = shape[0] * shape[1]
    return LinearOperator(
        (dim, dim), dtype=complex,
        matvec=lambda x: on_grid(x.reshape(shape), False).reshape(-1),
        rmatvec=lambda x: on_grid(x.reshape(shape), True).reshape(-1))


def _compose(outer, inner):
    """The map of grids outer . inner, whose adjoint is inner^H . outer^H."""
    return lambda X, adjoint: (inner(outer(X, True), True) if adjoint
                               else outer(inner(X, False), False))


def _blocks(mat):
    """I (x) mat as a map of grids: X -> X mat^T."""
    mat_conj = mat.conj()
    return lambda X, adjoint: (zgemm(1.0, X, mat_conj) if adjoint
                               else zgemm(1.0, X, mat, trans_b=1))


def _band_lu(band, kl, ku, shift):
    """LU factors (zgbtrf) of band + shift*I, band in LAPACK band storage."""
    ab = np.zeros((kl + band.shape[0], band.shape[1]), dtype=complex)
    ab[kl:] = band  # zgbtrf fills the top kl rows with U's fill-in
    ab[kl + ku] += shift
    lu, piv, info = zgbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        raise SingularFactorError(
            "Ct and -L share an eigenvalue: the system is singular")
    return lu, piv


def _column_solver(band, S):
    """(F, adjoint) -> Z with Ct Z + Z S = F, or Ct^H Z + Z S^H = F.

    One shifted banded solve per column, in place on F's columns (F in
    Fortran order, as zgemm returns it).
    """
    n = S.shape[0]
    kl, ku = grid_mod.TIME_KL, grid_mod.TIME_KU
    factors = [_band_lu(band, kl, ku, shift) for shift in np.diag(S)]
    S = np.asfortranarray(S)
    S_adj = np.asfortranarray(S.conj().T)  # lower triangular

    def solve(F, adjoint):
        if adjoint:
            order, S_cols, trans = range(n - 1, -1, -1), S_adj, 2
        else:
            order, S_cols, trans = range(n), S, 0
        for j in order:
            done = slice(j + 1, n) if adjoint else slice(0, j)
            if done.start != done.stop:
                zgemv(-1.0, F[:, done], S_cols[done, j], beta=1.0,
                      y=F[:, j], overwrite_y=1)
            lu, piv = factors[j]
            zgbtrs(lu, kl, ku, F[:, j:j + 1], piv, trans=trans,
                   overwrite_b=1)
        return F
    return solve


def _whole_solver(band, S):
    """(F, adjoint) -> Z with Ct Z + Z S = F, or Ct^H Z + Z S^H = F.

    Row-major vec(Z) solves Ct (x) I + I (x) S^T, one banded matrix with
    lower bandwidth 2 N_eta and upper bandwidth N_eta: Ct's diagonal s
    lands on diagonal s*N_eta, and S^T fills diagonals 0..N_eta-1.
    """
    n_eta = S.shape[0]
    kl, ku = grid_mod.TIME_KL * n_eta, grid_mod.TIME_KU * n_eta
    whole = np.zeros((kl + ku + 1, band.shape[1] * n_eta), dtype=complex)
    whole[::n_eta] = np.repeat(band, n_eta, axis=1)
    for d in range(n_eta):
        # S^T[k' + d, k'] = S[k', k' + d] on diagonal d
        whole[ku + d] += np.tile(np.pad(np.diagonal(S, d), (0, d)),
                                 band.shape[1])
    lu, piv = _band_lu(whole, kl, ku, 0.0)

    def solve(F, adjoint):
        z, _ = zgbtrs(lu, kl, ku, np.ascontiguousarray(F).reshape(-1, 1),
                      piv, trans=2 if adjoint else 0, overwrite_b=1)
        return z.reshape(F.shape)
    return solve


def _norm2(op):
    """Largest singular value of a LinearOperator (ARPACK, full precision)."""
    return float(svds(op, k=1, tol=0, return_singular_vectors=False,
                      rng=np.random.default_rng(0))[0])


def precondition(spec, params, kink_shift=0.0):
    """Form the preconditioned system W x = rhs_pre and its report.

    W = I + A^-1 B is returned as a SpaceTimeSystem and
    rhs_pre = (I (x) A2^-1 A1^-1) b_hat, so the solution set coincides
    with that of the assembled system M x = b_hat.
    """
    W = SpaceTimeSystem(spec, params, kink_shift=kink_shift)
    return W, W.rhs_pre, W.report()


def condition_report(A, B, W):
    """Numeric condition numbers and the preconditioning bound terms.

    Dense reference for explicit matrices; the pipeline's report comes
    from SpaceTimeSystem.report.
    """
    AB = A + B
    kappa_raw = float(np.linalg.cond(AB))
    kappa_W = float(np.linalg.cond(W))
    norm_B = float(np.linalg.norm(B, 2))
    C_AB = 1.0 + float(np.linalg.norm(np.linalg.inv(AB), 2)) * norm_B
    C_AB_prime = 1.0 + float(np.linalg.norm(np.linalg.inv(A), 2)) * norm_B
    return PreconditionReport(kappa_raw, kappa_W, C_AB, C_AB_prime)


def solve_system(W, rhs_pre, tol=1e-10):
    """Direct solve of the preconditioned system with a residual check.

    W is a SpaceTimeSystem or a dense matrix.  Stands in for the
    polynomial-approximation inverse of the quantum pipeline; the
    conditioning and accuracy claims under test do not depend on the
    solver.
    """
    try:
        if isinstance(W, SpaceTimeSystem):
            x = W.solve(rhs_pre)
        else:
            x = np.linalg.solve(W, rhs_pre)
    except np.linalg.LinAlgError as exc:
        raise SingularFactorError(f"system solve failed: {exc}") from exc
    res = np.linalg.norm(W @ x - rhs_pre) / max(np.linalg.norm(rhs_pre), 1e-300)
    if not np.isfinite(res) or res > tol:
        raise SingularFactorError(
            f"relative residual {res:.3e} exceeds tolerance {tol:.1e}")
    return x


def solve_pricing_system(spec, params, kink_shift=0.0):
    """End-to-end solve: returns (psi_tilde, norm_b, report).

    psi_tilde is the unit-free solution of the rescaled system; the
    physical surface is sqrt(norm_b) * psi_tilde reshaped to
    (N_tau1, N_eta).
    """
    W, rhs_pre, report = precondition(spec, params, kink_shift=kink_shift)
    return solve_system(W, rhs_pre), W.norm_b, report
