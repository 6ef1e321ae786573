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
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import ztrsyl
from scipy.sparse.linalg import LinearOperator, svds

from .errors import (AliasingError, DimensionCapError, SingularFactorError,
                     ValidationError)
from . import grid as grid_mod

#: Largest space-time dimension N_tau1 * N_eta the solver accepts.  On a
#: 2-core x86 VM, dim 2^16 solves with its condition report in ~15 s and
#: 2^17 in ~60 s.
DIM_CAP = 2 ** 16

#: Smallest eigenvalue magnitude fast_invert_exact reciprocates.
EIGEN_FLOOR = 1e-30


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


def _a2_eigenvalues(spec):
    """Eigenvalues of A2 in the centered-Fourier basis, eta_hat^2/delta_hat^2."""
    return grid_mod.eta_hat_diagonal(spec.n_eta) ** 2 / spec.delta_eta_hat ** 2


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
        eig = _a2_eigenvalues(spec)
        if np.min(np.abs(eig)) < EIGEN_FLOOR:
            raise SingularFactorError("A2 eigenvalue below floor")
        F = grid_mod.build_centered_dft(spec.n_eta)
        return F.conj().T @ ((1.0 / eig)[:, None] * F)
    raise ValidationError("kind must be 'A1' or 'A2'")


class SpaceTimeSystem:
    """The preconditioned space-time system of one grid, matrix-free.

    The assembled system is the Kronecker sum M = Ct (x) I + I (x) L,
    with Ct = delta_tau1*(C_tau1 + C_close) the closed time operator and
    L = C_eta1 + C_eta2.  On X = x.reshape(N_tau1, N_eta) it acts as
    Ct X + X L^T, and M X = C is the Sylvester equation solved exactly by
    the Bartels-Stewart method: with the complex Schur forms Ct = U R U^H
    and L^T = V S V^H, R Y + Y S = U^H C V is triangular (LAPACK ztrsyl)
    and X = U Y V^H.  M^H is solved the same way.  Ct is not normal (its
    closure row), which the Schur route does not need.

    The split of grid.assemble_system follows from M without forming it:
    A + B = (I (x) A1^-1) M, A = I (x) A2, B = (A + B) - A and
    W = I + A^-1 B = (I (x) A2^-1) (A + B).  They are kept as
    LinearOperators (`AB`, `AB_inv`, `B`, `W`, `W_inv`).  The object
    stands for W x = rhs_pre: `system @ x` is W x and `system.solve(r)`
    is W^-1 r.
    """

    def __init__(self, spec, params, kink_shift=0.0):
        if spec.dim > DIM_CAP:
            raise DimensionCapError(
                f"dimension {spec.dim} exceeds cap {DIM_CAP}")
        ops = grid_mod.build_operators(spec, params, kink_shift=kink_shift)
        self.spec = spec
        self.norm_b = ops.norm_b
        # complex once here rather than on every zgemm call
        self._Ct = spec.delta_tau1 * (ops.C_tau1 + ops.C_close).astype(complex)
        self._Lt = (ops.C_eta1 + ops.C_eta2).T
        self._R, self._U = schur(self._Ct, output="complex")
        self._S, self._V = schur(self._Lt, output="complex")
        a1_inv = fast_invert_exact("A1", spec, params)
        a2_inv = fast_invert_exact("A2", spec, params)
        M = self._operator(self._apply, lambda X: self._apply(X, True))
        M_inv = self._operator(self._solve, lambda X: self._solve(X, True))
        A = self._blocks(ops.A2)
        self.AB = self._blocks(a1_inv) @ M
        self.AB_inv = M_inv @ self._blocks(ops.A1)
        self.B = self.AB - A
        self.W = self._blocks(a2_inv) @ self.AB
        self.W_inv = self.AB_inv @ A
        self.rhs_pre = self._blocks(a2_inv @ a1_inv) @ ops.rhs_hat

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
        norm_A_inv = 1.0 / float(np.min(_a2_eigenvalues(self.spec)))
        return PreconditionReport(
            kappa_raw=_norm2(self.AB) * norm_AB_inv,
            kappa_W=_norm2(self.W) * _norm2(self.W_inv),
            C_AB=1.0 + norm_AB_inv * norm_B,
            C_AB_prime=1.0 + norm_A_inv * norm_B)

    # Products go through scipy's BLAS (zgemm; trans 1 = T, 2 = H), the
    # library ztrsyl and ARPACK use: numpy ships its own OpenBLAS, and
    # interleaving the two libraries' thread pools slowed the report
    # five-fold on two cores.

    def _apply(self, X, adjoint=False):
        """M X = Ct X + X L^T, or M^H X = Ct^H X + X conj(L)."""
        t = 2 if adjoint else 0
        return (zgemm(1.0, self._Ct, X, trans_a=t)
                + zgemm(1.0, X, self._Lt, trans_b=t))

    def _solve(self, X, adjoint=False):
        """M^-1 X, or M^-H X, by one triangular Sylvester solve."""
        trans = "C" if adjoint else "N"
        C = zgemm(1.0, zgemm(1.0, self._U, X, trans_a=2), self._V)
        Y, scale, info = ztrsyl(self._R, self._S, C, trana=trans, tranb=trans)
        if info != 0:
            raise SingularFactorError(
                "Ct and -L share an eigenvalue: the system is singular")
        return zgemm(1.0 / scale, zgemm(1.0, self._U, Y), self._V, trans_b=2)

    def _operator(self, on_grid, on_grid_adjoint):
        """LinearOperator on flat vectors of maps on (N_tau1, N_eta) grids."""
        shape = (self.spec.N_tau1, self.spec.N_eta)
        return LinearOperator(
            (self.spec.dim, self.spec.dim), dtype=complex,
            matvec=lambda x: on_grid(x.reshape(shape)).reshape(-1),
            rmatvec=lambda x: on_grid_adjoint(x.reshape(shape)).reshape(-1))

    def _blocks(self, mat):
        """I (x) mat: X -> X mat^T."""
        mat_conj = mat.conj()
        return self._operator(lambda X: zgemm(1.0, X, mat, trans_b=1),
                              lambda X: zgemm(1.0, X, mat_conj))


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
