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
from scipy.linalg.blas import dgemm, dnrm2
from scipy.linalg.lapack import (dgbtrf, dgbtrs, dgetrf, dgetrs, dgttrf,
                                 dgttrs, dstebz, dstein, zgetrf, zgetrs,
                                 zgttrf, zgttrs)
from scipy.sparse.linalg import LinearOperator

from .errors import (AliasingError, DimensionCapError, NormConvergenceError,
                     SingularFactorError, ValidationError)
from . import grid as grid_mod

#: Largest space-time dimension N_tau1 * N_eta the solver accepts.  On a
#: shared 2-core x86 VM with 2 BLAS threads, `qasian price` at sigma=1,
#: n_eta=7 (512 x 128, dim 2^16) took 1.8 s at a peak RSS of 72 MB, and
#: at sigma=0.5, n_eta=8 (512 x 256, dim 2^17) 2.8-3.1 s at 83 MB (three
#: runs each).
DIM_CAP = 2 ** 17

#: Smallest eigenvalue magnitude fast_invert_exact reciprocates.
EIGEN_FLOOR = 1e-30

#: Largest dimension whose Schur-transformed system is solved as one
#: banded matrix rather than block by block.  Per solve, the whole band
#: does arithmetic growing as dim * N_eta, and the blocks add a fixed
#: call cost per block, about N_eta of them, on tridiagonal solves of
#: O(dim) arithmetic in all: the crossing is set by dim.  On a shared
#: 2-core x86 VM (solve_pricing_system with its report, medians of 7
#: calls, 5 alternating rounds) the whole band was faster at dim 512 in
#: 18 of 20 rounds (32 x 16: 11-12 ms against 14-16 ms by blocks; 16 x 32,
#: 8 x 64, 64 x 16) and at dim 1024 in 14 of 20 (32 x 32: 21-34 against
#: 25-35 ms; 64 x 16, 16 x 64, 8 x 128), and slower at dim 2048 in 13 of
#: 15 (64 x 32: 38-46 against 28-29 ms; 32 x 64, 16 x 128).  Only dim
#: selects the whole band, whose (5 N_eta + 1) * dim entries grow as
#: N_eta^2 at a fixed N_tau1: an N_tau1 = 2 grid with many columns
#: (make_grid at low volatility) takes the blocks like any other.
BANDED_SYSTEM_DIM = 2 ** 10

#: Most Golub-Kahan-Lanczos steps _norm2 takes before it raises
#: NormConvergenceError.  Measured need up to DIM_CAP: at most 43 steps
#: for sigma from 0.3 to 2 (||W^-1|| at sigma = 0.5, n_eta = 8), a 7x
#: margin; 56 at sigma = 1, n_eta = 8, past the cap.  Tall grids need
#: more: 175 at sigma = 10, n_eta = 3 (256 x 8) and 229 at sigma = 30,
#: n_eta = 2 (512 x 4).  Where their top singular values cluster
#: (sigma = 100, n_eta = 2, 4096 x 4) the bound ends the report in
#: seconds.
NORM_STEPS = 300

#: Relative residual of the top Ritz triple at which _norm2 stops.
NORM_TOL = 1e-10


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
    L = C_eta1 + C_eta2, both real.  On X = x.reshape(N_tau1, N_eta) it
    acts as Ct X + X L^T, and M X = C is the Sylvester equation solved
    exactly, in real arithmetic, by the Hessenberg-Schur method (Golub,
    Nash and Van Loan, IEEE TAC 24(6), 1979).  Ct is banded, with lower
    bandwidth 2 (the closure row) and upper bandwidth 1;
    grid.build_operators builds it in LAPACK band storage, which the
    factors are taken from as it is (`ops.Ct.data`), and it is applied as
    the dia_array it comes in.  Only the N_eta x N_eta L^T = V T V^T is
    brought to real Schur form: V is orthogonal and T quasi-upper-
    triangular, with a 1 x 1 diagonal block per real eigenvalue of L and a
    2 x 2 block per complex pair.  With Z = X V and F = C V the equation
    becomes Ct Z + Z T = F, and its column blocks solve in order: block J
    takes Ct Z_J + Z_J T_JJ = F_J - Z[:, :J] T[:J, J].  Each block is one
    tridiagonal system of N_tau1 unknowns (_block_solver): one row
    operation clears the closure row's entry below the subdiagonal, a
    1 x 1 block is the real shifted system Ct + T_jj I, and a 2 x 2 block
    is one complex shifted system Ct + (a + i w) I (at N_tau1 = 2, a
    2 x 2 dense one).  M^T X = C runs the
    blocks backwards through the same factors, transposed.  Ct is not
    normal (its closure row), which this route does not need.  The
    factors grow as N_eta^2 + N_eta*N_tau1 + dim.

    Up to dim BANDED_SYSTEM_DIM the block loop costs more in calls than
    in arithmetic, so all N_eta columns are solved at once
    (_band_solver): Ct (x) I + I (x) T^T in time-major order, bandwidths
    (2 N_eta, N_eta) because T^T reaches only one diagonal above the main
    one, factored once (dgbtrf) and stored in (5 N_eta + 1) * dim
    entries.

    The split of the dense reference assembly follows from M without
    forming it: A + B = (I (x) A1^-1) M, A = I (x) A2, B = (A + B) - A and
    W = I + A^-1 B = (I (x) A2^-1) (A + B).  They are kept as real
    LinearOperators (`AB`, `AB_inv`, `B`, `W`, `W_inv`); a complex vector
    is applied as its real and imaginary parts.  `report` takes their
    largest singular values by Golub-Kahan-Lanczos bidiagonalisation
    (_norm2), in at most NORM_STEPS steps each.  The operators close
    over the factors, never over the system, so that a system
    holds no reference to itself and is freed as soon as its caller drops
    it.  The object stands for W x = rhs_pre: `system @ x` is W x and
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
        T, V = schur(Lt, output="real")
        if spec.dim <= BANDED_SYSTEM_DIM:
            solve_schur = _band_solver(Ct.data, T)
        else:
            solve_schur = _block_solver(Ct.data, T)
        Ct_adj = Ct.T
        a1 = np.diag(ops.A1)
        a1_inv = np.diag(fast_invert_exact("A1", spec, params))
        apply_A = _blocks(ops.A2)
        apply_A2_inv = _blocks(fast_invert_exact("A2", spec, params))

        # Products go through scipy's BLAS (dgemm; trans_b=1 is the
        # transpose), the library of the LAPACK solves and _norm2: numpy
        # ships its own OpenBLAS, and interleaving the two libraries'
        # thread pools slowed the report five-fold on two cores.

        def apply(X, adjoint):
            """M X = Ct X + X L^T, or M^T X = Ct^T X + X L."""
            if adjoint:
                return Ct_adj @ X + dgemm(1.0, X, Lt, trans_b=1)
            return Ct @ X + dgemm(1.0, X, Lt)

        def solve(X, adjoint):
            """M^-1 X, or M^-T X, through Ct Z + Z T = X V."""
            return dgemm(1.0, solve_schur(dgemm(1.0, X, V), adjoint), V,
                         trans_b=1)

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
    """Real LinearOperator on flat vectors of on_grid(X, adjoint), a real
    map of grids; a complex vector is mapped as its two real parts."""
    dim = shape[0] * shape[1]

    def on_vector(adjoint):
        def real(x):
            return on_grid(x.reshape(shape), adjoint).reshape(-1)
        # no recursion: a self-referencing closure would be a cycle
        return lambda x: (real(x.real) + 1j * real(x.imag)
                          if np.iscomplexobj(x) else real(x))
    return LinearOperator((dim, dim), dtype=float, matvec=on_vector(False),
                          rmatvec=on_vector(True))


def _compose(outer, inner):
    """The map of grids outer . inner, whose adjoint is inner^T . outer^T."""
    return lambda X, adjoint: (inner(outer(X, True), True) if adjoint
                               else outer(inner(X, False), False))


def _blocks(mat):
    """I (x) mat as a map of grids: X -> X mat^T."""
    return lambda X, adjoint: (dgemm(1.0, X, mat) if adjoint
                               else dgemm(1.0, X, mat, trans_b=1))


def _schur_blocks(T):
    """Column ranges [lo, hi) of the 1 x 1 and 2 x 2 diagonal blocks of a
    real Schur form T: a nonzero T[j, j-1] joins column j to j-1."""
    n = T.shape[0]
    starts = [j for j in range(n) if j == 0 or T[j, j - 1] == 0.0]
    return list(zip(starts, starts[1:] + [n]))


def _block_lu(band, Tb):
    """LU factors (dgbtrf) of Ct (x) I + I (x) Tb^T in time-major order.

    band is Ct in LAPACK band storage and Tb a b x b diagonal block of T.
    Ct's diagonal s lands on diagonal s*b, so the bandwidths are
    (TIME_KL b, TIME_KU b); Tb^T fills diagonals -1..b-1 of each b x b
    time block (T is zero below its first subdiagonal).
    """
    b = Tb.shape[0]
    kl, ku = grid_mod.TIME_KL * b, grid_mod.TIME_KU * b
    ab = np.zeros((2 * kl + ku + 1, band.shape[1] * b))
    # dgbtrf fills the top kl rows with U's fill-in
    ab[kl::b] = np.repeat(band, b, axis=1)
    for d in range(-1, b):
        # Tb^T[k, k - d] = Tb[k - d, k] on diagonal d
        ab[kl + ku + d] += np.tile(
            np.pad(np.diagonal(Tb, d), (max(-d, 0), max(d, 0))),
            band.shape[1])
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        raise SingularFactorError(
            "Ct and -L share an eigenvalue: the system is singular")
    return lu, piv


def _band_solver(band, T):
    """(F, adjoint) -> Z with Ct Z + Z T = F, or Ct^T Z + Z T^T = F, as
    one banded solve of all N_eta columns in time-major order."""
    b = T.shape[0]
    kl, ku = grid_mod.TIME_KL * b, grid_mod.TIME_KU * b
    lu, piv = _block_lu(band, T)

    def solve(F, adjoint):
        z = np.ascontiguousarray(F).reshape(-1, 1)
        dgbtrs(lu, kl, ku, z, piv, trans=int(adjoint), overwrite_b=1)
        return z.reshape(F.shape)
    return solve


def _shifted_solver(diagonals, s):
    """(y, trans) -> None: solves E (Ct + s I) x = y, or with trans "T"
    its transpose, in place on y; diagonals from grid.time_diagonals.

    Factored once by dgttrf, or zgttrf for a complex s.  scipy's ?gttrf
    wrappers refuse n = 2, so at N_tau1 = 2 the 2 x 2 is factored by
    dgetrf or zgetrf instead.
    """
    dl, d, du, m = diagonals
    d = d + s
    dl = dl.astype(d.dtype)
    # row N-1 -= m row N-2 on the two entries it changes
    dl[-1] -= m * d[-2]
    d[-1] -= m * du[-1]
    if d.size == 2:
        getrf, getrs = (zgetrf, zgetrs) if np.iscomplexobj(d) else \
            (dgetrf, dgetrs)
        lu, piv, info = getrf(np.array([[d[0], du[0]], [dl[0], d[1]]]))

        def solve(y, trans):
            getrs(lu, piv, y, trans=int(trans == "T"), overwrite_b=1)
    else:
        gttrf, gttrs = (zgttrf, zgttrs) if np.iscomplexobj(d) else \
            (dgttrf, dgttrs)
        # du is Ct's own band row: the wrapper factors a copy of it
        *lu, info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1)

        def solve(y, trans):
            gttrs(*lu, y, trans=trans, overwrite_b=1)
    if info != 0:
        raise SingularFactorError(
            "Ct and -L share an eigenvalue: the system is singular")
    return solve


def _block_solver(band, T):
    """(F, adjoint) -> Z with Ct Z + Z T = F, or Ct^T Z + Z T^T = F.

    T's 1 x 1 and 2 x 2 diagonal blocks (_schur_blocks) solve in order,
    each after subtracting the coupling to the blocks already solved:
    the earlier ones through T's columns, or, for the adjoint, the later
    ones through T^T's.  Each block is one tridiagonal system of N_tau1
    unknowns, E (Ct + s I) with E the closure row's row operation
    (grid.time_diagonals), factored once (_shifted_solver):
    - a 1 x 1 block is Ct z + t_jj z = g, s = t_jj real, solved in place
      on F's column (F in Fortran order, as dgemm returns it);
    - a 2 x 2 block [[a, b], [c, a]] with bc < 0 (LAPACK's standard form)
      has eigenvalues a +- i w, w = sqrt(-bc).  y = b z_1 + i w z_2
      solves (Ct + (a + i w) I) y = b g_1 + i w g_2, so z_1 = Re y / b and
      z_2 = Im y / w.  The adjoint block [[a, c], [b, a]] takes c in
      place of b, through the same complex factors transposed (not
      conjugated: Ct^T + (a + i w) I).  Splitting y scales the rounding
      of one part by sqrt(|b|/|c|) or its inverse: at most 38 over sigma
      0.3-10 and n_eta 3-8 (sigma = 0.5, n_eta = 7).
    Forward, E is applied to the right-hand side before the solve; for
    the adjoint, (E (Ct + s I))^T is solved and E^T applied after.
    """
    n = T.shape[0]
    diagonals = grid_mod.time_diagonals(band)
    m = diagonals[3]
    factors = []
    for lo, hi in _schur_blocks(T):
        if hi - lo == 1:
            factors.append(
                (lo, hi, None, _shifted_solver(diagonals, T[lo, lo])))
            continue
        (a, b), (c, d) = T[lo:hi, lo:hi]
        if d != a or not b * c < 0.0:
            raise SingularFactorError(
                f"Schur block at column {lo} is not in standard form")
        w = math.sqrt(-b * c)
        factors.append((lo, hi, (b, c, w),
                        _shifted_solver(diagonals, complex(a, w))))
    T = np.asfortranarray(T)
    T_adj = np.asfortranarray(T.T)  # lower quasi-triangular

    def solve(F, adjoint):
        F = np.asfortranarray(F)  # the 1 x 1 solves write into its columns
        if adjoint:
            order, T_cols, trans = reversed(factors), T_adj, "T"
        else:
            order, T_cols, trans = factors, T, "N"
        for lo, hi, pair, block_solve in order:
            done = slice(hi, n) if adjoint else slice(0, lo)
            if done.start != done.stop:
                dgemm(-1.0, F[:, done], T_cols[done, lo:hi], beta=1.0,
                      c=F[:, lo:hi], overwrite_c=1)
            if pair is None:
                y = F[:, lo]
            else:
                b, c, w = pair
                p = c if adjoint else b
                y = p * F[:, lo] + 1j * w * F[:, lo + 1]
            if not adjoint:
                y[-1] -= m * y[-2]
            block_solve(y, trans)
            if adjoint:
                y[-2] -= m * y[-1]
            if pair is not None:
                F[:, lo] = y.real / p
                F[:, lo + 1] = y.imag / w
        return F
    return solve


def _norm2(op, v=None):
    """Largest singular value of a real LinearOperator.

    Golub-Kahan-Lanczos bidiagonalisation (Golub and Kahan, SIAM J.
    Numer. Anal. B 2(2), 1965) from v, by default a fixed-seed normal
    draw: op V_k = U_k B_k with B_k upper bidiagonal (alpha on the
    diagonal, beta above it), one forward and one adjoint product per
    step.  Only the current v, u and residual are kept, with no
    reorthogonalisation: the plain recurrence loses orthogonality only
    along Ritz vectors that have converged, which adds spurious copies
    of converged singular values but leaves the largest one as accurate
    as with a full basis (Paige, Linear Algebra Appl. 34, 1980).  The run
    stops when the top Ritz triple's residual beta_k |e_k^T y| is at most
    NORM_TOL * theta, with theta the largest singular value of B_k and y
    its left singular vector: theta's error is at most the residual
    squared over the gap to the next singular value, so theta is then
    exact to rounding.  A zero alpha or beta means the Krylov space is
    invariant and theta exact; a run that has not stopped after
    NORM_STEPS steps raises NormConvergenceError.
    """
    n = op.shape[1]
    if v is None:
        v = np.random.default_rng(0).standard_normal(n)
    v = v / dnrm2(v)
    u = op.matvec(v)
    alpha, beta = [dnrm2(u)], []
    if alpha[0] == 0.0:
        return 0.0
    for k in range(1, NORM_STEPS + 1):
        u = u / alpha[-1]
        r = op.rmatvec(u) - alpha[-1] * v
        beta.append(dnrm2(r))
        theta, y_k = _top_left(alpha, beta)
        if beta[-1] * abs(y_k) <= NORM_TOL * theta:
            return theta
        if k == NORM_STEPS:
            break
        v = r / beta[-1]
        u = op.matvec(v) - beta[-1] * u
        alpha.append(dnrm2(u))
        if alpha[-1] == 0.0:
            return _top_left(alpha, beta)[0]
    raise NormConvergenceError(
        f"largest singular value not converged in {NORM_STEPS} "
        f"Golub-Kahan-Lanczos steps (residual {beta[-1] * abs(y_k):.3e}, "
        f"value {theta:.6e})")


def _top_left(alpha, beta):
    """(theta, y_k): the largest singular value of the upper bidiagonal
    B_k with diagonal alpha[:k] and superdiagonal beta[:k-1], and the
    last entry of its left singular vector y, from the top eigenpair of
    the tridiagonal B_k B_k^T (LAPACK bisection and inverse iteration)."""
    k = len(alpha)
    if k == 1:  # B_1 is alpha_1; dstebz's wrapper needs k >= 2
        return alpha[0], 1.0
    a = np.asarray(alpha)
    b = np.asarray(beta[:k - 1])
    d = a * a
    d[:-1] += b * b
    e = b * a[1:]
    _, w, block, split, info = dstebz(d, e, 3, 0.0, 0.0, k, k, 0.0, "E")
    if info == 0:
        y, info = dstein(d, e, w[:1], block, split)
    if info != 0:
        raise NormConvergenceError(
            f"tridiagonal eigensolver failed (info {info})")
    return math.sqrt(max(w[0], 0.0)), y[-1, 0]


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
