"""Fast inversion of the diagonalizable factors and preconditioning.

The system matrix splits as (A + B) with A = I (x) A2 block-diagonal in
the sine basis (DST-II) and A1 diagonal in position, so both factors
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
from scipy.linalg.lapack import (dgetrf, dgetrs, dgttrf, dgttrs, dstebz,
                                 dstein, zgetrf, zgetrs, zgttrf, zgttrs)

from .errors import (AliasingError, DimensionCapError, NormConvergenceError,
                     SingularFactorError, ValidationError)
from . import grid as grid_mod

#: Largest space-time dimension N_tau1 * N_eta the solver accepts; the
#: condition report's cost grows faster than dim, so the cap bounds a
#: run's time.  The spatial operators are dense N_eta x N_eta matrices, so
#: N_eta^2 is held to the same cap: without it, sigma=0.002, n_eta=12
#: (make_grid picks 2 x 4096, dim 2^13) ran `qasian price` to a 2.26 GB
#: peak RSS before its residual check failed.  `dump-encoding` holds the
#: register it encodes as a dense unitary to the same N^2 rule.
DIM_CAP = 2 ** 17

#: Smallest eigenvalue magnitude fast_invert_exact reciprocates.
EIGEN_FLOOR = 1e-30

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
    kind "A2": S^T diag((k/2)^-2) S, the reciprocal eigenvalues in the
    sine basis (grid.a2_eigenvalues).
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
        return grid_mod.sine_multiplier(spec.n_eta, 1.0 / eig)
    raise ValidationError("kind must be 'A1' or 'A2'")


def check_dim_cap(spec):
    """Raise DimensionCapError if spec's dim or N_eta^2 (the entries of
    each dense spatial operator) exceeds DIM_CAP; called before any
    operator is built."""
    if spec.dim > DIM_CAP:
        raise DimensionCapError(
            f"dimension 2^{spec.n_tau1 + spec.n_eta} exceeds cap {DIM_CAP}")
    check_square_cap("N_eta", spec.N_eta)


def check_square_cap(name, N):
    """Raise DimensionCapError if N^2, the entries of a dense N x N
    operator, exceeds DIM_CAP."""
    if N ** 2 > DIM_CAP:
        raise DimensionCapError(
            f"{name}^2 = {N ** 2} (the entries of a dense {name} x {name} "
            f"operator) exceeds cap {DIM_CAP}")


class SpaceTimeSystem:
    """The preconditioned space-time system of one grid, matrix-free.

    The assembled system is the Kronecker sum M = Ct (x) I + I (x) L,
    with Ct = delta_tau1*(C_tau1 + C_close) the closed time operator and
    L = C_eta1 + C_eta2, both real.  On X = x.reshape(N_tau1, N_eta) it
    acts as Ct X + X L^T, and M X = C is the Sylvester equation solved
    exactly, in real arithmetic, by the Hessenberg-Schur method (Golub,
    Nash and Van Loan, IEEE TAC 24(6), 1979).  Ct is held only as the
    tridiagonal C~ = E Ct E^-1 of grid.build_time_operator, E one row
    operation, and applied as its stencil (_time_operator).  Only the
    N_eta x N_eta L^T = V T V^T is brought to real Schur form: V is
    orthogonal and T quasi-upper-triangular, with a 1 x 1 diagonal block
    per real eigenvalue of L and a 2 x 2 block per complex pair.  With
    Z = X V and F = C V the equation becomes S Z = Ct Z + Z T = F, and
    its column blocks solve in order: block J takes
    Ct Z_J + Z_J T_JJ = F_J - Z[:, :J] T[:J, J].  The sweep runs in the
    coordinates of C~: F is taken to E F once on entry and Z back once on
    exit.  So each block is one tridiagonal system of N_tau1 unknowns
    (_block_solver): a 1 x 1 block the real shifted system C~ + T_jj I,
    and a 2 x 2 block one complex shifted system C~ + (a + i w) I (at
    N_tau1 = 2, a 2 x 2 dense one).  S^T Z = F runs the blocks backwards
    through the same factors, transposed, between E^-T on entry and E^T
    on exit.  Ct is not normal (its closure row), which this route does
    not need.  The sweep runs in one (N_tau1, N_eta) workspace, into which
    F is multiplied, with every view of it taken when the factors are
    built, so a solve allocates nothing per block.  This one sweep serves
    every dim: its cost is O(dim) per block on top of a fixed call cost,
    and the factors grow as N_eta^2 + N_eta*N_tau1 + dim; both dim and
    N_eta^2 are held to DIM_CAP.

    The split of the dense reference assembly follows from M without
    forming it: A + B = (I (x) A1^-1) M, A = I (x) A2, B = (A + B) - A and
    W = I + A^-1 B = (I (x) A2^-1) (A + B).  They are kept as real maps
    of grids (`AB`, `AB_inv`, `B`, `W`, `W_inv`): op(X, adjoint) applies
    the operator, or with adjoint true its transpose, to a real
    (N_tau1, N_eta) grid X and returns the image grid.  With
    M^-1 X = S^-1 (X V) V^T, (A + B)^-1 = M^-1 (I (x) A1) is one map of
    _inverse, X -> S^-1 (X G_in) G_out^T with G_in = A1 V and G_out = V:
    one dgemm into the sweep and one out of it.  W^-1 is
    (A + B)^-1 (I (x) A2), A2 applied on its own first: folded into one
    G_in = C_eta1^T V = A2^T A1 V, it leaves the pricing solve's residual
    W x - rhs_pre 8 to 43 times larger (sigma = 1, n_eta 6 to 8).
    `report` takes the operators' largest singular values by
    Golub-Kahan-Lanczos bidiagonalisation (_norm2), in at most NORM_STEPS
    steps each.  The two inverse norms are taken in Schur coordinates,
    Y = X V: an orthogonal V changes no norm, and M^-1 (I (x) P) is then
    Y -> S^-1 (Y G), G = V^T P^T V formed once for P = A1 and for
    P = A1 A2 = C_eta1, the same _inverse with no output product
    (`AB_inv_schur`, `W_inv_schur`).  Both runs start from the image
    under V of the physical runs' start grid, so they take the same
    number of steps as the physical runs would.  The maps close over the
    factors, never over the system, so that a system holds no reference
    to itself and is freed as soon as its caller drops it.  The object
    stands for W x = rhs_pre on flat vectors of length dim:
    `system @ x` is W x and `system.solve(r)` is W^-1 r.
    """

    def __init__(self, spec, params, kink_shift=0.0):
        check_dim_cap(spec)
        ops = grid_mod.build_operators(spec, params, kink_shift=kink_shift)
        self.spec = spec
        self.norm_b = ops.norm_b
        self.shape = shape = (spec.N_tau1, spec.N_eta)
        Lt = (ops.C_eta1 + ops.C_eta2).T
        T, V = schur(Lt, output="real")
        solve_schur = _block_solver(ops.Ct, T)
        apply_Ct = _time_operator(ops.Ct)
        a1_inv = np.diag(fast_invert_exact("A1", spec, params))
        apply_A = _blocks(ops.A2)
        apply_A2_inv = _blocks(fast_invert_exact("A2", spec, params))

        # Products go through scipy's BLAS (dgemm; trans_b=1 is the
        # transpose), the library of the LAPACK solves and _norm2: numpy
        # ships its own OpenBLAS, and interleaving the two libraries'
        # thread pools slowed the report five-fold on two cores.

        def apply(X, adjoint):
            """M X = Ct X + X L^T, or M^T X = Ct^T X + X L."""
            return apply_Ct(X, adjoint) + dgemm(1.0, X, Lt, trans_b=adjoint)

        def ab(X, adjoint):
            """A + B = (I (x) A1^-1) M, A1 a column scaling."""
            if adjoint:
                return apply(X * a1_inv, True)
            return apply(X, False) * a1_inv

        G_AB = V * np.diag(ops.A1)[:, None]  # A1 V, A1 diagonal
        self.AB = ab
        self.AB_inv = _inverse(solve_schur, G_AB, V)
        self.B = lambda X, adjoint: ab(X, adjoint) - apply_A(X, adjoint)
        self.W = _compose(apply_A2_inv, ab)
        self.W_inv = _compose(self.AB_inv, apply_A)
        self.V = V
        self.AB_inv_schur = _inverse(
            solve_schur, dgemm(1.0, V, G_AB, trans_a=1), None)
        self.W_inv_schur = _inverse(solve_schur, dgemm(
            1.0, V, dgemm(1.0, ops.C_eta1, V, trans_a=1), trans_a=1), None)
        self.rhs_pre = apply_A2_inv(
            ops.rhs_hat.reshape(shape) * a1_inv, False).reshape(-1)

    def __matmul__(self, x):
        return self.W(x.reshape(self.shape), False).reshape(-1)

    def solve(self, rhs_pre):
        """W^-1 rhs_pre, through one Sylvester solve of M."""
        return self.W_inv(rhs_pre.reshape(self.shape), False).reshape(-1)

    def report(self):
        """Condition numbers and bound terms from largest singular values.

        Every run starts from the grid of _start_vector(dim); the inverse
        norms, taken in Schur coordinates (AB_inv_schur, W_inv_schur),
        start from its image under V, so each of their runs is the image
        of the physical operator's run under an orthogonal map.
        """
        start = _start_vector(self.spec.dim).reshape(self.shape)
        start_schur = dgemm(1.0, start, self.V)
        norm_B = _norm2(self.B, start)
        norm_AB_inv = _norm2(self.AB_inv_schur, start_schur)
        # ||A^-1|| = ||A2^-1||, the reciprocal of A2's smallest eigenvalue
        norm_A_inv = 1.0 / float(np.min(grid_mod.a2_eigenvalues(self.spec)))
        return PreconditionReport(
            kappa_raw=_norm2(self.AB, start) * norm_AB_inv,
            kappa_W=(_norm2(self.W, start)
                     * _norm2(self.W_inv_schur, start_schur)),
            C_AB=1.0 + norm_AB_inv * norm_B,
            C_AB_prime=1.0 + norm_A_inv * norm_B)


def _compose(outer, inner):
    """The map of grids outer . inner, whose adjoint is inner^T . outer^T."""
    return lambda X, adjoint: (inner(outer(X, True), True) if adjoint
                               else outer(inner(X, False), False))


def _inverse(solve_schur, G_in, G_out):
    """X -> S^-1 (X G_in) G_out^T as a map of grids, S Z = Ct Z + Z T the
    Schur-transformed system of _block_solver, whose adjoint is
    X -> S^-T (X G_out) G_in^T; G_out None is no output product."""
    def on_grid(X, adjoint):
        G_first, G_last = (G_out, G_in) if adjoint else (G_in, G_out)
        Z = solve_schur(X, G_first, adjoint)
        if G_last is None:
            # Z is the sweep's workspace: the result is a copy of it
            return np.array(Z, order="C")
        return dgemm(1.0, Z, G_last, trans_b=1)
    return on_grid


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


def _time_operator(diagonals):
    """Ct as a map of grids, for the N_tau1 of grid.build_time_operator's
    (dl, d, du, m): the central stencil (X[t+1] - X[t-1])/2 with zero
    ends, plus the closure row's ghost (grid._closure_row) added to row
    N-1.  The adjoint is the negated stencil, with the ghost spread back
    over the closure's columns."""
    cols, g = grid_mod._closure_row(diagonals[1].size)
    g = g[:, None] / 2.0

    def apply(X, adjoint):
        Y = np.empty_like(X)
        Y[:-1] = X[1:]
        Y[-1] = 0.0
        Y[1:] -= X[:-1]
        Y *= -0.5 if adjoint else 0.5
        if adjoint:
            Y[cols] += g * X[-1]
        else:
            Y[-1] += (g * X[cols]).sum(axis=0)
        return Y
    return apply


def _shifted_solver(diagonals, s):
    """(y, trans) -> None: solves (C~ + s I) x = y, or with trans "T" its
    transpose, in place on y; diagonals (dl, d, du, m) as
    grid.build_time_operator gives them, whose m it does not use.

    Factored once by dgttrf, or zgttrf for a complex s.  scipy's ?gttrf
    wrappers refuse n = 2, so at N_tau1 = 2 the 2 x 2 is factored by
    dgetrf or zgetrf instead.
    """
    dl, d, du, _ = diagonals
    d = d + s
    if d.size == 2:
        getrf, getrs = (zgetrf, zgetrs) if np.iscomplexobj(d) else \
            (dgetrf, dgetrs)
        lu, piv, info = getrf(np.array([[d[0], du[0]], [dl[0], d[1]]]))

        def solve(y, trans):
            getrs(lu, piv, y, int(trans == "T"), 1)  # overwrite_b=1
    else:
        gttrf, gttrs = (zgttrf, zgttrs) if np.iscomplexobj(d) else \
            (dgttrf, dgttrs)
        # dl and du are shared by every shift: the wrapper factors copies
        dl, d, du, du2, ipiv, info = gttrf(dl, d, du, overwrite_d=1)

        def solve(y, trans):
            # positional (overwrite_b=1): f2py's keyword parsing costs a
            # third of a call at N_tau1 = 128
            gttrs(dl, d, du, du2, ipiv, y, trans, 1)
    if info != 0:
        raise SingularFactorError(
            "Ct and -L share an eigenvalue: the system is singular")
    return solve


def _block_solver(diagonals, T):
    """(X, G, adjoint) -> Z with Ct Z + Z T = F, or Ct^T Z + Z T^T = F,
    for F = X G (X itself if G is None).

    F is formed in a Fortran-order workspace that the solver owns, and Z
    is returned in it: valid until the next call, so a caller copies or
    multiplies it out.  The sweep runs in the coordinates of the
    tridiagonal C~ = E Ct E^-1, whose diagonals (dl, d, du, m) are
    grid.build_time_operator's: one row update each takes F to E F on
    entry and Z back by E^-1 on exit, or, for the adjoint, E^-T and E^T.
    T's 1 x 1 and 2 x 2 diagonal blocks (_schur_blocks) then solve in
    order, each after subtracting the coupling to the blocks already
    solved: the earlier ones through T's columns, or, for the adjoint,
    the later ones through T^T's.  Every view of the workspace and every
    coupling slice of T is taken once, here.  Each block is one
    tridiagonal system C~ + s I of N_tau1 unknowns, factored once
    (_shifted_solver) and solved as it is or transposed:
    - a 1 x 1 block has s = t_jj real and is solved in place on the
      workspace's column;
    - a 2 x 2 block [[a, b], [c, a]] with bc < 0 (LAPACK's standard form)
      has eigenvalues a +- i w, w = sqrt(-bc).  y = b z_1 + i w z_2
      solves (C~ + (a + i w) I) y = b g_1 + i w g_2, so z_1 = Re y / b and
      z_2 = Im y / w.  y is one preallocated complex vector, whose
      (2, N_tau1) float view holds (Re y, Im y): one multiply of the
      block's two columns by (b, w) forms it, one divide splits it.  The
      adjoint block [[a, c], [b, a]] takes c in place of b, through the
      same complex factors transposed (not conjugated).  Splitting y
      scales the rounding of one part by sqrt(|b|/|c|) or its inverse: at
      most 38 over sigma 0.3-10 and n_eta 3-8 (sigma = 0.5, n_eta = 7).
    """
    n, N_tau1, m = T.shape[0], diagonals[1].size, diagonals[3]
    F = np.empty((N_tau1, n), order="F")
    y_pair = np.empty(N_tau1, dtype=complex)
    # (Re y, Im y) as a (2, N_tau1) view, matching each block's transposed
    # columns: row-major traversal then runs along N_tau1 (on a 2-core x86
    # VM, one multiply and divide in (N_tau1, 2) order took 5.2 / 13.7 us
    # at N_tau1 128 / 512, against 3.0 / 3.7 us)
    y_parts = y_pair.view(float).reshape(-1, 2).T
    steps = {False: [], True: []}
    for lo, hi in _schur_blocks(T):
        if hi - lo == 1:
            block_solve = _shifted_solver(diagonals, T[lo, lo])
        else:
            (a, b), (c, d) = T[lo:hi, lo:hi]
            if d != a or not b * c < 0.0:
                raise SingularFactorError(
                    f"Schur block at column {lo} is not in standard form")
            w = math.sqrt(-b * c)
            block_solve = _shifted_solver(diagonals, complex(a, w))
        for adjoint, done, T_cols in ((False, slice(0, lo), T),
                                      (True, slice(hi, n), T.T)):
            coupling = None
            if done.start != done.stop:
                coupling = (F[:, done], np.asfortranarray(T_cols[done, lo:hi]),
                            F[:, lo:hi])
            pair = None if hi - lo == 1 else (
                F[:, lo:hi].T, np.array([[c if adjoint else b], [w]]))
            steps[adjoint].append((coupling, pair, F[:, lo] if pair is None
                                   else y_pair, block_solve))
    steps[True].reverse()

    def solve(X, G, adjoint):
        if G is None:
            F[...] = X
        else:
            dgemm(1.0, X, G, c=F, overwrite_c=1)
        # row i += e row j is E (E^-T for the adjoint); -= undoes it
        i, j, e, trans = (-2, -1, m, "T") if adjoint else (-1, -2, -m, "N")
        F[i] += e * F[j]
        for coupling, pair, y, block_solve in steps[adjoint]:
            if coupling is not None:
                done, T_done, block = coupling
                # block -= done T_done in place (beta=1, c=block,
                # overwrite_c=1), positional as in _shifted_solver
                dgemm(-1.0, done, T_done, 1.0, block, 0, 0, 1)
            if pair is not None:
                np.multiply(*pair, out=y_parts)
            block_solve(y, trans)
            if pair is not None:
                np.divide(y_parts, pair[1], out=pair[0])
        F[i] -= e * F[j]
        return F
    return solve


def _norm2(op, v):
    """Largest singular value of a real linear map of grids.

    op(X, adjoint) returns the image of the grid X, or with adjoint true
    its image under the transpose, as a grid of X's shape; v is the start
    grid, which need not be normalised.  Golub-Kahan-Lanczos
    bidiagonalisation (Golub and Kahan, SIAM J. Numer. Anal. B 2(2),
    1965): op V_k = U_k B_k with B_k upper bidiagonal (alpha on the
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
    v = v / dnrm2(v)
    u = op(v, False)
    alpha = dnrm2(u)
    if alpha == 0.0:
        return 0.0
    # the diagonals of B_k B_k^T, one new entry of each per step:
    # d_i = alpha_i^2 + beta_i^2 (alpha_k^2 at i = k), e_i = beta_i alpha_{i+1}
    d, e = np.empty((2, NORM_STEPS))
    d[0] = alpha * alpha
    for k in range(1, NORM_STEPS + 1):
        u = u / alpha
        r = op(u, True) - alpha * v
        beta = dnrm2(r)
        theta, y_k = _top_left(d[:k], e[:k - 1])
        if beta * abs(y_k) <= NORM_TOL * theta:
            return theta
        if k == NORM_STEPS:
            break
        v = r / beta
        u = op(v, False) - beta * u
        alpha = dnrm2(u)
        d[k - 1] += beta * beta
        d[k], e[k - 1] = alpha * alpha, beta * alpha
        if alpha == 0.0:
            return _top_left(d[:k + 1], e[:k])[0]
    raise NormConvergenceError(
        f"largest singular value not converged in {NORM_STEPS} "
        f"Golub-Kahan-Lanczos steps (residual {beta * abs(y_k):.3e}, "
        f"value {theta:.6e})")


def _start_vector(n):
    """The condition report's start: a fixed-seed normal draw of length
    n, reshaped to the grid by its caller."""
    return np.random.default_rng(0).standard_normal(n)


def _top_left(d, e):
    """(theta, y_k): the largest singular value of the k x k upper
    bidiagonal B_k of _norm2, and the last entry of its left singular
    vector y, from the top eigenpair of the tridiagonal B_k B_k^T with
    diagonal d and off-diagonal e (LAPACK bisection and inverse
    iteration)."""
    if d.size == 1:  # B_1 is alpha_1; dstebz's wrapper needs k >= 2
        return math.sqrt(d[0]), 1.0
    _, w, block, split, info = dstebz(d, e, 3, 0.0, 0.0, d.size, d.size,
                                      0.0, "E")
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
