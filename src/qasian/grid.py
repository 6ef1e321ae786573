"""Discretization of the reduced Asian-option PDE.

The pricing problem is posed on a single spatial coordinate eta (the
average-to-underlying ratio) and the reversed time tau1 = T - t.  This
module builds every discrete operator of the scheme: the central time
derivative with Dirichlet ends, the spectral (sine-basis) space
derivatives, the diffusion and drift terms, the factorized diffusion
pieces A1 * A2, the closed time operator (as the three diagonals of
a tridiagonal matrix similar to it, never as an N_tau1 x N_tau1 matrix)
and the boundary-driven right-hand side.  The system they make is the
Kronecker sum that inversion.SpaceTimeSystem solves without assembling
it.

Conventions used throughout the package:

* The eta register holds cell-centered nodes eta_x = eta_max * s_x with
  s_x = -1 + delta_hat/2 + x*delta_hat, delta_hat = 2/2^n_eta, in
  ascending order.
* Space derivatives are taken in the sine basis
  sin(pi*k*(eta + eta_max)/(2*eta_max)), k = 1..N_eta, zero at both
  edges, as the Crank-Nicolson oracle's frozen edge rows are.  On the
  nodes it is the orthonormal DST-II S, and its derivatives are read in
  the orthonormal DCT-II C.  So every operator of the system is real
  (float64), A2 = S^T diag((k/2)^2) S, and the system
  Ct (x) I + I (x) (C_eta1 + C_eta2) is solved in real arithmetic.
* Time nodes are the interior points tau1_t = (t+1)*delta_tau1 with
  delta_tau1 = T/(2^n_tau1 + 1), t = 0..N_tau1-1.  The slice tau1 = 0
  carries the initial profile psi0 and is folded into the right-hand
  side.  The slice tau1 = T is unknown (it is the surface being priced)
  and is not pinned: its ghost value is the quadratic extrapolation
  psi_N = psi_{N-3} - 3 psi_{N-2} + 3 psi_{N-1} (END_GHOST) from the last
  slices, which turns the last central-difference row into the one-sided
  BDF2 row.  At N_tau1 = 2 the extrapolation reaches back to the tau1 = 0
  slice, whose psi0 term also goes to the right-hand side.
* The whole linear equation is rescaled by delta_tau1 so that the time
  term has entries +-1/2 (and 1/2, -2, 3/2 in the BDF2 row) and the
  spatial operators carry a delta_tau1 prefactor.
"""

from dataclasses import dataclass
import json
import math
import numbers

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import InfeasibleScaleError, ValidationError

#: Extrapolation weights of the tau1 = T ghost slice on the slices
#: N-3, N-2, N-1 (slice -1 is tau1 = 0): psi_N = sum_j END_GHOST[j] psi_{N-3+j}.
END_GHOST = np.array([1.0, -3.0, 3.0])

#: Largest time register make_grid tries.
N_TAU1_CAP = 24

#: Each payoff kind as (family, sign, the call whose solve prices it): it
#: pays max(sign*(A - X), 0) on the average A, X = K for the "rate" family
#: and S_T for the "strike" family, so max(sign*(eta - eta_X), 0) over S_T
#: with eta_X = 0 or 1 (Rogers and Shi, J. Appl. Prob. 32(4), 1995).
PAYOFFS = {
    "avg_rate_call": ("rate", 1, "avg_rate_call"),
    "avg_rate_put": ("rate", -1, "avg_rate_call"),
    "avg_strike_call": ("strike", -1, "avg_strike_call"),
    "avg_strike_put": ("strike", 1, "avg_strike_call"),
}
KINDS = tuple(PAYOFFS)


@dataclass(frozen=True)
class MarketParams:
    """Financial inputs of the pricing PDE.

    sigma : volatility (1/sqrt(time))
    r     : risk-free rate (1/time)
    q     : dividend yield (1/time)
    T     : expiry (time)
    K     : strike (price); used only by the payoff/price maps
    eta_max : half-width of the truncated eta domain (dimensionless)
    kind  : payoff family, one of KINDS
    """

    sigma: float
    r: float
    q: float
    T: float
    K: float
    eta_max: float
    kind: str = KINDS[0]

    def __post_init__(self):
        for name in ("sigma", "r", "q", "T", "K", "eta_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma < 0:  # sigma == 0 is allowed for the oracles
            raise ValidationError("sigma must be >= 0")
        if self.T <= 0:
            raise ValidationError("T must be > 0")
        if self.K < 0:
            raise ValidationError("K must be >= 0")
        if self.eta_max <= 0:
            raise ValidationError("eta_max must be > 0")
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class GridSpec:
    """Qubit counts and lattice spacings of one discretization level."""

    n_eta: int
    n_tau1: int
    delta_eta_hat: float
    delta_eta: float
    delta_tau1: float
    Delta: float
    eps_target: float

    @property
    def N_eta(self):
        return 2 ** self.n_eta

    @property
    def N_tau1(self):
        return 2 ** self.n_tau1

    @property
    def dim(self):
        return self.N_tau1 * self.N_eta


@dataclass(frozen=True)
class OperatorSet:
    """All discrete operators of one system build.

    Ct is the closed time operator delta_tau1*(C_tau1 + C_close) as the
    tuple (dl, d, du, m) of build_time_operator: the diagonals of the
    tridiagonal C~ = E Ct E^-1 and the multiplier m of E.  C_eta1, C_eta2,
    A1 have the global delta_tau1 rescaling absorbed, so the assembled
    system is Ct (x) I + I (x) (C_eta1 + C_eta2), all of it real float64.

    C_tau1 (the central derivative) and C_close (its closure row) are the
    two parts of Ct with the raw 1/(2*delta_tau1) scale, as dense
    N_tau1 x N_tau1 matrices for export and dense references.  They are
    built on each read; the solver reads only Ct.
    """

    spec: GridSpec
    Ct: tuple
    C_eta1: np.ndarray
    C_eta2: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    rhs_hat: np.ndarray
    norm_b: float

    @property
    def C_tau1(self):
        """The central part of Ct/delta_tau1 (build_time_derivative)."""
        return build_time_derivative(self.spec)

    @property
    def C_close(self):
        """e_{N-1} g^T/(2*delta_tau1), g = END_GHOST on columns N-3..N-1."""
        N = self.spec.N_tau1
        K = np.zeros((N, N))
        cols, g = _closure_row(N)
        K[N - 1, cols] = g
        return K / (2.0 * self.spec.delta_tau1)


def _check_integer(name, n):
    if not isinstance(n, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {n!r}")


def _check_n_eta(n_eta):
    _check_integer("n_eta", n_eta)
    if n_eta < 2 or 2 ** n_eta % 4 != 0:
        raise ValidationError(
            "n_eta must be >= 2 so the eta point count is divisible by 4 "
            "(keeps payoff kinks off grid nodes)"
        )


def make_grid(params, n_eta, eps_target, scale_c=1.0, band=1.5, c_smooth=1.0,
              Delta=None):
    """Choose the smallest feasible time register for a given eta register.

    The target time step is t_star = scale_c * delta_hat^2 * ln(1/eps) /
    sigma^2; a candidate n_tau1 is accepted when delta_tau1 <= band *
    t_star (the smallest such n_tau1 keeps the step within a factor
    ~2*band of the target whenever the target is reachable at all, and
    the one-sided test keeps low-volatility cases feasible, where even
    the coarsest admissible step T/3 sits below the target) and the
    smoothing inequality T*sigma^2*N_eta^2/N_tau1 >= c_smooth*ln(1/eps)
    holds.
    """
    _check_n_eta(n_eta)
    if not params.sigma > 0:
        # the target time step below scales as 1/sigma^2
        raise ValidationError(f"sigma must be > 0, got {params.sigma!r}")
    if not 0 < eps_target < 1:
        raise ValidationError("eps_target must lie in (0, 1)")
    log_term = math.log(1.0 / eps_target)
    delta_hat = 2.0 / 2 ** n_eta
    t_star = scale_c * delta_hat ** 2 * log_term / params.sigma ** 2
    if t_star <= 0:
        raise InfeasibleScaleError(
            "degenerate accuracy request: target time step is zero")
    N_eta = 2 ** n_eta
    for n_tau1 in range(1, N_TAU1_CAP + 1):
        delta_tau1 = params.T / (2 ** n_tau1 + 1)
        ratio = delta_tau1 / t_star
        in_band = ratio <= band
        smooth_ok = (params.T * params.sigma ** 2 * N_eta ** 2 / 2 ** n_tau1
                     >= c_smooth * log_term)
        if in_band and smooth_ok:
            return grid_spec_direct(params, n_eta, n_tau1,
                                    eps_target=eps_target, Delta=Delta)
    raise InfeasibleScaleError(
        f"no n_tau1 <= {N_TAU1_CAP} satisfies the spacing band and the "
        f"smoothing inequality for n_eta={n_eta}, eps={eps_target}")


def grid_spec_direct(params, n_eta, n_tau1, eps_target=1e-3, Delta=None):
    """Build a GridSpec with an explicitly chosen time register.

    Used by oracles, convergence studies and tests that need to pin both
    register sizes; skips the spacing-band search of make_grid, which
    returns through this function once the search has chosen n_tau1.
    """
    _check_n_eta(n_eta)
    _check_integer("n_tau1", n_tau1)
    if n_tau1 < 1:
        raise ValidationError("n_tau1 must be >= 1")
    delta_hat = 2.0 / 2 ** n_eta
    if Delta is None:
        Delta = params.T / 4.0
    return GridSpec(
        n_eta=n_eta,
        n_tau1=n_tau1,
        delta_eta_hat=delta_hat,
        delta_eta=params.eta_max * delta_hat,
        delta_tau1=params.T / (2 ** n_tau1 + 1),
        Delta=Delta,
        eps_target=eps_target,
    )


def eta_nodes(spec, params):
    """Physical cell-centered eta nodes, ascending."""
    s = eta_hat_diagonal(spec.n_eta)
    return params.eta_max * s


def tau1_nodes(spec):
    """Interior tau1 nodes (t+1)*delta_tau1, t = 0..N_tau1-1."""
    return spec.delta_tau1 * np.arange(1, spec.N_tau1 + 1)


def build_time_derivative(spec):
    """Central time derivative with zero (Dirichlet) corners.

    (1/(2*delta_tau1)) * tridiag(+1 above, -1 below); antisymmetric.
    """
    N = spec.N_tau1
    D = np.zeros((N, N))
    idx = np.arange(N - 1)
    D[idx, idx + 1] = 1.0
    D[idx + 1, idx] = -1.0
    return D / (2.0 * spec.delta_tau1)


def _closure_row(N):
    """Columns of row N-1 that the tau1 = T ghost reaches, and their
    END_GHOST weights; a column N-3 < 0 is the tau1 = 0 slice and lives in
    the right-hand side instead."""
    cols = np.arange(N - 3, N)
    return cols[cols >= 0], END_GHOST[cols >= 0]


def build_time_operator(spec):
    """Closed time operator Ct = delta_tau1*(C_tau1 + C_close) as
    (dl, d, du, m): the sub-, main and superdiagonal of the tridiagonal
    C~ = E Ct E^-1, and the multiplier m of E.

    The central row at the last interior node reads psi_N, the tau1 = T
    slice.  Replacing psi_N by its ghost value (END_GHOST extrapolation)
    makes that row the BDF2 stencil (psi_{N-3} - 4 psi_{N-2} + 3 psi_{N-1})/2;
    every other row is the central (psi_{t+1} - psi_{t-1})/2.  delta_tau1
    cancels, so Ct holds only +-1/2 and the BDF2 row.  E, row N-1 -=
    m row N-2, clears the BDF2 row's entry (N-1, N-3); E^-1 adds m column
    N-1 to column N-2, so C~ differs from Ct only in entries (N-2, N-2),
    (N-1, N-2) and (N-1, N-1), and C~ + s I = E (Ct + s I) E^-1 for every
    shift s.  At N = 2 there is no column N-3: m = 0 and C~ = Ct.
    """
    N = spec.N_tau1
    dl, d, du = np.full(N - 1, -0.5), np.zeros(N), np.full(N - 1, 0.5)
    _, g = _closure_row(N)
    dl[-1] += g[-2] / 2.0
    d[-1] += g[-1] / 2.0
    m = 0.0
    if g.size == 3:  # Ct[N-1, N-3] / Ct[N-2, N-3]
        m = g[0] / 2.0 / dl[-2]
        dl[-1] += m * (d[-1] - d[-2] - m * du[-1])
        d[-2] += m * du[-1]
        d[-1] -= m * du[-1]
    return dl, d, du, m


def eta_hat_diagonal(n_eta):
    """Diagonal of the normalized position operator eta/eta_max."""
    delta_hat = 2.0 / 2 ** n_eta
    x = np.arange(2 ** n_eta)
    return -1.0 + delta_hat / 2.0 + x * delta_hat


def build_eta_operator(spec):
    """Normalized position operator and its Z-string decomposition.

    Returns (diagonal matrix, {j: coefficient}) where the decomposition
    means eta_hat = sum_j coeff_j * Z_j, with Z_j acting on qubit j
    (bit j of the node index) as diag(+1, -1) on that bit.
    """
    n = spec.n_eta
    delta_hat = spec.delta_eta_hat
    diag = eta_hat_diagonal(n)
    pauli = {j: -(delta_hat / 2.0) * 2 ** j for j in range(n)}
    return np.diag(diag), pauli


def eta_from_pauli(pauli, n):
    """Reconstruct the diagonal from a Z-string decomposition (check aid)."""
    x = np.arange(2 ** n)
    diag = np.zeros(2 ** n)
    for j, c in pauli.items():
        bits = (x >> j) & 1
        diag += c * (1.0 - 2.0 * bits)
    return diag


def _cell_waves(n, wave, freqs, half_row):
    """sqrt(2/N) wave(pi*f*(2x+1)/(2N)) for the rows f of freqs and the
    nodes x = 0..N-1, with row half_row scaled by 1/sqrt(2).  The phase
    is reduced mod 2 pi in integers, so it is exact to one rounding."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    N = 2 ** n
    m = math.sqrt(2.0 / N) * wave(
        np.pi / (2 * N) * (np.outer(freqs, 2 * np.arange(N) + 1) % (4 * N)))
    m[half_row] /= math.sqrt(2.0)
    return m


def build_dst(n):
    """Orthonormal DST-II S on 2^n nodes, rows k = 1..N, as
    scipy.fft.dst(type=2, norm="ortho"): row k samples
    sin(pi*k*(eta + eta_max)/(2*eta_max))."""
    return _cell_waves(n, np.sin, np.arange(1, 2 ** n + 1), -1)


def build_dct(n):
    """Orthonormal DCT-II C on 2^n nodes, rows j = 0..N-1, as
    scipy.fft.dct(type=2, norm="ortho")."""
    return _cell_waves(n, np.cos, np.arange(2 ** n), 0)


def sine_multiplier(n, d):
    """S^T diag(d) S on n qubits (A2 and A2^-1), by scipy's dgemm: numpy's
    own BLAS has a thread pool that contends with scipy's."""
    S = build_dst(n)
    return dgemm(1.0, S, d[:, None] * S, trans_a=1)


def a2_eigenvalues(spec):
    """Eigenvalues of A2 on the sine waves k = 1..N_eta: (k/2)^2."""
    return (np.arange(1, spec.N_eta + 1) / 2.0) ** 2


def build_spectral_derivative(spec, params):
    """Spectral first-derivative matrix on the eta grid.

    D_eta = (pi/(2*eta_max)) C^T diag(0..N-1) X S, the exact derivative
    of the sine interpolant: X (circuits.cyclic_shift(n, 1)) moves sine
    k's coefficient to cosine k, and sine N's to row 0, weight 0 (its
    cosine vanishes on the nodes).
    """
    n = spec.n_eta
    XS = np.roll(build_dst(n), 1, axis=0)  # cyclic_shift(n, 1) @ S
    weights = np.pi / (2.0 * params.eta_max) * np.arange(spec.N_eta)
    return dgemm(1.0, build_dct(n), weights[:, None] * XS, trans_a=1)


def build_A1(spec, params):
    """Diagonal factor A1 = delta_tau1 * pi^2 sigma^2 eta_hat^2 / 2."""
    eta2 = eta_hat_diagonal(spec.n_eta) ** 2
    return np.diag(spec.delta_tau1 * np.pi ** 2 * params.sigma ** 2 * eta2 / 2.0)


def build_A2(spec):
    """A2 = S^T diag((k/2)^2) S, that is -(eta_max/pi)^2 d^2/d eta^2."""
    return sine_multiplier(spec.n_eta, a2_eigenvalues(spec))


def triangular(u):
    """Unit triangle max(1 - |u|, 0)."""
    return np.maximum(1.0 - np.abs(u), 0.0)


def psi0(params, eta, kink_shift=0.0):
    """Initial profile psi(eta, 0), max(sign*(eta - eta_X), 0) (PAYOFFS).

    The average-rate call payoff max(eta, 0) grows to the domain edge;
    it is replaced by the triangular continuation
    (eta_max/2) * triangle(2*eta/eta_max - 1), which matches the payoff
    on [0, eta_max/2], rolls back to zero at eta_max, and keeps all
    three kinks off the cell-centered nodes whenever the point count is
    divisible by 4.  `kink_shift` displaces the triangle apex (used by
    kink-alignment studies); 0 keeps the canonical placement.
    """
    eta = np.asarray(eta, dtype=float)
    if params.kind == "avg_rate_call":
        center = params.eta_max / 2.0 + kink_shift
        half = params.eta_max / 2.0
        return half * triangular((eta - center) / half)
    family, sign, _ = PAYOFFS[params.kind]
    return np.maximum(sign * (eta - (0.0 if family == "rate" else 1.0)), 0.0)


def build_rhs(spec, params, kink_shift=0.0):
    """Boundary-driven right-hand side.

    Returns (rhs_hat, N_b): the unit-norm vector and its pre-normalization
    squared norm.  After the global delta_tau1 rescaling the raw vector
    holds +psi0/2 in the first time block (the tau1 = 0 neighbour of the
    first central row).  Only at N_tau1 = 2 does the closure row reach the
    tau1 = 0 slice, adding -END_GHOST[0]*psi0/2 = -psi0/2 to the last
    block; for N_tau1 >= 4 every other block is zero.
    """
    p0 = psi0(params, eta_nodes(spec, params), kink_shift=kink_shift)
    b = np.zeros(spec.dim)
    Nx = spec.N_eta
    b[:Nx] = p0 / 2.0
    if spec.N_tau1 == 2:
        b[-Nx:] -= END_GHOST[0] * p0 / 2.0
    with np.errstate(over="ignore"):
        norm_b = float(b @ b)
    if norm_b == 0.0:
        raise ValidationError("initial profile vanishes on every node")
    if not math.isfinite(norm_b):
        raise ValidationError("initial profile's squared norm overflows")
    return b / math.sqrt(norm_b), norm_b


def build_operators(spec, params, kink_shift=0.0):
    """Build the full OperatorSet for one (spec, params) pair.

    The time operator is the tridiagonal of build_time_operator.  The
    spatial operators are composed here from their factors, so both
    identities hold by construction:

    * diffusion, C_eta1 = A1 A2, is -delta_tau1 * (sigma^2 eta^2 / 2)
      d^2/d eta^2 in the spectral discretization, i.e. the diffusion
      term moved to the left-hand side;
    * drift, C_eta2 = delta_tau1 * ((r-q)*eta - 1/T) * Delta_eta, is
      -((1/T) - (r-q)*eta) d/d eta on the spectral grid (finite at r = q).
    """
    rhs_hat, norm_b = build_rhs(spec, params, kink_shift=kink_shift)
    A1 = build_A1(spec, params)
    A2 = build_A2(spec)
    drift = spec.delta_tau1 * ((params.r - params.q) * eta_nodes(spec, params)
                               - 1.0 / params.T)
    return OperatorSet(
        spec=spec,
        Ct=build_time_operator(spec),
        C_eta1=np.diag(A1)[:, None] * A2,
        C_eta2=drift[:, None] * build_spectral_derivative(spec, params),
        A1=A1,
        A2=A2,
        rhs_hat=rhs_hat,
        norm_b=norm_b,
    )


# ---------------------------------------------------------------------------
# export helpers

def matrix_to_csv(mat, path):
    """Dense row-major CSV with "re,im" cells."""
    mat = np.asarray(mat, dtype=complex)
    with open(path, "w") as fh:
        for row in mat:
            fh.write(";".join(f"{c.real:.17g},{c.imag:.17g}" for c in row))
            fh.write("\n")


def operator_descriptor(kind, spec):
    """JSON descriptor of a matrix-free operator."""
    factors = {
        "C_tau1": ["tridiag(+1/-1)/(2*delta_tau1)",
                   "+ closure row N-1: (1, -3, 3)/(2*delta_tau1) on columns "
                   "N-3..N-1 (tau1 = T ghost; column -1 is tau1 = 0, in the rhs)"],
        "C_eta1": ["eta_hat^2", "S^T", "(k/2)^2", "S"],
        "C_eta2": ["(r-q)*eta_hat - I/(eta_max*T)", "C^T", "diag(0..N-1)",
                   "X", "S"],
        "A1": ["diag(delta_tau1*pi^2*sigma^2*eta_hat^2/2)"],
        "A2": ["S^T", "(k/2)^2", "S"],
    }.get(kind, [])
    return json.dumps({
        "kind": kind,
        "n_eta": spec.n_eta,
        "n_tau1": spec.n_tau1,
        "factors": factors,
    })
