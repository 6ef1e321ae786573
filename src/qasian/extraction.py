"""Readout of the solution surface from a statevector.

The solver produces a state whose amplitudes sample psi on the
(tau1, eta) lattice.  Reading the surface back out "quantumly" means
estimating probabilities of prefix windows: any index window splits into
at most n power-of-two segments (binary segmentation), each segment
probability is the chance of seeing all-zeros on the top qubits after a
cyclic shift, and each is estimated once by an amplitude estimator.

Prefix-rectangle integrals at 2-D mock-Chebyshev nodes are then fitted
with a tensor Chebyshev interpolant; differentiating it in both
variables recovers the probability density, and a positive shift plus
square root recovers |psi| up to the tracked normalization.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import (IllConditionedError, NodeCollisionError,
                     NoiseDominationWarning, ValidationError, QasianError)


@dataclass(frozen=True)
class SegmentationPlan:
    """Shift/measure schedule covering an index window."""

    segments: tuple  # of (shift w, measured_qubits m)
    covered: int
    n: int


#: Estimator modes, as the CLI's --ae-mode offers them.
AE_MODES = ("exact", "stochastic", "adversarial")

#: Largest condition number a Chebyshev-Vandermonde fit may have.
KAPPA_CEILING = 1e8


@dataclass
class AmplitudeEstimator:
    """Square-root-of-probability estimator with error accounting.

    modes:
      exact       - returns sqrt(q) (still logs cost if eps_prime > 0)
      stochastic  - sqrt(q) + uniform(-eps', +eps') noise
      adversarial - sqrt(q) + eps' (worst-case one-sided)
    Each call logs a cost of 1/eps_prime (Heisenberg scaling of
    amplitude estimation).
    """

    mode: str = "exact"
    eps_prime: float = 0.0
    seed: int = 0
    calls: int = field(default=0, init=False)
    total_cost: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.mode not in AE_MODES:
            raise ValidationError(f"unknown estimator mode {self.mode!r}")
        self._rng = np.random.default_rng(self.seed)

    def estimate_sqrt(self, q):
        """Estimate sqrt(q) for a probability q in [0, 1]."""
        q = min(max(float(q), 0.0), 1.0)
        s = math.sqrt(q)
        if self.mode == "stochastic":
            s += self._rng.uniform(-self.eps_prime, self.eps_prime)
        elif self.mode == "adversarial":
            s += self.eps_prime
        self.calls += 1
        if self.eps_prime > 0:
            self.total_cost += 1.0 / self.eps_prime
        return min(max(s, 0.0), 1.0)


def plan_segments(x_i, x_f, n):
    """Binary segmentation of the window [x_i, x_f] on n qubits.

    Segment sizes are the binary expansion of the window length, largest
    first; each segment of size 2^(n-m) starts where the previous ones
    end and is read by measuring the top m qubits after shifting its
    start to index 0.
    """
    N = 2 ** n
    if not 0 <= x_i <= x_f < N:
        raise ValidationError(f"need 0 <= x_i <= x_f < {N}")
    count = x_f - x_i + 1
    segments = []
    shift = x_i
    for bit in range(n, -1, -1):
        size = 1 << bit
        if count & size:
            segments.append((shift, n - bit))
            shift += size
    return SegmentationPlan(tuple(segments), count, n)


def _estimate_blocks(probs, est):
    """One amplitude estimation per block probability, in segment order.

    Returns (sum of squared estimates, error bound); each estimate s
    carries its amplitude error through the squaring as 2 eps' s + eps'^2.
    """
    total = 0.0
    err = 0.0
    for q in probs:
        if est.mode != "exact" and q < est.eps_prime ** 2:
            warnings.warn(
                f"segment probability {q:.3e} below eps'^2; square-root "
                "noise dominates", NoiseDominationWarning)
        s = est.estimate_sqrt(q)
        total += s * s
        err += 2 * est.eps_prime * s + est.eps_prime ** 2
    return total, err


def estimate_window_integral(state, x_i, x_f, est, plan=None):
    """Estimate sum of |amp|^2 over a window, divided by 2^n.

    Returns (value, err_bound); err_bound propagates the per-call
    amplitude error through the squaring, segment by segment.
    """
    amps = np.asarray(getattr(state, "amplitudes", state))
    n = amps.size.bit_length() - 1
    if plan is None:
        plan = plan_segments(x_i, x_f, n)
    # the shift-by-(-w) plus top-m-qubits-zero readout selects the block
    # [w, w + 2^(n-m)); segments never wrap, so a slice is that block
    blocks = (amps[w:w + 2 ** (n - m)] for w, m in plan.segments)
    total, err = _estimate_blocks(
        (float(np.real(np.vdot(b, b))) for b in blocks), est)
    N = 2 ** n
    return total / N, err / N


def estimate_rectangle(amps, n_t, n_x, t_lo, t_hi, x_lo, x_hi, est):
    """Raw probability sum over a (time, eta) index rectangle.

    Composes the two registers' segmentation plans: every pair of
    segments shifts both registers and measures all-zeros on both top
    blocks jointly, one amplitude estimation per pair.
    """
    prob = np.abs(np.asarray(amps).reshape(2 ** n_t, 2 ** n_x)) ** 2
    plan_t = plan_segments(t_lo, t_hi, n_t)
    plan_x = plan_segments(x_lo, x_hi, n_x)
    blocks = (prob[wt:wt + 2 ** (n_t - mt), wx:wx + 2 ** (n_x - mx)]
              for wt, mt in plan_t.segments for wx, mx in plan_x.segments)
    return _estimate_blocks((float(np.sum(b)) for b in blocks), est)


def mock_cheb_nodes(M, N, lo, hi):
    """Snap the M Chebyshev nodes to the nearest of N equispaced cells.

    The available grid points are the cell centers
    s_j = -1 + (2j+1)/N for indices lo..hi (j = index - lo, hi-lo+1 = N).
    Ties round toward the center s = 0; collisions fall back to the
    nearest unused neighbour.  Returns (indices, s_values) in Chebyshev
    node order k = 1..M (descending s).
    """
    if hi - lo + 1 != N:
        raise ValidationError("index range must contain exactly N points")
    if M < 1 or M > N:
        raise ValidationError("need 1 <= M <= N")
    s_grid = -1.0 + (2.0 * np.arange(N) + 1.0) / N
    used = set()
    idx = np.empty(M, dtype=int)
    s_prime = np.empty(M)
    for k in range(1, M + 1):
        s_k = math.cos((2 * k - 1) * math.pi / (2 * M))
        d = np.abs(s_grid - s_k)
        order = np.lexsort((np.abs(s_grid), d))  # tie -> closer to center
        chosen = None
        for j in order:
            if j not in used:
                chosen = int(j)
                break
        if chosen is None:
            raise NodeCollisionError(
                f"no free grid point near Chebyshev node {k} of {M}")
        used.add(chosen)
        idx[k - 1] = lo + chosen
        s_prime[k - 1] = s_grid[chosen]
    return idx, s_prime


def _basis_scales(M):
    c = np.full(M, math.sqrt(2.0 / M))
    c[0] = math.sqrt(1.0 / M)
    return c


def vandermonde(s_nodes, M):
    """Chebyshev-Vandermonde matrix in the orthonormalized basis
    u_0 = sqrt(1/M) T_0, u_j = sqrt(2/M) T_j."""
    s = np.asarray(s_nodes, dtype=float)
    V = np.empty((s.size, M))
    scales = _basis_scales(M)
    for j in range(M):
        e = np.zeros(j + 1)
        e[j] = 1.0
        V[:, j] = scales[j] * C.chebval(s, e)
    return V


def fit_interpolant(samples, s_nodes):
    """Solve the (perturbed) Chebyshev-Vandermonde system V a = f.

    f may carry further axes after the first; each column is fitted.
    """
    f = np.asarray(samples)
    M = f.shape[0]
    V = vandermonde(s_nodes, M)
    kappa = np.linalg.cond(V)
    if kappa > KAPPA_CEILING:
        raise IllConditionedError(
            f"interpolation matrix condition {kappa:.3e} exceeds ceiling")
    return np.linalg.solve(V, f)


def interpolant_eval(a, s):
    """Evaluate sum_j a_j u_j(s)."""
    a = np.asarray(a)
    return C.chebval(np.asarray(s, dtype=float), a * _basis_scales(a.size))


def differentiate_interpolant(a):
    """Return an evaluator for the derivative of sum_j a_j u_j(s).

    Uses the standard identity dT_n/ds = n U_{n-1}(s) via Chebyshev
    series differentiation.
    """
    a = np.asarray(a)
    dc = C.chebder(a * _basis_scales(a.size))
    if dc.size == 0:
        dc = np.zeros(1)
    return lambda s: C.chebval(np.asarray(s, dtype=float), dc)


def positive_shift_sqrt(values, eps_shift=0.0):
    """Elementwise sqrt after the smallest admissible positive shift.

    If any value is <= 0, every value is shifted up by
    eps = max(eps_shift, -min + tiny) before the square root.
    """
    v = np.asarray(values, dtype=float)
    mn = float(np.min(v)) if v.size else 1.0
    if mn <= 0.0:
        eps = max(eps_shift, -mn * (1 + 1e-12) + 1e-300)
        v = v + eps
    return np.sqrt(np.maximum(v, 0.0))


@dataclass
class Interpolant2D:
    """Tensor Chebyshev fit of the prefix-rectangle integral G(s_t, s_x).

    density_coeffs holds the standard Chebyshev-basis coefficients (axis
    0: tau1, axis 1: eta) of the mixed derivative of G, so that
    psi_tilde^2(s_t, s_x) = chebval2d(density_coeffs) * 4/(Nt_win*N_x).
    """

    density_coeffs: np.ndarray
    nodes_t: tuple  # (indices, s' values)
    nodes_x: tuple
    Nt_win: int
    N_x: int
    t_lo: int
    delta_tau1: float
    eta_max: float
    scale: float          # N_b * ||solution||^2 factor multiplying |amp|^2
    shift_used: float = 0.0

    def s_of_eta(self, eta):
        return np.asarray(eta, dtype=float) / self.eta_max

    def s_of_tau1(self, tau1):
        j = np.asarray(tau1, dtype=float) / self.delta_tau1 - 1.0 - self.t_lo
        return -1.0 + (2.0 * j + 1.0) / self.Nt_win

    def psi_sq(self, s_t, s_x):
        # The fitted G(s_node) covers the node's cell entirely, i.e. it
        # integrates up to s_node + h/2; undo the half-cell offset by
        # reading the derivative at s - h/2 on each axis (removes the
        # O(h) bias, leaving the O(h^2) midpoint error).
        st = np.asarray(s_t, dtype=float) - 1.0 / self.Nt_win
        sx = np.asarray(s_x, dtype=float) - 1.0 / self.N_x
        st, sx = np.broadcast_arrays(st, sx)
        dens = C.chebval2d(st, sx, self.density_coeffs)
        return self.scale * dens * 4.0 / (self.Nt_win * self.N_x)

    def psi(self, tau1, eta):
        s_t = self.s_of_tau1(tau1)
        s_x = self.s_of_eta(eta)
        if np.any(np.abs(s_x) > 1 + 1e-9) or np.any(s_t < -1 - 1e-9) \
                or np.any(s_t > 1 + 1e-9):
            raise QasianError("evaluation point outside interpolation domain")
        vals = np.atleast_1d(self.psi_sq(s_t, s_x))
        out = positive_shift_sqrt(vals, self.shift_used)
        return out if out.size > 1 else float(out[0])

    def dpsi(self, tau1, eta):
        """(dpsi/deta, dpsi/dtau1) via one more derivative of psi^2."""
        s_t = float(self.s_of_tau1(tau1))
        s_x = float(self.s_of_eta(eta))
        if abs(s_x) > 1 + 1e-9 or not -1 - 1e-9 <= s_t <= 1 + 1e-9:
            raise QasianError("evaluation point outside interpolation domain")
        pref = self.scale * 4.0 / (self.Nt_win * self.N_x)
        d_dx = C.chebder(self.density_coeffs, axis=1)
        d_dt = C.chebder(self.density_coeffs, axis=0)
        if d_dx.size == 0:
            d_dx = np.zeros((1, 1))
        if d_dt.size == 0:
            d_dt = np.zeros((1, 1))
        st = s_t - 1.0 / self.Nt_win
        sx = s_x - 1.0 / self.N_x
        dsq_dsx = pref * C.chebval2d(st, sx, d_dx)
        dsq_dst = pref * C.chebval2d(st, sx, d_dt)
        psi_val = float(self.psi(tau1, eta))
        denom = 2.0 * max(psi_val, 1e-300)
        dpsi_dsx = dsq_dsx / denom
        dpsi_dst = dsq_dst / denom
        ds_deta = 1.0 / self.eta_max
        ds_dtau1 = 2.0 / (self.Nt_win * self.delta_tau1)
        return dpsi_dsx * ds_deta, dpsi_dst * ds_dtau1


@dataclass
class ExtractionResult:
    interpolant: Interpolant2D
    psi_nodes: np.ndarray       # |psi| at the (t-node, x-node) grid
    raw_integrals: np.ndarray   # G at the node grid
    err_bound: float
    ae_calls: int
    ae_cost: float


def time_window(spec):
    """(t_lo, Nt_win): the extraction's time slices t_lo..N_tau1-1.

    t_lo is the first interior time index with tau1 = (t+1)*delta_tau1
    >= spec.Delta.
    """
    t_lo = max(0, int(math.ceil(spec.Delta / spec.delta_tau1 - 1.0 - 1e-12)))
    if t_lo >= spec.N_tau1:
        raise ValidationError("Delta excludes every interior time node")
    return t_lo, spec.N_tau1 - t_lo


def extract_psi_2d(state, spec, cfg, est, scale=1.0):
    """Recover the psi surface from a solution statevector.

    cfg: mapping with M_eta, M_tau1 and optionally eta_max (default 1).
    The time window starts at spec.Delta (time_window).  `scale` is the
    factor (N_b times the squared solution norm) relating squared state
    amplitudes to psi^2.  Negative fitted densities are lifted by the
    positive shift err_bound before the square root.
    """
    amps = np.asarray(getattr(state, "amplitudes", state))
    if amps.size != spec.dim:
        raise ValidationError("state dimension does not match grid spec")
    M_t = int(cfg["M_tau1"])
    M_x = int(cfg["M_eta"])
    n_t, n_x = spec.n_tau1, spec.n_eta
    N_t, N_x = spec.N_tau1, spec.N_eta
    t_lo, Nt_win = time_window(spec)

    nidx_t, s_t = mock_cheb_nodes(M_t, Nt_win, t_lo, N_t - 1)
    nidx_x, s_x = mock_cheb_nodes(M_x, N_x, 0, N_x - 1)

    G = np.empty((M_t, M_x))
    err_G = 0.0
    for k in range(M_t):
        for l in range(M_x):
            G[k, l], e = estimate_rectangle(
                amps, n_t, n_x, t_lo, int(nidx_t[k]), 0, int(nidx_x[l]), est)
            err_G = max(err_G, e)

    # tensor fit a = Vt^-1 G Vx^-T in the u basis, then fold the basis
    # scalings into standard Chebyshev coefficients of G
    a = fit_interpolant(fit_interpolant(G, s_t).T, s_x).T
    coeffs = a * np.outer(_basis_scales(M_t), _basis_scales(M_x))

    # a degree-0 axis represents G as a linear ramp from the empty
    # rectangle at s=-1, so the derivative returns the mean density
    dens = coeffs
    if M_t > 1:
        dens = C.chebder(dens, axis=0)
    else:
        dens = dens / (s_t[0] + 1.0)
    if M_x > 1:
        dens = C.chebder(dens, axis=1)
    else:
        dens = dens / (s_x[0] + 1.0)
    if dens.size == 0:
        dens = np.zeros((1, 1))

    # propagated error estimate: Vandermonde solves are O(1) stable,
    # differentiation amplifies by at most M^2 per axis, the index->s
    # maps contribute the 4/(Nt*Nx) density factor
    err_bound = (scale * 4.0 / (Nt_win * N_x)
                 * (M_t ** 2) * (M_x ** 2) * err_G)

    interp = Interpolant2D(
        density_coeffs=dens,
        nodes_t=(nidx_t, s_t),
        nodes_x=(nidx_x, s_x),
        Nt_win=Nt_win,
        N_x=N_x,
        t_lo=t_lo,
        delta_tau1=spec.delta_tau1,
        eta_max=cfg.get("eta_max", 1.0),
        scale=scale,
        shift_used=err_bound,
    )

    st_grid, sx_grid = np.meshgrid(s_t, s_x, indexing="ij")
    psi_sq_nodes = interp.psi_sq(st_grid, sx_grid)
    psi_nodes = positive_shift_sqrt(psi_sq_nodes, interp.shift_used)
    return ExtractionResult(
        interpolant=interp,
        psi_nodes=psi_nodes,
        raw_integrals=G,
        err_bound=err_bound,
        ae_calls=est.calls,
        ae_cost=est.total_cost,
    )


def greeks(interp, params, point):
    """Surface sensitivities (dpsi/deta, dpsi/dtau1) at (eta, tau1)."""
    eta, tau1 = point
    d_eta, d_tau1 = interp.dpsi(tau1, eta)
    return d_eta, d_tau1
