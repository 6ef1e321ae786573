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
from scipy.linalg.blas import dgemm

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
    Each estimate counts as one call and logs a cost of 1/eps_prime
    (Heisenberg scaling of amplitude estimation).
    """

    mode: str = "exact"
    eps_prime: float = 0.0
    seed: int = 0
    calls: int = field(default=0, init=False)
    total_cost: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.mode not in AE_MODES:
            raise ValidationError(f"unknown estimator mode {self.mode!r}")
        if not self.eps_prime >= 0:
            raise ValidationError(f"need eps_prime >= 0, got "
                                  f"{self.eps_prime!r}")
        self._rng = np.random.default_rng(self.seed)

    def estimate_sqrt(self, q):
        """Estimate sqrt(q) for a probability q in [0, 1], or for each
        entry of a 1-D array of them, in order.

        An array of k probabilities makes the k draws, calls and cost
        that k scalar calls would, and returns the k estimates; a scalar
        returns a float.
        """
        q = np.asarray(q, dtype=float)
        s = np.sqrt(q.reshape(-1).clip(0.0, 1.0))
        if self.mode != "exact":
            s += (self._rng.uniform(-self.eps_prime, self.eps_prime,
                                    size=s.size)
                  if self.mode == "stochastic" else self.eps_prime)
            s.clip(0.0, 1.0, out=s)
        self.calls += s.size
        if self.eps_prime > 0:
            # one cost term per call, added in call order
            cost, step = self.total_cost, 1.0 / self.eps_prime
            for _ in range(s.size):
                cost += step
            self.total_cost = cost
        return s if q.ndim else float(s[0])


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
    rest = int(count)
    while rest:
        bit = rest.bit_length() - 1
        segments.append((shift, n - bit))
        shift += 1 << bit
        rest ^= 1 << bit
    return SegmentationPlan(tuple(segments), count, n)


def _estimate_blocks(runs, est):
    """One amplitude estimation per block probability, all in one
    estimator call.

    runs holds one 1-D array of block probabilities per window or
    rectangle, in segment order; the blocks are estimated in that order,
    run after run.  Returns (totals, errs), one float per run: the sum of
    its squared estimates and its error bound, each estimate s carrying
    its amplitude error through the squaring as 2 eps' s + eps'^2.  Both
    sums add their run's terms left to right.
    """
    q = np.concatenate(runs)
    eps = est.eps_prime
    if est.mode != "exact":
        for p in q[q < eps ** 2].tolist():
            warnings.warn(
                f"segment probability {p:.3e} below eps'^2; square-root "
                "noise dominates", NoiseDominationWarning)
    s = est.estimate_sqrt(q).tolist()
    two_eps, eps_sq = 2 * eps, eps ** 2
    totals, errs = [], []
    i = 0
    for run in runs:
        total = err = 0.0
        for x in s[i:i + run.size]:
            total += x * x
            err += two_eps * x + eps_sq
        totals.append(total)
        errs.append(err)
        i += run.size
    return totals, errs


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
    (total,), (err,) = _estimate_blocks(
        [np.array([np.real(np.vdot(b, b)) for b in blocks])], est)
    N = 2 ** n
    return total / N, err / N


class _SegmentSums:
    """Block sums of a (2^n_t, 2^n_x) probability table over given time
    and eta segments.

    One full-width row sum per distinct time segment (w, m), then one sum
    over each distinct eta segment's columns of those rows: `sums` holds
    the block probability of every (time segment, eta segment) pair.
    Every sum adds non-negative cells, so a small block keeps its
    relative accuracy, which differences of prefix sums would not.
    """

    def __init__(self, prob, t_segments, x_segments):
        n_t = prob.shape[0].bit_length() - 1
        n_x = prob.shape[1].bit_length() - 1
        self.rows, self.cols = {}, {}
        for seg in t_segments:
            self.rows.setdefault(seg, len(self.rows))
        for seg in x_segments:
            self.cols.setdefault(seg, len(self.cols))
        rows = np.empty((len(self.rows), prob.shape[1]))
        for (w, m), i in self.rows.items():
            np.add.reduce(prob[w:w + 2 ** (n_t - m)], axis=0, out=rows[i])
        self.sums = np.empty((len(self.rows), len(self.cols)))
        for (w, m), j in self.cols.items():
            np.add.reduce(rows[:, w:w + 2 ** (n_x - m)], axis=1,
                          out=self.sums[:, j])

    def block_probs(self, plan_t, plan_x):
        """The rectangle's block probabilities, one per segment pair, time
        segments outer, as one array."""
        rows = [self.rows[seg] for seg in plan_t.segments]
        cols = [self.cols[seg] for seg in plan_x.segments]
        return self.sums.take(rows, axis=0).take(cols, axis=1).ravel()


def estimate_rectangle(prob, t_lo, t_hi, x_lo, x_hi, est):
    """Raw probability sum over a (time, eta) index rectangle.

    prob is the (2^n_t, 2^n_x) table of squared amplitudes; n_t and n_x
    come from its shape.  Composes the two registers' segmentation plans:
    every pair of segments shifts both registers and measures all-zeros
    on both top blocks jointly, one amplitude estimation per pair.  The
    block probabilities are the sums of a _SegmentSums of the table.
    """
    prob = np.asarray(prob)
    if prob.ndim != 2 or any(N < 1 or N & (N - 1) for N in prob.shape):
        raise ValidationError(f"need a 2-D probability table with "
                              f"power-of-two sides, got shape {prob.shape}")
    plan_t = plan_segments(t_lo, t_hi, prob.shape[0].bit_length() - 1)
    plan_x = plan_segments(x_lo, x_hi, prob.shape[1].bit_length() - 1)
    # the table's rows and columns are the plans' segments, in order
    table = _SegmentSums(prob, plan_t.segments, plan_x.segments)
    (total,), (err,) = _estimate_blocks([table.sums.ravel()], est)
    return total, err


def mock_cheb_nodes(M, N, lo, hi):
    """Snap the M Chebyshev nodes to the nearest of N equispaced cells.

    The available grid points are the cell centers
    s_j = -1 + (2j+1)/N for indices lo..hi (j = index - lo, hi-lo+1 = N).
    Ties round toward the center s = 0; collisions fall back to the
    nearest unused neighbour.  Returns (indices, s_values) in Chebyshev
    node order k = 1..M (descending s).

    A node skips at most the M - 1 cells taken before it, so it takes one
    of the M cells nearest to it, and those lie within M - 1 cells of
    its nearest one.  So only the cells within M + 2 of the cell that
    its rounded position names are ranked: the margin covers that
    rounding.
    """
    if hi - lo + 1 != N:
        raise ValidationError("index range must contain exactly N points")
    if M < 1 or M > N:
        raise ValidationError("need 1 <= M <= N")
    s_grid = -1.0 + (2.0 * np.arange(N) + 1.0) / N
    abs_grid = np.abs(s_grid)
    used = set()
    idx = np.empty(M, dtype=int)
    s_prime = np.empty(M)
    for k in range(1, M + 1):
        s_k = math.cos((2 * k - 1) * math.pi / (2 * M))
        near = round((s_k + 1.0) * N / 2.0 - 0.5)
        a, b = max(near - M - 2, 0), min(near + M + 3, N)
        # tie -> closer to center
        order = a + np.lexsort((abs_grid[a:b], np.abs(s_grid[a:b] - s_k)))
        chosen = next((j for j in order.tolist() if j not in used), None)
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
    return C.chebvander(s, M - 1) * _basis_scales(M)


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


def positive_shift(values, eps_shift=0.0):
    """The smallest admissible positive shift of a set of values.

    0 if every value is > 0, otherwise max(eps_shift, -min + tiny).
    """
    v = np.asarray(values, dtype=float)
    mn = float(np.min(v)) if v.size else 1.0
    if mn <= 0.0:
        return max(eps_shift, -mn * (1 + 1e-12) + 1e-300)
    return 0.0


def _shifted_sqrt(v, shift):
    return np.sqrt(np.maximum(v + shift, 0.0))


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
    # lift added to psi^2 before every square root, fixed at fit time
    # (extract_psi_2d) so that psi at a point does not depend on the
    # other points of a call
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
        #
        # A tensor lattice (s_t constant along axis 1, s_x along axis 0)
        # is Vt C Vx^T with Vt, Vx the Chebyshev-Vandermonde matrices of
        # its two axis vectors: two dgemm calls, the second writing the
        # one lattice-sized array (N_x, N_t) in Fortran order, so that its
        # transpose is C-contiguous.
        st, sx = np.broadcast_arrays(np.asarray(s_t, dtype=float),
                                     np.asarray(s_x, dtype=float))
        if st.ndim == 2 and st.size and np.all(st == st[:, :1]) \
                and np.all(sx == sx[:1, :]):
            M_t, M_x = self.density_coeffs.shape
            pref = self.scale * 4.0 / (self.Nt_win * self.N_x)
            vt_c = dgemm(1.0, C.chebvander(st[:, 0] - 1.0 / self.Nt_win,
                                           M_t - 1), self.density_coeffs)
            return dgemm(pref, C.chebvander(sx[0] - 1.0 / self.N_x, M_x - 1),
                         vt_c, trans_b=1).T
        dens = C.chebval2d(st - 1.0 / self.Nt_win, sx - 1.0 / self.N_x,
                           self.density_coeffs)
        return self.scale * dens * 4.0 / (self.Nt_win * self.N_x)

    def psi(self, tau1, eta):
        s_t = self.s_of_tau1(tau1)
        s_x = self.s_of_eta(eta)
        if np.any(np.abs(s_x) > 1 + 1e-9) or np.any(s_t < -1 - 1e-9) \
                or np.any(s_t > 1 + 1e-9):
            raise QasianError("evaluation point outside interpolation domain")
        vals = np.atleast_1d(self.psi_sq(s_t, s_x))
        out = _shifted_sqrt(vals, self.shift_used)
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
        if psi_val == 0.0:
            # the lifted psi^2 is <= 0 here: |psi| has no derivative
            raise QasianError("psi vanishes at the evaluation point")
        dpsi_dsx = dsq_dsx / (2.0 * psi_val)
        dpsi_dst = dsq_dst / (2.0 * psi_val)
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
    The time window starts at spec.Delta (time_window).  The M_tau1 *
    M_eta prefix rectangles read their block probabilities from one
    _SegmentSums of the squared state, which sums each distinct segment
    of their plans once, and all their blocks go to the estimator in one
    call.  `scale` is the factor (N_b times the squared solution norm)
    relating squared state amplitudes to psi^2.
    If a fitted density at the node grid is <= 0, every density the
    interpolant returns is lifted by the node grid's positive_shift, at
    least err_bound, before the square root.
    """
    amps = np.asarray(getattr(state, "amplitudes", state))
    if amps.size != spec.dim:
        raise ValidationError("state dimension does not match grid spec")
    M_t = int(cfg["M_tau1"])
    M_x = int(cfg["M_eta"])
    N_t, N_x = spec.N_tau1, spec.N_eta
    t_lo, Nt_win = time_window(spec)

    nidx_t, s_t = mock_cheb_nodes(M_t, Nt_win, t_lo, N_t - 1)
    nidx_x, s_x = mock_cheb_nodes(M_x, N_x, 0, N_x - 1)

    prob = np.abs(amps.reshape(N_t, N_x))
    prob *= prob
    plans_t = [plan_segments(t_lo, int(i), spec.n_tau1) for i in nidx_t]
    plans_x = [plan_segments(0, int(i), spec.n_eta) for i in nidx_x]
    table = _SegmentSums(prob, (s for p in plans_t for s in p.segments),
                         (s for p in plans_x for s in p.segments))
    G, errs = _estimate_blocks([table.block_probs(plan_t, plan_x)
                                for plan_t in plans_t for plan_x in plans_x],
                               est)
    G = np.reshape(G, (M_t, M_x))
    err_G = max(errs)

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
    )

    st_grid, sx_grid = np.meshgrid(s_t, s_x, indexing="ij")
    psi_sq_nodes = interp.psi_sq(st_grid, sx_grid)
    interp.shift_used = positive_shift(psi_sq_nodes, err_bound)
    psi_nodes = _shifted_sqrt(psi_sq_nodes, interp.shift_used)
    return ExtractionResult(
        interpolant=interp,
        psi_nodes=psi_nodes,
        raw_integrals=G,
        err_bound=err_bound,
        ae_calls=est.calls,
        ae_cost=est.total_cost,
    )

