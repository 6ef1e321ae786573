"""Independent ground truth for the pricing pipeline.

Three unrelated routes to the same numbers:
  * a Crank-Nicolson finite-difference solve of the reduced PDE on a
    fine cell-centered grid,
  * Monte-Carlo simulation of the underlying geometric Brownian motion
    with exact log-normal stepping, in blocks of MC_BLOCK paths, each
    block on its own stream spawned from the seed and the blocks shared
    out over the usable CPUs,
  * brute-force window sums over statevectors (oracle for the
    segmentation estimator).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import os
import threading

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import ValidationError, QasianError
from .grid import PAYOFFS, psi0

#: Paths per block of monte_carlo_price, each block on its own stream.
MC_BLOCK = 2 ** 13


@dataclass(frozen=True)
class PriceQuote:
    """An option price with its statistical error and provenance tag."""

    value: float
    stderr: float
    method: str

    def __post_init__(self):
        if self.stderr < 0:
            raise ValidationError("stderr must be >= 0")


def cn_nodes(params, n_x):
    """Cell-centered eta nodes of the oracle grid (n_x points)."""
    h = 2.0 * params.eta_max / n_x
    return -params.eta_max + h / 2.0 + h * np.arange(n_x)


def crank_nicolson_solve(params, n_x, n_t, kink_shift=0.0):
    """Theta = 1/2 finite-difference solve of the reduced PDE.

    d psi/d tau1 = (sigma^2 eta^2 / 2) psi_etaeta + (1/T - (r-q) eta) psi_eta
    marched from psi(., 0) = psi0 to tau1 = T in n_t steps.  The two edge
    rows are frozen at their initial values (Dirichlet treatment of the
    truncation boundary).  Returns (lattice[(n_t+1), n_x], eta, tau1).

    With A = I - (dt/2) L, a step solves A psi_{n+1} = (2I - A) psi_n,
    that is psi_{n+1} = 2 A^-1 psi_n - psi_n: one solve with the
    tridiagonal LU of A (dgttrf, once) per step, in place in the
    lattice row.
    """
    if n_x < 3 or n_t < 1:
        raise ValidationError(f"need n_x >= 3 and n_t >= 1, got n_x={n_x}, "
                              f"n_t={n_t}")
    eta = cn_nodes(params, n_x)
    h = eta[1] - eta[0]
    dt = params.T / n_t
    diff = 0.5 * params.sigma ** 2 * eta ** 2
    drift = 1.0 / params.T - (params.r - params.q) * eta
    lower = diff / h ** 2 - drift / (2 * h)
    center = -2.0 * diff / h ** 2
    upper = diff / h ** 2 + drift / (2 * h)
    # A's three diagonals; the edge rows of L are zero
    center[[0, -1]] = 0.0
    lower[-1] = 0.0
    upper[0] = 0.0
    dl, d, du, du2, ipiv, info = dgttrf(-0.5 * dt * lower[1:],
                                        1.0 - 0.5 * dt * center,
                                        -0.5 * dt * upper[:-1])
    if info != 0:
        raise QasianError(f"Crank-Nicolson matrix is singular (dgttrf info "
                          f"{info})")
    lattice = np.empty((n_t + 1, n_x))
    lattice[0] = psi0(params, eta, kink_shift=kink_shift)
    with np.errstate(all="ignore"):
        for step in range(1, n_t + 1):
            x = lattice[step]
            x[:] = lattice[step - 1]
            dgttrs(dl, d, du, du2, ipiv, x, overwrite_b=1)
            x *= 2.0
            x -= lattice[step - 1]
        # a non-finite entry makes its row's norm non-finite
        norms = np.sqrt(np.einsum("ij,ij->i", lattice, lattice))
        blown = not np.all(np.isfinite(norms)) or np.any(
            norms > 1e6 * max(norms[0], 1.0))
    if blown:
        raise QasianError("finite-difference solution blow-up")
    tau1 = dt * np.arange(n_t + 1)
    return lattice, eta, tau1


def cn_interpolate(lattice, eta, tau1, eta_q, tau1_q):
    """Bilinear interpolation of the oracle lattice at query points."""
    from scipy.interpolate import RegularGridInterpolator
    itp = RegularGridInterpolator((tau1, eta), lattice, method="linear",
                                  bounds_error=False, fill_value=None)
    pts = np.column_stack([np.broadcast_to(tau1_q, np.shape(eta_q)).ravel()
                           if np.ndim(eta_q) else [tau1_q],
                           np.atleast_1d(eta_q).ravel()])
    out = itp(pts)
    return out if out.size > 1 else float(out[0])


def _payoff(params, avg, s_T):
    family, sign, _ = PAYOFFS[params.kind]
    X = params.K if family == "rate" else s_T
    return np.maximum(avg - X if sign > 0 else X - avg, 0.0)


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_block(stream, lo, hi, log_s0, drift, vol, half_dt, n_steps,
               integral, s_T):
    """Step paths lo..hi-1 on their own stream, in the block's own
    buffers; add their trapezoid integral into integral[lo:hi] (zeros on
    entry) and write their S_T into s_T[lo:hi].

    Each step works in place, in the evaluation order (log_s + drift) +
    vol*z and (0.5*dt)*(prev + cur); prev and cur swap buffers, so every
    exp is taken once.
    """
    rng = np.random.default_rng(stream)
    n = hi - lo
    z = np.empty(n)
    log_s = np.full(n, log_s0)
    prev = np.exp(log_s)
    cur = np.empty(n)
    acc = integral[lo:hi]
    for _ in range(n_steps):
        rng.standard_normal(out=z)
        z *= vol
        log_s += drift
        log_s += z
        np.exp(log_s, out=cur)
        prev += cur
        prev *= half_dt
        acc += prev
        prev, cur = cur, prev
    s_T[lo:hi] = prev


def monte_carlo_price(params, S0, n_paths, n_steps, seed=0):
    """Risk-neutral Monte-Carlo price of the arithmetic-average option.

    Exact log-normal GBM stepping (no discretization bias in the path
    marginals); the running average uses the trapezoid rule over the
    sampled path.  Returns mean +- standard error, discounted.

    The paths are stepped in blocks of MC_BLOCK (the last block takes the
    rest).  Block b draws from child b of SeedSequence(seed).spawn(n_blocks),
    so the blocks are independent streams and the quote depends only on
    (params, S0, n_paths, n_steps, seed).  min(n_blocks, usable CPUs)
    threads, the calling one among them, take the blocks from a shared
    counter; numpy's generator and ufuncs release the GIL.  The payoff,
    its mean and its ddof=1 standard error are taken over all paths.
    """
    if n_paths < 1000:
        raise ValidationError("need n_paths >= 1000")
    if n_steps < 1:
        raise ValidationError(f"need n_steps >= 1, got {n_steps}")
    if not S0 > 0:
        raise ValidationError(f"need S0 > 0, got {S0!r}")
    dt = params.T / n_steps
    drift = (params.r - params.q - 0.5 * params.sigma ** 2) * dt
    vol = params.sigma * np.sqrt(dt)
    n_blocks = -(-n_paths // MC_BLOCK)
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    integral = np.zeros(n_paths)
    s_T = np.empty(n_paths)
    blocks = iter(range(n_blocks))
    lock = threading.Lock()

    def run_blocks():
        while True:
            with lock:
                b = next(blocks, None)
            if b is None:
                return
            lo = b * MC_BLOCK
            _run_block(streams[b], lo, min(lo + MC_BLOCK, n_paths),
                       np.log(S0), drift, vol, 0.5 * dt, n_steps, integral,
                       s_T)

    n_threads = min(n_blocks, _usable_cpus())
    with ThreadPoolExecutor(max(n_threads - 1, 1)) as pool:
        helpers = [pool.submit(run_blocks) for _ in range(n_threads - 1)]
        run_blocks()
        for helper in helpers:
            helper.result()
    avg = integral / params.T
    payoff = _payoff(params, avg, s_T)
    disc = np.exp(-params.r * params.T)
    value = disc * float(np.mean(payoff))
    stderr = disc * float(np.std(payoff, ddof=1) / np.sqrt(n_paths))
    return PriceQuote(value, stderr, "mc")


def parity_offset(params, S0):
    """Call minus put today (t = 0, nothing averaged yet), in closed form.

    Each pair's payoffs differ by a linear one: A - K for the average
    rate, worth e^{-rT}(E[A] - K), and S_T - A for the average strike,
    worth S0 e^{-qT} - e^{-rT} E[A], with E[A] from
    closed_form_average_mean.
    """
    disc = np.exp(-params.r * params.T)
    mean = closed_form_average_mean(params, S0)
    if PAYOFFS[params.kind][0] == "rate":
        return float(disc * (mean - params.K))
    return float(S0 * np.exp(-params.q * params.T) - disc * mean)


def closed_form_average_mean(params, S0):
    """E[(1/T) integral_0^T S_u du] under the risk-neutral GBM."""
    mu = params.r - params.q
    if abs(mu) < 1e-14:
        return S0
    return S0 * (np.exp(mu * params.T) - 1.0) / (mu * params.T)


def eta_of(S, I, t, params):
    """Map contract state (S, I, t) to the PDE coordinates (eta, tau1)."""
    if PAYOFFS[params.kind][0] == "rate":
        eta = (I - params.K * params.T) / (S * params.T)
    else:
        eta = I / (S * params.T)
    return eta, params.T - t


def price_from_psi(psi_val, S, I, t, params):
    """Contract price from a surface value: V = S e^{-q (T-t)} psi."""
    tau = params.T - t
    return PriceQuote(float(S * np.exp(-params.q * tau) * psi_val), 0.0, "pde")


def brute_prefix_sum(state, x_i, x_f):
    """Direct sum of |amplitude|^2 over the index window [x_i, x_f]."""
    amps = np.asarray(getattr(state, "amplitudes", state))
    if not 0 <= x_i <= x_f < amps.size:
        raise ValidationError("window out of range")
    chunk = amps[x_i:x_f + 1]
    return float(np.real(np.vdot(chunk, chunk)))
