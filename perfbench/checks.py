"""Output checks of the benchmark, and the references they compare against.

Every reference here is computed apart from the program, or is a
property the method must have; none is a saved copy of earlier output.
Each check returns a list of failure messages; an empty list means the
operation's output is correct.
"""

import math

import numpy as np
# scipy.stats.norm.cdf is this function; importing scipy.stats itself would
# add ~40 MB to the peak RSS that the benchmark measures
from scipy.special import ndtr

#: relative agreement of the reported condition numbers with a dense SVD
KAPPA_RTOL = 1e-8
#: acceptance 8's bound on the exact-estimator readout of a planted surface
READOUT_TOL = 1e-6
#: Gauss-Legendre nodes and weights on [-1, 1] for the time average of calls
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


# ---------------------------------------------------------------------------
# closed-form no-arbitrage bounds of the arithmetic-average-rate call

def geometric_average_call(S0, K, r, q, sigma, T):
    """Kemna-Vorst price of the continuous geometric-average call.

    The geometric average never exceeds the arithmetic one, so this is a
    lower bound of the arithmetic-average call.
    """
    mu = math.log(S0) + (r - q - 0.5 * sigma ** 2) * T / 2.0
    v = sigma ** 2 * T / 3.0
    d1 = (mu - math.log(K) + v) / math.sqrt(v)
    d2 = d1 - math.sqrt(v)
    return float(math.exp(-r * T) * (math.exp(mu + v / 2.0) * ndtr(d1)
                                     - K * ndtr(d2)))


def average_of_calls(S0, K, r, q, sigma, T):
    """Time average of Black-Scholes calls, each carried to T at rate r.

    max(avg - K, 0) <= avg of max(S_t - K, 0) (Jensen), so this is an
    upper bound of the arithmetic-average call.  The average over t is
    taken in u = sqrt(t/T), where the integrand is smooth (the call grows
    as sqrt(t) at the money), by Gauss-Legendre quadrature.
    """
    u = 0.5 * (_GL_X + 1.0)
    t = T * u ** 2
    sd = sigma * np.sqrt(t)
    d1 = (np.log(S0 / K) + (r - q + 0.5 * sigma ** 2) * t) / sd
    d2 = d1 - sd
    call = S0 * np.exp(-q * t) * ndtr(d1) - K * np.exp(-r * t) * ndtr(d2)
    # (1/T) dt = 2u du, and the weights on [0, 1] are _GL_W / 2
    return float(np.sum(_GL_W * np.exp(-r * (T - t)) * call * u))


def price_bounds(params, S0):
    """(lower, upper) closed-form bounds for an avg_rate_call market."""
    args = (S0, params["K"], params["r"], params["q"], params["sigma"],
            params["T"])
    return geometric_average_call(*args), average_of_calls(*args)


def check_in_bounds(label, value, bounds):
    lo, hi = bounds
    if lo <= value <= hi:
        return []
    return [f"{label} {value:.6g} outside the no-arbitrage band "
            f"[{lo:.6g}, {hi:.6g}]"]


def cn_price_at_eta0(lattice, eta, params, S0):
    """Price read from the last Crank-Nicolson row at eta0 = -K/S0.

    eta0 is the average-rate coordinate (I - K T)/(S T) at I = 0, t = 0;
    psi is interpolated linearly between the oracle's cell centres.
    """
    eta0 = -params["K"] / S0
    psi = float(np.interp(eta0, eta, lattice[-1]))
    return S0 * math.exp(-params["q"] * params["T"]) * psi


# ---------------------------------------------------------------------------
# dense condition numbers, built from the operator factors

def dense_kappas(A2, A1, C_eta2, Ct):
    """(kappa(A+B), kappa(W)) from dense SVDs of matrices built here.

    A = I (x) A2, B = Ct (x) A1^-1 + I (x) A1^-1 C_eta2 and
    W = I + A^-1 B, with A2 inverted by a dense LU solve rather than by the
    program's fast inverse.
    """
    It = np.eye(Ct.shape[0])
    a1_inv = 1.0 / np.diag(A1)
    A = np.kron(It, A2)
    B = np.kron(Ct, np.diag(a1_inv)) + np.kron(It, a1_inv[:, None] * C_eta2)
    s = np.linalg.svd(A + B, compute_uv=False)
    kappa_raw = float(s[0] / s[-1])
    del A, s
    W = np.kron(It, np.linalg.inv(A2)) @ B
    W[np.diag_indices_from(W)] += 1.0
    s = np.linalg.svd(W, compute_uv=False)
    return kappa_raw, float(s[0] / s[-1])


def check_condition(condition, dense_ref):
    """The report holds kappa(W) <= C_AB C_AB' and matches the dense SVD."""
    out = []
    bound = condition["C_AB"] * condition["C_AB_prime"]
    if not condition["kappa_W"] <= bound * (1 + 1e-9):
        out.append(f"kappa_W {condition['kappa_W']:.6g} above "
                   f"C_AB*C_AB' = {bound:.6g}")
    if dense_ref is not None:
        for key, ref in zip(("kappa_raw", "kappa_W"), dense_ref):
            if abs(condition[key] - ref) > KAPPA_RTOL * ref:
                out.append(f"{key} {condition[key]:.10g} differs from the "
                           f"dense SVD's {ref:.10g}")
    return out


def check_price_vs_mc(price, err_bound, mc_value, mc_stderr):
    """Acceptance 10's rule: |price - MC| <= max(3 stderr, extraction bound)."""
    tol = max(3.0 * mc_stderr, err_bound)
    gap = abs(price - mc_value)
    if gap <= tol:
        return []
    return [f"price {price:.6g} is {gap:.3g} from Monte-Carlo "
            f"{mc_value:.6g}, above the tolerance {tol:.3g}"]


# ---------------------------------------------------------------------------
# readout of a planted surface

def snapped_nodes(M, N):
    """Indices of the N cell centres nearest the M Chebyshev nodes."""
    s_grid = -1.0 + (2.0 * np.arange(N) + 1.0) / N
    s_k = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
    return np.argmin(np.abs(s_grid[None, :] - s_k[:, None]), axis=1)


def expected_ae_calls(M_t, N_t, M_x, N_x):
    """Amplitude-estimation calls of a readout whose windows start at 0.

    A prefix window [0, i] splits into popcount(i + 1) power-of-two
    segments, and each pair of time and eta segments takes one call.
    """
    def segments(M, N):
        return sum(bin(int(i) + 1).count("1") for i in snapped_nodes(M, N))
    return segments(M_t, N_t) * segments(M_x, N_x)


def check_readout(recovered, planted, limit, ae_calls, expected_calls):
    """Recovered |psi| within `limit` of the planted surface, exact call count."""
    out = []
    err = float(np.max(np.abs(recovered - planted)))
    if not err <= limit:
        out.append(f"recovered surface {err:.3g} from the planted one, "
                   f"above {limit:.3g}")
    if ae_calls != expected_calls:
        out.append(f"{ae_calls} amplitude-estimation calls, "
                   f"expected {expected_calls}")
    return out
