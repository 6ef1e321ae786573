import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import qasian as qa
from qasian import oracle
from qasian.errors import QasianError, ValidationError


def params(**kw):
    base = dict(sigma=0.3, r=0.05, q=0.0, T=1.0, K=1.0, eta_max=4.0)
    base.update(kw)
    return qa.MarketParams(**base)


class TestCrankNicolson:
    def test_initial_slice_is_payoff(self):
        p = params()
        lattice, eta, tau1 = oracle.crank_nicolson_solve(p, 128, 16)
        assert np.allclose(lattice[0], qa.psi0(p, eta))
        assert tau1[0] == 0.0
        assert tau1[-1] == pytest.approx(p.T)

    def test_second_order_in_space(self):
        # Richardson: error vs a very fine solve should drop ~4x when h
        # halves (theta = 1/2 is second order in both variables)
        p = params(sigma=0.4)
        ref, eta_ref, tau_ref = oracle.crank_nicolson_solve(p, 1024, 256)
        errs = []
        for n_x in (64, 128, 256):
            lat, eta, tau = oracle.crank_nicolson_solve(p, n_x, 256)
            mid = lat[-1]
            truth = oracle.cn_interpolate(ref, eta_ref, tau_ref, eta, p.T)
            interior = (np.abs(eta) < 0.5 * p.eta_max)
            errs.append(np.max(np.abs(mid - truth)[interior]))
        order = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
        assert order < -1.5

    def test_sigma_zero_transport(self):
        # with sigma = 0, r = q the PDE is pure advection at speed 1/T:
        # psi(eta, tau1) = psi0(eta + tau1/T)
        p = params(sigma=0.0, r=0.0, q=0.0)
        lattice, eta, tau1 = oracle.crank_nicolson_solve(p, 512, 512)
        t_idx = 256
        shift = tau1[t_idx] / p.T
        interior = (np.abs(eta + shift) < 0.9 * p.eta_max) \
            & (np.abs(eta) < 0.9 * p.eta_max)
        expect = qa.psi0(p, eta + shift)
        # centered differencing disperses at the payoff kinks, so the
        # sup-norm converges slowly; 2% at 512^2 is the observed level
        assert np.max(np.abs(lattice[t_idx] - expect)[interior]) < 0.05

    @staticmethod
    def _reference_lattice(params, n_x, n_t, kink_shift=0.0):
        """The march as first written: a sparse LU of I - (dt/2) L and
        one sparse product (I + (dt/2) L) psi per step."""
        eta = oracle.cn_nodes(params, n_x)
        h = eta[1] - eta[0]
        dt = params.T / n_t
        diff = 0.5 * params.sigma ** 2 * eta ** 2
        drift = 1.0 / params.T - (params.r - params.q) * eta
        lower = diff / h ** 2 - drift / (2 * h)
        center = -2.0 * diff / h ** 2
        upper = diff / h ** 2 + drift / (2 * h)
        L = sp.diags([lower[1:], center, upper[:-1]], offsets=[-1, 0, 1],
                     format="lil")
        L[0, :] = 0.0
        L[-1, :] = 0.0
        L = L.tocsc()
        I = sp.identity(n_x, format="csc")
        lhs = spla.factorized((I - 0.5 * dt * L).tocsc())
        rhs_op = (I + 0.5 * dt * L).tocsr()
        psi = qa.psi0(params, eta, kink_shift=kink_shift)
        lattice = np.empty((n_t + 1, n_x))
        lattice[0] = psi
        for step in range(1, n_t + 1):
            psi = lhs(rhs_op @ psi)
            lattice[step] = psi
        return lattice

    @pytest.mark.parametrize("market,kink_shift", [
        ({}, 0.0),
        ({"sigma": 0.0, "r": 0.0}, 0.0),
        ({"sigma": 1.0, "r": 0.0}, 0.0),
        ({"sigma": 0.7, "r": 0.03, "q": 0.01, "T": 2.0}, 0.05),
        ({"sigma": 0.5, "kind": "avg_strike_put"}, -0.1),
    ], ids=["default", "sigma0", "sigma1", "kink-shift", "strike-put"])
    def test_matches_sparse_reference(self, market, kink_shift):
        p = params(**market)
        for n_x, n_t in ((256, 200), (3, 5), (64, 1)):
            lattice, eta, tau1 = oracle.crank_nicolson_solve(
                p, n_x, n_t, kink_shift=kink_shift)
            ref = self._reference_lattice(p, n_x, n_t, kink_shift)
            assert np.max(np.abs(lattice - ref)) <= \
                1e-12 * np.max(np.abs(ref))

    def test_blow_up_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "psi0",
                            lambda params, eta, kink_shift=0.0:
                            np.full(eta.shape, np.nan))
        with pytest.raises(QasianError):
            oracle.crank_nicolson_solve(params(), 64, 8)

    @pytest.mark.parametrize("n_x,n_t", [(1, 4), (2, 4), (64, 0), (64, -3)])
    def test_rejects_degenerate_grids(self, n_x, n_t):
        with pytest.raises(ValidationError):
            oracle.crank_nicolson_solve(params(), n_x, n_t)

    def test_interpolator_roundtrip(self):
        p = params()
        lattice, eta, tau1 = oracle.crank_nicolson_solve(p, 64, 8)
        v = oracle.cn_interpolate(lattice, eta, tau1, eta[10], tau1[3])
        assert v == pytest.approx(lattice[3, 10], abs=1e-12)


class TestMonteCarlo:
    def test_zero_strike_closed_form(self):
        # K = 0 average-rate call pays the arithmetic average itself
        p = params(K=0.0)
        quote = oracle.monte_carlo_price(p, 1.0, 200_000, 64, seed=7)
        truth = np.exp(-p.r * p.T) * oracle.closed_form_average_mean(p, 1.0)
        z = (quote.value - truth) / quote.stderr
        assert abs(z) < 3.0

    def test_stderr_scaling(self):
        p = params()
        q1 = oracle.monte_carlo_price(p, 1.0, 20_000, 32, seed=1)
        q2 = oracle.monte_carlo_price(p, 1.0, 80_000, 32, seed=1)
        assert q2.stderr == pytest.approx(q1.stderr / 2.0, rel=0.1)

    def test_degenerate_volatility(self):
        # sigma ~ 0 makes every path deterministic
        p = params(sigma=1e-12, r=0.0)
        quote = oracle.monte_carlo_price(p, 2.0, 5_000, 64, seed=0)
        assert quote.stderr < 1e-9
        assert quote.value == pytest.approx(1.0, abs=1e-6)

    def test_path_floor(self):
        with pytest.raises(ValidationError):
            oracle.monte_carlo_price(params(), 1.0, 10, 8)

    @pytest.mark.parametrize("S0,n_steps", [(1.0, 0), (1.0, -2), (-1.0, 4),
                                            (0.0, 4), (float("nan"), 4)])
    def test_rejects_degenerate_inputs(self, S0, n_steps):
        with pytest.raises(ValidationError):
            oracle.monte_carlo_price(params(), S0, 1000, n_steps)

    def test_put_call_ordering(self):
        p_call = params(K=0.5)
        p_put = qa.MarketParams(sigma=0.3, r=0.05, q=0.0, T=1.0, K=0.5,
                                eta_max=4.0, kind="avg_rate_put")
        call = oracle.monte_carlo_price(p_call, 1.0, 50_000, 32, seed=3)
        put = oracle.monte_carlo_price(p_put, 1.0, 50_000, 32, seed=3)
        # deep in the money call dominates the matching put
        assert call.value > put.value

    @staticmethod
    def _reference_price(params, S0, n_paths, n_steps, seed):
        """The stepping loop as first written: exp of both path ends in
        every step, out of place."""
        rng = np.random.default_rng(seed)
        dt = params.T / n_steps
        drift = (params.r - params.q - 0.5 * params.sigma ** 2) * dt
        vol = params.sigma * np.sqrt(dt)
        log_s = np.full(n_paths, np.log(S0))
        integral = np.zeros(n_paths)
        for _ in range(n_steps):
            prev = np.exp(log_s)
            log_s = log_s + drift + vol * rng.standard_normal(n_paths)
            cur = np.exp(log_s)
            integral += 0.5 * dt * (prev + cur)
        payoff = oracle._payoff(params, integral / params.T, np.exp(log_s))
        disc = np.exp(-params.r * params.T)
        return oracle.PriceQuote(
            disc * float(np.mean(payoff)),
            disc * float(np.std(payoff, ddof=1) / np.sqrt(n_paths)), "mc")

    @pytest.mark.parametrize("seed", [4, 11])
    @pytest.mark.parametrize("market,S0", [
        ({}, 1.0),
        ({"sigma": 0.7, "r": 0.03, "q": 0.01, "T": 2.0, "K": 1.3,
          "kind": "avg_strike_put"}, 1.7),
    ], ids=["default", "strike-put"])
    def test_bit_identical_to_reference_loop(self, market, S0, seed):
        p = params(**market)
        assert oracle.monte_carlo_price(p, S0, 3_000, 17, seed=seed) == \
            self._reference_price(p, S0, 3_000, 17, seed)


class TestPriceMaps:
    def test_eta_of_avg_rate(self):
        p = params(T=2.0, K=1.5)
        eta, tau1 = oracle.eta_of(1.0, 3.0, 0.5, p)
        assert eta == pytest.approx((3.0 - 1.5 * 2.0) / (1.0 * 2.0))
        assert tau1 == pytest.approx(1.5)

    def test_eta_of_avg_strike(self):
        p = qa.MarketParams(sigma=0.3, r=0.05, q=0.0, T=2.0, K=1.0,
                            eta_max=4.0, kind="avg_strike_call")
        eta, _ = oracle.eta_of(2.0, 3.0, 0.0, p)
        assert eta == pytest.approx(3.0 / 4.0)

    def test_price_from_psi(self):
        p = params(q=0.02)
        quote = oracle.price_from_psi(0.4, 1.5, None, 0.0, p)
        assert quote.value == pytest.approx(1.5 * np.exp(-0.02) * 0.4)
        assert quote.method == "pde"

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValidationError):
            oracle.PriceQuote(1.0, -0.1, "x")


class TestBrutePrefixSum:
    def test_manual(self):
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        assert oracle.brute_prefix_sum(amps, 1, 2) == pytest.approx(0.5)

    def test_full_window_unit(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        assert oracle.brute_prefix_sum(amps, 0, 15) == pytest.approx(1.0)

    def test_range_guard(self):
        with pytest.raises(ValidationError):
            oracle.brute_prefix_sum(np.ones(4), 2, 4)

    def test_matches_segment_estimator(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        st = qa.StateVector(amps)
        est = qa.AmplitudeEstimator(mode="exact")
        for xi, xf in ((0, 0), (3, 9), (7, 30), (0, 31)):
            v, _ = qa.estimate_window_integral(st, xi, xf, est)
            assert v * 32 == pytest.approx(
                oracle.brute_prefix_sum(amps, xi, xf), abs=1e-12)
