import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import qasian as qa
from qasian import grid, oracle
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


STRIKE_PUT = {"sigma": 0.7, "r": 0.03, "q": 0.01, "T": 2.0, "K": 1.3,
              "kind": "avg_strike_put"}


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
        every step, out of place; run serially over the blocks of
        MC_BLOCK paths, block b on child b of SeedSequence(seed)."""
        n_blocks = -(-n_paths // oracle.MC_BLOCK)
        dt = params.T / n_steps
        drift = (params.r - params.q - 0.5 * params.sigma ** 2) * dt
        vol = params.sigma * np.sqrt(dt)
        integral, s_T = [], []
        for b, stream in enumerate(np.random.SeedSequence(seed)
                                   .spawn(n_blocks)):
            rng = np.random.default_rng(stream)
            n = min(oracle.MC_BLOCK, n_paths - b * oracle.MC_BLOCK)
            log_s = np.full(n, np.log(S0))
            block_integral = np.zeros(n)
            for _ in range(n_steps):
                prev = np.exp(log_s)
                log_s = log_s + drift + vol * rng.standard_normal(n)
                cur = np.exp(log_s)
                block_integral += 0.5 * dt * (prev + cur)
            integral.append(block_integral)
            s_T.append(np.exp(log_s))
        payoff = oracle._payoff(params, np.concatenate(integral) / params.T,
                                np.concatenate(s_T))
        disc = np.exp(-params.r * params.T)
        return oracle.PriceQuote(
            disc * float(np.mean(payoff)),
            disc * float(np.std(payoff, ddof=1) / np.sqrt(n_paths)), "mc")

    @pytest.mark.parametrize("seed", [4, 11])
    @pytest.mark.parametrize("market,S0,n_paths", [
        (market, S0, n_paths)
        for n_paths in (3_000, 2 * oracle.MC_BLOCK, 2 * oracle.MC_BLOCK + 17)
        for market, S0 in (({}, 1.0), (STRIKE_PUT, 1.7))
    ], ids=[f"{market}{size}"
            for size in ("", "-exact-multiple", "-ragged-tail")
            for market in ("default", "strike-put")])
    def test_bit_identical_to_reference_loop(self, market, S0, n_paths,
                                             seed):
        # one block (fewer than MC_BLOCK paths), two whole blocks, and two
        # blocks with a ragged third
        p = params(**market)
        assert oracle.monte_carlo_price(p, S0, n_paths, 17, seed=seed) == \
            self._reference_price(p, S0, n_paths, 17, seed)

    @staticmethod
    def _record_blocks(monkeypatch):
        """Wrap oracle._run_block; the returned list gets one (thread
        ident, lo, S_T of the block) per block run."""
        runs = []
        run_block = oracle._run_block

        def recording(stream, lo, hi, *args):
            run_block(stream, lo, hi, *args)
            runs.append((threading.get_ident(), lo, args[-1][lo:hi].copy()))
        monkeypatch.setattr(oracle, "_run_block", recording)
        return runs

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_quote_independent_of_thread_count(self, monkeypatch, cpus):
        # at most min(n_blocks, usable CPUs) threads, the caller among
        # them, and the same quote for any number of them
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        runs = self._record_blocks(monkeypatch)
        p = params()
        n_paths = 2 * oracle.MC_BLOCK + 17
        quote = oracle.monte_carlo_price(p, 1.0, n_paths, 9, seed=2)
        assert quote == self._reference_price(p, 1.0, n_paths, 9, 2)
        threads = {ident for ident, _, _ in runs}
        assert len(threads) <= min(3, cpus)
        if cpus == 1:
            assert threads == {threading.get_ident()}
        assert sorted(lo for _, lo, _ in runs) == \
            [0, oracle.MC_BLOCK, 2 * oracle.MC_BLOCK]

    def test_repeated_calls_bit_identical(self):
        # whichever thread takes which block, the quote is the same
        p = params(sigma=0.5)
        quotes = {oracle.monte_carlo_price(p, 1.0, 5 * oracle.MC_BLOCK + 3,
                                           8, seed=9) for _ in range(6)}
        assert len(quotes) == 1

    def test_blocks_draw_different_paths(self, monkeypatch):
        # blocks sharing one stream would repeat their paths, and the
        # stderr would shrink by sqrt(blocks) while the price looked fine
        runs = self._record_blocks(monkeypatch)
        oracle.monte_carlo_price(params(), 1.0, 4 * oracle.MC_BLOCK, 4,
                                 seed=3)
        ends = [s_T for _, _, s_T in sorted(runs, key=lambda r: r[1])]
        assert len(ends) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.any(ends[i] == ends[j])

    def test_blocks_taken_once_under_contention(self, monkeypatch):
        # more threads than cores and a short switch interval: every block
        # is stepped exactly once and the quote matches the serial loop
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)
        runs = self._record_blocks(monkeypatch)
        p = params()
        n_paths = 12 * oracle.MC_BLOCK + 5
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: result.append(
                oracle.monte_carlo_price(p, 1.0, n_paths, 2, seed=6)))
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert sorted(lo for _, lo, _ in runs) == \
            [b * oracle.MC_BLOCK for b in range(13)]
        assert len({ident for ident, _, _ in runs}) <= 8
        assert result == [self._reference_price(p, 1.0, n_paths, 2, 6)]


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

    @pytest.mark.parametrize("put,market,S0", [
        ("avg_rate_put", {"K": 0.9}, 1.0),
        ("avg_strike_put", {"sigma": 0.5, "r": 0.03, "q": 0.02}, 1.3),
    ])
    def test_parity_offset_matches_paths(self, put, market, S0):
        # on the same draws each call and put differ path by path by a
        # linear payoff, so the Monte-Carlo difference is that payoff's
        # sample mean, whose standard error is at most the sum of the
        # two quotes'; it lies within three of those of the closed form
        p_put = params(kind=put, **market)
        p_call = params(kind=grid.PAYOFFS[put][2], **market)
        call = oracle.monte_carlo_price(p_call, S0, 100_000, 64, seed=5)
        put_q = oracle.monte_carlo_price(p_put, S0, 100_000, 64, seed=5)
        gap = (call.value - put_q.value) - oracle.parity_offset(p_put, S0)
        assert abs(gap) <= 3 * (call.stderr + put_q.stderr)

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValidationError):
            oracle.PriceQuote(1.0, -0.1, "x")


def _draws():
    """Averages A and terminal prices S_T > 0, 1000 of each."""
    rng = np.random.default_rng(31)
    return rng.uniform(0.05, 3.0, 1000), rng.uniform(0.05, 3.0, 1000)


class TestPayoffTable:
    @pytest.mark.parametrize("kind", grid.KINDS)
    def test_payoff_is_s_T_times_psi0(self, kind):
        # at expiry (t = T, tau1 = 0) a path pays S_T psi0(eta); the rate
        # call's psi0 is its payoff max(eta, 0) only up to eta_max/2,
        # where its triangular continuation turns back
        p = params(kind=kind, T=1.5, K=0.9)
        avg, s_T = _draws()
        eta, tau1 = oracle.eta_of(s_T, avg * p.T, p.T, p)
        assert np.all(tau1 == 0.0)
        keep = eta <= (p.eta_max / 2 if kind == "avg_rate_call" else np.inf)
        payoff = oracle._payoff(p, avg, s_T)[keep]
        want = s_T[keep] * grid.psi0(p, eta[keep])
        assert np.count_nonzero(payoff) > 100
        assert np.allclose(payoff, want, rtol=1e-12,
                           atol=1e-12 * np.max(want))

    @pytest.mark.parametrize("put", [k for k in grid.KINDS
                                     if grid.PAYOFFS[k][2] != k])
    def test_call_minus_put_is_parity_offset(self, put):
        # call minus put is a payoff linear in (A, S_T) on every path, and
        # its risk-neutral value, from E[A] and E[S_T], is parity_offset
        market = dict(sigma=0.5, r=0.03, q=0.02, K=0.9)
        p_put = params(kind=put, **market)
        p_call = params(kind=grid.PAYOFFS[put][2], **market)
        avg, s_T = _draws()
        diff = oracle._payoff(p_call, avg, s_T) - oracle._payoff(p_put, avg,
                                                                 s_T)
        basis = np.column_stack([avg, s_T, np.ones_like(avg)])
        coef = np.linalg.lstsq(basis, diff, rcond=None)[0]
        assert np.allclose(basis @ coef, diff, rtol=0.0, atol=1e-12)
        S0, T = 1.3, p_put.T
        means = [oracle.closed_form_average_mean(p_put, S0),
                 S0 * np.exp((p_put.r - p_put.q) * T), 1.0]
        assert np.exp(-p_put.r * T) * (coef @ means) == pytest.approx(
            oracle.parity_offset(p_put, S0), rel=1e-12)


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
