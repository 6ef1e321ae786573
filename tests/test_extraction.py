import warnings

import numpy as np
import pytest

import qasian as qa
import qasian.extraction as ex
from qasian.errors import NoiseDominationWarning, ValidationError


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return qa.StateVector(amps / np.linalg.norm(amps))


class TestPlanSegments:
    def test_example_3_to_9(self):
        plan = qa.plan_segments(3, 9, 4)
        assert plan.segments == ((3, 2), (7, 3), (9, 4))
        assert plan.covered == 7

    def test_power_of_two_single_segment(self):
        plan = qa.plan_segments(4, 11, 4)  # count 8 = 2^3
        assert len(plan.segments) == 1
        assert plan.segments[0] == (4, 1)

    def test_single_point(self):
        plan = qa.plan_segments(5, 5, 4)
        assert plan.segments == ((5, 4),)

    def test_sizes_strictly_decreasing(self):
        for xi, xf, n in ((0, 14, 4), (1, 30, 5), (7, 25, 5)):
            plan = qa.plan_segments(xi, xf, n)
            sizes = [2 ** (n - m) for _, m in plan.segments]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert sum(sizes) == plan.covered

    def test_count_bound(self):
        for xi, xf in ((0, 30), (3, 9), (5, 20)):
            plan = qa.plan_segments(xi, xf, 5)
            assert len(plan.segments) == bin(xf - xi + 1).count("1")

    def test_range_errors(self):
        with pytest.raises(ValidationError):
            qa.plan_segments(3, 2, 4)
        with pytest.raises(ValidationError):
            qa.plan_segments(0, 16, 4)


class TestWindowIntegral:
    def test_exact_matches_brute_force(self):
        st = random_state(5, 11)
        est = qa.AmplitudeEstimator(mode="exact")
        for xi in range(32):
            for xf in range(xi, 32):
                v, _ = qa.estimate_window_integral(st, xi, xf, est)
                truth = qa.brute_prefix_sum(st, xi, xf) / 32
                assert abs(v - truth) < 1e-12

    def test_full_range_normalization(self):
        st = random_state(6, 3)
        est = qa.AmplitudeEstimator(mode="exact")
        v, _ = qa.estimate_window_integral(st, 0, 63, est)
        assert v == pytest.approx(1 / 64, abs=1e-12)

    def test_stochastic_bound(self):
        eps = 1e-3
        st = random_state(6, 5)
        exact = qa.AmplitudeEstimator(mode="exact")
        worst = 0.0
        for seed in range(200):
            est = qa.AmplitudeEstimator(mode="stochastic", eps_prime=eps,
                                        seed=seed)
            v, bound = qa.estimate_window_integral(st, 5, 50, est)
            t, _ = qa.estimate_window_integral(st, 5, 50, exact)
            worst = max(worst, abs(v - t))
        # <= segments * (2 eps sqrt(q_max) + eps^2) / 2^n
        n_seg = len(qa.plan_segments(5, 50, 6).segments)
        assert worst <= n_seg * (2 * eps + eps ** 2) / 64

    def test_adversarial_within_declared_bound(self):
        st = random_state(5, 9)
        est = qa.AmplitudeEstimator(mode="adversarial", eps_prime=1e-3)
        exact = qa.AmplitudeEstimator(mode="exact")
        v, bound = qa.estimate_window_integral(st, 2, 27, est)
        t, _ = qa.estimate_window_integral(st, 2, 27, exact)
        assert abs(v - t) <= bound + 1e-15


#: 16 amplitudes whose first eight are zero
ZERO_HALF = np.r_[np.zeros(8), np.full(8, 8 ** -0.5)].astype(complex)


@pytest.mark.parametrize("read", [
    lambda est: qa.estimate_window_integral(ZERO_HALF, 0, 7, est),
    # rows 0-1 of the 4 x 4 (time, eta) register: the same zero block
    lambda est: qa.estimate_rectangle(ZERO_HALF, 2, 2, 0, 1, 0, 3, est),
], ids=["window", "rectangle"])
class TestNoiseDomination:
    def test_stochastic_warns_on_zero_block(self, read):
        est = qa.AmplitudeEstimator(mode="stochastic", eps_prime=1e-3)
        with pytest.warns(NoiseDominationWarning):
            read(est)
        assert est.calls == 1

    def test_exact_does_not_warn(self, read):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read(qa.AmplitudeEstimator(mode="exact", eps_prime=1e-3))


class TestMockChebNodes:
    def test_cosine_values(self):
        _, s = qa.mock_cheb_nodes(2, 64, 0, 63)
        ref = np.cos((2 * np.arange(1, 3) - 1) * np.pi / 4)
        assert np.max(np.abs(s - ref)) <= 1.0 / 64

    def test_snap_example(self):
        idx, s = qa.mock_cheb_nodes(2, 4, 0, 3)
        assert list(s) == [0.75, -0.75]
        assert list(idx) == [3, 0]

    def test_rounding_bound(self):
        for M, N in ((4, 64), (8, 256), (16, 1024)):
            _, s = qa.mock_cheb_nodes(M, N, 0, N - 1)
            ref = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
            assert np.max(np.abs(s - ref)) <= 1.0 / N + 1e-15

    def test_distinct_indices(self):
        idx, _ = qa.mock_cheb_nodes(8, 16, 0, 15)
        assert len(set(idx)) == 8


class TestFitInterpolant:
    def test_orthonormal_at_exact_nodes(self):
        for M in (4, 8, 16):
            s = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
            V = ex.vandermonde(s, M)
            assert np.max(np.abs(V.T @ V - np.eye(M))) < 1e-10
            assert np.linalg.cond(V) - 1 < 1e-8

    def test_basis_reproduction(self):
        M = 6
        s = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
        u0 = ex.vandermonde(s, M)[:, 0]
        a = qa.fit_interpolant(u0, s)
        expect = np.zeros(M)
        expect[0] = 1.0
        assert np.allclose(a, expect, atol=1e-12)

    def test_cubic_reproduced(self):
        M = 6
        s = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
        a = qa.fit_interpolant(s ** 3, s)
        scan = np.linspace(-1, 1, 57)
        assert np.max(np.abs(ex.interpolant_eval(a, scan) - scan ** 3)) < 1e-10


class TestDifferentiate:
    def test_t2_endpoint(self):
        # interpolant equal to T_2: derivative at s = 1 equals 4
        M = 4
        s = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
        a = qa.fit_interpolant(2 * s ** 2 - 1, s)
        d = qa.differentiate_interpolant(a)
        assert d(1.0) == pytest.approx(4.0, abs=1e-10)

    def test_constant_zero(self):
        M = 4
        s = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
        d = qa.differentiate_interpolant(qa.fit_interpolant(np.ones(M), s))
        assert np.max(np.abs(d(np.linspace(-1, 1, 33)))) < 1e-12

    def test_sin2s(self):
        M = 12
        s = np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M))
        d = qa.differentiate_interpolant(qa.fit_interpolant(np.sin(2 * s), s))
        scan = np.linspace(-1, 1, 100)
        assert np.max(np.abs(d(scan) - 2 * np.cos(2 * scan))) < 1e-5


class TestPositiveShiftSqrt:
    def test_plain(self):
        assert qa.positive_shift_sqrt([0.04])[0] == pytest.approx(0.2)

    def test_shifted(self):
        assert qa.positive_shift_sqrt([-0.01], 0.02)[0] == pytest.approx(0.1)

    def test_noise_propagation(self):
        rng = np.random.default_rng(0)
        s = np.linspace(-1, 1, 101)
        f = s ** 2 + 1.0
        noisy = f + rng.uniform(-1e-4, 1e-4, f.size)
        out = qa.positive_shift_sqrt(noisy)
        assert np.max(np.abs(out - np.sqrt(f))) <= 1e-4 / np.min(np.sqrt(f))


class TestExtract2D:
    def _plant(self, n, P, Q):
        p = qa.MarketParams(sigma=1.0, r=0.0, q=0.0, T=1.0, K=1.0,
                            eta_max=1.0)
        spec = qa.grid_spec_direct(p, n, n, Delta=0.0)
        st = -1 + (2 * np.arange(spec.N_tau1) + 1) / spec.N_tau1
        sx = -1 + (2 * np.arange(spec.N_eta) + 1) / spec.N_eta
        surf = np.outer(P(st), Q(sx))
        norm2 = float(np.sum(surf ** 2))
        state = qa.StateVector((surf / np.sqrt(norm2)).reshape(-1))
        return spec, surf, norm2, state

    def test_planted_polynomial_round_trip(self):
        P = lambda s: 1.2 + 0.5 * s + 0.3 * s ** 2 - 0.2 * s ** 3
        Q = lambda s: 1.0 - 0.4 * s + 0.25 * s ** 2 + 0.1 * s ** 3
        spec, surf, norm2, state = self._plant(8, P, Q)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d(state, spec, {"M_eta": 8, "M_tau1": 8},
                                est, scale=norm2)
        it, _ = res.interpolant.nodes_t
        ix, _ = res.interpolant.nodes_x
        truth = np.abs(surf[np.ix_(it, ix)])
        assert np.max(np.abs(res.psi_nodes - truth)) < 1e-4

    def test_m1_recovers_mean_scale(self):
        P = lambda s: np.full(np.shape(s), 1.0)
        spec, surf, norm2, state = self._plant(6, P, P)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d(state, spec, {"M_eta": 1, "M_tau1": 1},
                                est, scale=norm2)
        assert res.psi_nodes.shape == (1, 1)
        assert res.psi_nodes[0, 0] == pytest.approx(1.0, rel=0.05)

    def test_solver_state_rectangle_integrals(self):
        # the raw prefix-rectangle sums feeding the fit agree with brute
        # force on a genuine solver state
        p = qa.MarketParams(sigma=1.0, r=0.05, q=0.0, T=1.0, K=1.0,
                            eta_max=4.0)
        spec = qa.grid_spec_direct(p, 5, 4, Delta=0.0)
        psi_t, nb, _ = qa.solve_pricing_system(spec, p)
        sol_norm = float(np.linalg.norm(psi_t))
        state = qa.StateVector(psi_t / sol_norm)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d(state, spec,
                                {"M_eta": 10, "M_tau1": 8, "eta_max": 4.0},
                                est, scale=nb * sol_norm ** 2)
        it, _ = res.interpolant.nodes_t
        ix, _ = res.interpolant.nodes_x
        prob = np.abs(psi_t.reshape(spec.N_tau1, spec.N_eta) / sol_norm) ** 2
        for k, t_hi in enumerate(it):
            for l, x_hi in enumerate(ix):
                truth = float(np.sum(prob[:t_hi + 1, :x_hi + 1]))
                assert res.raw_integrals[k, l] == pytest.approx(
                    truth, abs=1e-12)

    def test_greeks_planted_product(self):
        # amp = c * (1 + s_t/2)(1 + s_x/2), scaled so psi = eta * tau1
        # checks the chain rule through both axis maps
        P = lambda s: 1.0 + 0.5 * s
        spec, surf, norm2, state = self._plant(7, P, P)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d(state, spec, {"M_eta": 6, "M_tau1": 6,
                                              "eta_max": 1.0},
                                est, scale=norm2)
        interp = res.interpolant
        # pick an interior point
        tau1 = spec.delta_tau1 * (spec.N_tau1 // 2)
        eta = 0.25
        d_eta, d_tau1 = qa.greeks(interp, None, (eta, tau1))
        s_t = float(interp.s_of_tau1(tau1))
        s_x = float(interp.s_of_eta(eta))
        psi_true = P(s_t) * P(s_x)
        # d psi/d s_x = 0.5 * P(s_t); map to eta via 1/eta_max = 1
        assert d_eta == pytest.approx(0.5 * P(s_t), rel=0.05)
        ds_dtau1 = 2.0 / (interp.Nt_win * interp.delta_tau1)
        assert d_tau1 == pytest.approx(0.5 * P(s_x) * ds_dtau1, rel=0.05)

    def test_greeks_constant_surface(self):
        P = lambda s: np.full(np.shape(s), 1.0)
        spec, surf, norm2, state = self._plant(6, P, P)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d(state, spec, {"M_eta": 4, "M_tau1": 4},
                                est, scale=norm2)
        d_eta, d_tau1 = qa.greeks(res.interpolant, None,
                                  (0.1, spec.delta_tau1 * 20))
        assert abs(d_eta) < 1e-6
        assert abs(d_tau1) < 1e-4
