import math
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as hs
import numpy as np
from numpy.polynomial import chebyshev as C
import pytest

import qasian as qa
import qasian.extraction as ex
from qasian.errors import NoiseDominationWarning, ValidationError


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return qa.StateVector(amps / np.linalg.norm(amps))


class TestEstimator:
    @pytest.mark.parametrize("eps", [-0.5, -1e-300, float("nan")])
    def test_rejects_negative_error(self, eps):
        with pytest.raises(ValidationError):
            qa.AmplitudeEstimator(mode="exact", eps_prime=eps)


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
    lambda est: qa.estimate_rectangle(np.abs(ZERO_HALF.reshape(4, 4)) ** 2,
                                      0, 1, 0, 3, est),
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


class TestRectangle:
    def test_exact_matches_block_sums_and_call_count(self):
        amps = random_state(9, 17).amplitudes
        prob = np.abs(amps.reshape(32, 16)) ** 2
        est = qa.AmplitudeEstimator(mode="exact")
        for t_lo in range(32):
            for t_hi in range(t_lo, 32):
                pop_t = bin(t_hi - t_lo + 1).count("1")
                for x_lo in range(16):
                    for x_hi in range(x_lo, 16):
                        calls = est.calls
                        v, _ = qa.estimate_rectangle(prob, t_lo, t_hi,
                                                     x_lo, x_hi, est)
                        truth = np.sum(prob[t_lo:t_hi + 1, x_lo:x_hi + 1])
                        assert abs(v - truth) <= 1e-15
                        assert est.calls - calls == \
                            pop_t * bin(x_hi - x_lo + 1).count("1")

    @pytest.mark.parametrize("shape", [(16,), (2, 2, 4), (3, 4), (4, 6),
                                       (0, 4)])
    def test_rejects_table_without_power_of_two_sides(self, shape):
        with pytest.raises(ValidationError):
            qa.estimate_rectangle(np.full(shape, 1.0 / 16), 0, 0, 0, 0,
                                  qa.AmplitudeEstimator(mode="exact"))


class RecordingEstimator(qa.AmplitudeEstimator):
    """An estimator that keeps every probability it is asked about."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = []

    def estimate_sqrt(self, q):
        self.seen.extend(np.atleast_1d(q).tolist())
        return super().estimate_sqrt(q)


class ScalarEstimator(RecordingEstimator):
    """AmplitudeEstimator.estimate_sqrt as first written, one probability
    per call: the reference for the batched estimator."""

    def estimate_sqrt(self, q):
        self.seen.append(q)
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


def reference_blocks(probs, est):
    """_estimate_blocks as first written: one estimator call per block,
    both sums added as the blocks go."""
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


def per_block_reference(prob, t_lo, nidx_t, nidx_x, est):
    """G by one np.sum per segment pair of each prefix rectangle
    [t_lo, t_k] x [0, x_l], through the per-block estimator loop."""
    n_t, n_x = (N.bit_length() - 1 for N in prob.shape)
    G = np.empty((len(nidx_t), len(nidx_x)))
    for k, t_hi in enumerate(nidx_t):
        for l, x_hi in enumerate(nidx_x):
            probs = [float(np.sum(prob[wt:wt + 2 ** (n_t - mt),
                                       wx:wx + 2 ** (n_x - mx)]))
                     for wt, mt in qa.plan_segments(t_lo, t_hi, n_t).segments
                     for wx, mx in qa.plan_segments(0, x_hi, n_x).segments]
            G[k, l] = reference_blocks(probs, est)[0]
    return G


class TestBatchedEstimation:
    """One estimator call per readout against one call per block."""

    @staticmethod
    def _pair(mode, eps=3e-3, seed=12):
        # 1/eps is inexact, so a cost of k/eps is not k terms added in turn
        return (RecordingEstimator(mode=mode, eps_prime=eps, seed=seed),
                ScalarEstimator(mode=mode, eps_prime=eps, seed=seed))

    @staticmethod
    def _same_state(new, ref):
        assert new.calls == ref.calls
        assert new.total_cost == ref.total_cost
        # the batch drew exactly as many uniforms as the scalar calls
        assert new._rng.random() == ref._rng.random()

    @pytest.mark.parametrize("mode", ex.AE_MODES)
    def test_estimate_sqrt_matches_scalar_calls(self, mode):
        q = np.random.default_rng(3).random(300) ** 4
        q[:6] = [0.0, 1.0, -1e-3, 1.0 + 1e-12, 1e-9, 5e-7]
        new, ref = self._pair(mode)
        got = new.estimate_sqrt(q)
        assert got.tolist() == [ref.estimate_sqrt(x) for x in q]
        one = new.estimate_sqrt(q[7])
        assert type(one) is float and one == ref.estimate_sqrt(q[7])
        self._same_state(new, ref)

    @pytest.mark.parametrize("mode", ex.AE_MODES)
    def test_blocks_match_scalar_loop(self, mode):
        # runs of one to 40 blocks, some below eps'^2 so that noisy
        # modes warn; long runs add more terms than a pairwise sum would
        # take in order
        rng = np.random.default_rng(9)
        runs = [rng.random(int(k)) ** 6 for k in rng.integers(1, 41, 30)]
        new, ref = self._pair(mode)
        with warnings.catch_warnings(record=True) as w_new:
            warnings.simplefilter("always")
            totals, errs = ex._estimate_blocks(runs, new)
        with warnings.catch_warnings(record=True) as w_ref:
            warnings.simplefilter("always")
            expect = [reference_blocks(r.tolist(), ref) for r in runs]
        assert totals == [t for t, _ in expect]
        assert errs == [e for _, e in expect]
        self._same_state(new, ref)
        assert [str(w.message) for w in w_new] == \
            [str(w.message) for w in w_ref]
        assert (len(w_ref) > 0) == (mode != "exact")

    @pytest.mark.filterwarnings(
        "ignore::qasian.errors.NoiseDominationWarning")
    @pytest.mark.parametrize("mode", ex.AE_MODES)
    def test_rectangle_and_window_match_scalar_loop(self, mode):
        amps = random_state(9, 2).amplitudes
        prob = np.abs(amps.reshape(32, 16)) ** 2
        new, ref = self._pair(mode, eps=3e-2)
        for t_lo, t_hi, x_lo, x_hi in ((0, 31, 0, 15), (3, 29, 5, 14),
                                       (7, 7, 3, 3), (1, 22, 2, 11)):
            plan_t = qa.plan_segments(t_lo, t_hi, 5)
            plan_x = qa.plan_segments(x_lo, x_hi, 4)
            table = ex._SegmentSums(prob, plan_t.segments, plan_x.segments)
            assert qa.estimate_rectangle(prob, t_lo, t_hi, x_lo, x_hi,
                                         new) == reference_blocks(
                table.block_probs(plan_t, plan_x).tolist(), ref)
        for x_i, x_f in ((0, 511), (5, 300), (17, 17)):
            plan = qa.plan_segments(x_i, x_f, 9)
            probs = [float(np.real(np.vdot(amps[w:w + 2 ** (9 - m)],
                                           amps[w:w + 2 ** (9 - m)])))
                     for w, m in plan.segments]
            total, err = reference_blocks(probs, ref)
            assert qa.estimate_window_integral(amps, x_i, x_f, new) == \
                (total / 512, err / 512)
        self._same_state(new, ref)


class TestSegmentTable:
    """extract_psi_2d's shared table of segment sums against one np.sum
    per block."""

    MARKET = qa.MarketParams(sigma=1.0, r=0.0, q=0.0, T=1.0, K=1.0,
                             eta_max=1.0)

    def _run(self, amps, n_t, n_x, Delta, M_t, M_x, mode, eps=0.0):
        spec = qa.grid_spec_direct(self.MARKET, n_x, n_t, Delta=Delta)
        new = RecordingEstimator(mode=mode, eps_prime=eps, seed=4)
        ref = ScalarEstimator(mode=mode, eps_prime=eps, seed=4)
        with warnings.catch_warnings(record=True) as w_new:
            warnings.simplefilter("always")
            res = qa.extract_psi_2d(amps, spec, {"M_eta": M_x,
                                                 "M_tau1": M_t}, new)
        it, ix = res.interpolant.nodes_t[0], res.interpolant.nodes_x[0]
        prob = np.abs(amps.reshape(spec.N_tau1, spec.N_eta)) ** 2
        with warnings.catch_warnings(record=True) as w_ref:
            warnings.simplefilter("always")
            G = per_block_reference(prob, res.interpolant.t_lo, it, ix, ref)
        return res, new, ref, G, w_new, w_ref

    @staticmethod
    def _same_sequence(new, ref):
        assert new.calls == ref.calls == len(ref.seen)
        a, b = np.array(new.seen), np.array(ref.seen)
        assert np.all(np.abs(a - b) <= 1e-15 * b)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n_t,n_x,Delta,M_t,M_x", [
        (5, 5, 0.0, 5, 6),
        (5, 4, 0.3, 4, 5),      # t_lo > 0
        (1, 5, 0.0, 2, 6),      # N_tau1 = 2
        (4, 5, 0.25, 1, 6),     # M = 1 on the time axis
        (5, 4, 0.0, 6, 1),      # M = 1 on the eta axis
    ], ids=["square", "delta", "two-slices", "one-time-node",
            "one-eta-node"])
    def test_exact_matches_per_block_sums(self, dtype, n_t, n_x, Delta, M_t,
                                          M_x):
        rng = np.random.default_rng(n_t * 10 + n_x)
        amps = rng.normal(size=2 ** (n_t + n_x))
        if dtype is complex:
            amps = amps + 1j * rng.normal(size=amps.size)
        amps /= np.linalg.norm(amps)
        res, new, ref, G, _, _ = self._run(amps, n_t, n_x, Delta, M_t, M_x,
                                           "exact")
        if Delta > 0:
            assert res.interpolant.t_lo > 0
        self._same_sequence(new, ref)
        assert np.all(np.abs(res.raw_integrals - G) <= 1e-15 * G)

    @pytest.mark.parametrize("mode", ["stochastic", "adversarial"])
    def test_noisy_modes_match_per_block_sums(self, mode):
        # a state that vanishes on the first eta columns and the first
        # time rows, so that some blocks fall below eps'^2 and warn
        rng = np.random.default_rng(8)
        amps = rng.normal(size=(32, 32))
        amps[:5] = 0.0
        amps[:, :9] = 0.0
        amps = (amps / np.linalg.norm(amps)).reshape(-1)
        res, new, ref, G, w_new, w_ref = self._run(amps, 5, 5, 0.0, 6, 6,
                                                   mode, eps=1e-3)
        self._same_sequence(new, ref)
        assert np.all(np.abs(res.raw_integrals - G) <= 1e-15 * G)
        assert w_ref and all(w.category is NoiseDominationWarning
                             for w in w_ref)
        assert [str(w.message) for w in w_new] == \
            [str(w.message) for w in w_ref]
        assert res.ae_cost == new.total_cost == ref.total_cost
        assert new._rng.random() == ref._rng.random()

    def test_readout_call_count(self):
        # the benchmark's 2^10 x 2^10 planted readout at M = 8 takes 1764
        # amplitude estimations
        s = -1.0 + (2.0 * np.arange(2 ** 10) + 1.0) / 2 ** 10
        P = 1.2 + 0.5 * s + 0.3 * s ** 2 - 0.2 * s ** 3
        Q = 1.0 - 0.4 * s + 0.25 * s ** 2 + 0.1 * s ** 3
        surf = np.outer(P, Q)
        spec = qa.grid_spec_direct(self.MARKET, 10, 10, Delta=0.0)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d((surf / np.linalg.norm(surf)).reshape(-1),
                                spec, {"M_eta": 8, "M_tau1": 8}, est)
        assert res.ae_calls == est.calls == 1764

    @pytest.mark.parametrize("shape", [(32, 16), (16, 1), (1, 2), (2, 32)])
    def test_narrow_span_matches_full_width(self, shape):
        # a rectangle's table spans only the columns its eta segments
        # cover; the whole-width segment (0, 0) widens it to the full
        # table, and the block sums must not change in the last bit
        prob = np.random.default_rng(shape[1]).random(shape)
        n_t, n_x = (N.bit_length() - 1 for N in shape)
        for t_lo in range(0, shape[0], 3):
            for t_hi in range(t_lo, shape[0], 2):
                plan_t = qa.plan_segments(t_lo, t_hi, n_t)
                for x_lo in range(shape[1]):
                    for x_hi in range(x_lo, shape[1]):
                        plan_x = qa.plan_segments(x_lo, x_hi, n_x)
                        narrow = ex._SegmentSums(prob, plan_t.segments,
                                                 plan_x.segments)
                        full = ex._SegmentSums(
                            prob, plan_t.segments,
                            plan_x.segments + ((0, 0),))
                        assert list(narrow.block_probs(plan_t, plan_x)) \
                            == list(full.block_probs(plan_t, plan_x))

    @pytest.mark.parametrize("b", range(5))
    def test_dyadic_cover_tiles_the_block(self, b):
        for lo in range(40):
            cover = list(ex._dyadic_cover(lo, b))
            cells = [i for c, j in cover
                     for i in range(j << c, (j + 1) << c)]
            assert cells == list(range(lo, lo + 2 ** b))
            assert (len(cover) == 1) == (lo % 2 ** b == 0)


class TestPsiSqLattice:
    """psi_sq's tensor-lattice path against point-by-point chebval2d."""

    @staticmethod
    def _interp(coeffs=None):
        if coeffs is None:
            coeffs = np.random.default_rng(5).normal(size=(7, 5))
        return ex.Interpolant2D(
            density_coeffs=coeffs, nodes_t=None, nodes_x=None, Nt_win=128,
            N_x=32, t_lo=0, delta_tau1=1 / 128, eta_max=1.0, scale=1.7)

    @staticmethod
    def _pointwise(it, s_t, s_x):
        st, sx = np.broadcast_arrays(np.asarray(s_t, dtype=float),
                                     np.asarray(s_x, dtype=float))
        dens = C.chebval2d(st - 1.0 / it.Nt_win, sx - 1.0 / it.N_x,
                           it.density_coeffs)
        return it.scale * dens * 4.0 / (it.Nt_win * it.N_x)

    @staticmethod
    def _centres(N):
        return -1.0 + (2.0 * np.arange(N) + 1.0) / N

    def _cases(self):
        t, x = self._centres(128), self._centres(32)
        sq = np.meshgrid(t, t, indexing="ij")
        rect = np.meshgrid(t, x, indexing="ij")
        perm = np.random.default_rng(3).permutation(t.size * x.size)
        shuffled = [a.reshape(-1)[perm].reshape(a.shape) for a in rect]
        return {"square": sq, "non-square": rect,
                "broadcast": (t[:, None], x[None, :]),
                "scalar": (0.3, -0.7), "1-D": (t[:32], x),
                "scalar-1-D": (0.3, x), "shuffled": shuffled}

    def test_matches_pointwise(self):
        # the lattice is two Vandermonde products, not the pointwise
        # Clenshaw recurrence: equal to 1e-14 of the largest value
        it = self._interp()
        for name, (s_t, s_x) in self._cases().items():
            got = it.psi_sq(s_t, s_x)
            ref = self._pointwise(it, s_t, s_x)
            assert got.shape == ref.shape, name
            assert np.all(np.abs(got - ref)
                          <= 1e-14 * np.max(np.abs(ref))), name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(M_t=hs.integers(1, 9), M_x=hs.integers(1, 9),
           N_t=hs.sampled_from([0, 1, 2, 17, 128]),
           N_x=hs.sampled_from([0, 1, 2, 17, 128]),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_lattice_property(self, M_t, M_x, N_t, N_x, seed):
        # |T_k| <= 1 on [-1, 1], so pref * sum|c| bounds |psi^2| there,
        # and both evaluations are accurate to 1e-14 of that bound
        rng = np.random.default_rng(seed)
        it = self._interp(rng.normal(size=(M_t, M_x)))
        t = rng.uniform(-1.0 + 1.0 / it.Nt_win, 1.0, N_t)
        x = rng.uniform(-1.0 + 1.0 / it.N_x, 1.0, N_x)
        s_t, s_x = np.meshgrid(t, x, indexing="ij")
        got = it.psi_sq(s_t, s_x)
        ref = self._pointwise(it, s_t, s_x)
        assert got.shape == ref.shape == (N_t, N_x)
        bound = it.scale * 4.0 / (it.Nt_win * it.N_x) * np.sum(
            np.abs(it.density_coeffs))
        assert np.all(np.abs(got - ref) <= 1e-14 * bound)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_zero_size_lattice(self, shape):
        out = self._interp().psi_sq(np.zeros(shape), np.zeros(shape))
        assert out.shape == shape

    def test_lattice_memory(self):
        s = self._centres(2 ** 9)
        st, sx = np.meshgrid(s, s, indexing="ij")
        it = self._interp()
        tracemalloc.start()
        try:
            it.psi_sq(st, sx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * st.nbytes


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
    """The square root after a set of values' own positive_shift."""

    @staticmethod
    def _sqrt(values, eps_shift=0.0):
        v = np.asarray(values, dtype=float)
        return ex._shifted_sqrt(v, qa.positive_shift(v, eps_shift))

    def test_plain(self):
        assert qa.positive_shift([0.04]) == 0.0
        assert self._sqrt([0.04])[0] == pytest.approx(0.2)

    def test_shifted(self):
        assert qa.positive_shift([-0.01], 0.02) == 0.02
        assert self._sqrt([-0.01], 0.02)[0] == pytest.approx(0.1)

    def test_noise_propagation(self):
        rng = np.random.default_rng(0)
        s = np.linspace(-1, 1, 101)
        f = s ** 2 + 1.0
        noisy = f + rng.uniform(-1e-4, 1e-4, f.size)
        out = self._sqrt(noisy)
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

    @pytest.mark.parametrize("mode", ["exact", "stochastic"])
    def test_real_and_complex_states_read_alike(self, mode):
        # a real state stays float64 and reads bit-identically to the
        # same amplitudes held as complex128
        P = lambda s: 1.0 + 0.3 * s - 0.2 * s ** 2
        spec, _, norm2, real = self._plant(6, P, P)
        cplx = qa.StateVector(real.amplitudes.astype(complex))
        assert real.amplitudes.dtype == np.float64
        assert cplx.amplitudes.dtype == np.complex128
        out = [qa.extract_psi_2d(st, spec, {"M_eta": 5, "M_tau1": 5},
                                 qa.AmplitudeEstimator(mode=mode, seed=3),
                                 scale=norm2) for st in (real, cplx)]
        for field in ("psi_nodes", "raw_integrals", "err_bound"):
            assert np.array_equal(getattr(out[0], field),
                                  getattr(out[1], field)), field
        assert np.array_equal(out[0].interpolant.density_coeffs,
                              out[1].interpolant.density_coeffs)

    def test_psi_at_a_point_is_batch_independent(self):
        # the fit of a surface that vanishes on s_x < 0 dips below zero;
        # the lift before the square root is fixed at fit time, so a
        # negative psi^2 elsewhere in the call does not move psi at a
        P = lambda s: 1.0 + 0.5 * s
        spec, surf, norm2, state = self._plant(
            6, P, lambda s: np.maximum(s, 0.0))
        res = qa.extract_psi_2d(state, spec, {"M_eta": 6, "M_tau1": 4},
                                qa.AmplitudeEstimator(mode="exact"),
                                scale=norm2)
        interp = res.interpolant
        tau1 = spec.delta_tau1 * 30
        eta = qa.eta_nodes(spec, qa.MarketParams(
            sigma=1.0, r=0.0, q=0.0, T=1.0, K=1.0, eta_max=1.0))
        sq = interp.psi_sq(interp.s_of_tau1(tau1), interp.s_of_eta(eta))
        a, b = eta[np.argmax(sq)], eta[np.argmin(sq)]
        assert interp.psi_sq(interp.s_of_tau1(tau1), interp.s_of_eta(b)) < 0
        assert interp.psi(tau1, [a]) == interp.psi(tau1, [a, b])[0]
        # a lattice call agrees with row-by-row calls, compared under the
        # square root: the lift leaves psi^2 ~ 5e-14 at its minimum, where
        # the root turns a 1e-16 change of psi^2 into a 3e-10 one of psi
        taus = spec.delta_tau1 * np.arange(1, spec.N_tau1 + 1)
        lattice = interp.psi(taus[:, None], eta[None, :]) ** 2
        rows = np.array([interp.psi(t, eta) for t in taus]) ** 2
        assert np.all(np.abs(lattice - rows) <= 1e-14 * np.max(rows))

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
        d_eta, d_tau1 = interp.dpsi(tau1, eta)
        s_t = float(interp.s_of_tau1(tau1))
        s_x = float(interp.s_of_eta(eta))
        psi_true = P(s_t) * P(s_x)
        # d psi/d s_x = 0.5 * P(s_t); map to eta via 1/eta_max = 1
        assert d_eta == pytest.approx(0.5 * P(s_t), rel=0.05)
        ds_dtau1 = 2.0 / (interp.Nt_win * interp.delta_tau1)
        assert d_tau1 == pytest.approx(0.5 * P(s_x) * ds_dtau1, rel=0.05)

    def test_greeks_raise_where_psi_vanishes(self):
        # density s_x with no lift: psi^2 < 0 on s_x < 0, where psi is 0
        interp = ex.Interpolant2D(
            density_coeffs=np.array([[0.0, 1.0]]), nodes_t=None,
            nodes_x=None, Nt_win=8, N_x=8, t_lo=0, delta_tau1=1 / 8,
            eta_max=1.0, scale=1.0)
        assert interp.shift_used == 0.0
        assert interp.psi_sq(0.0, -0.5) < 0
        assert interp.psi(0.5, -0.5) == 0.0
        with pytest.raises(qa.QasianError, match="vanishes"):
            interp.dpsi(0.5, -0.5)
        assert all(np.isfinite(interp.dpsi(0.5, 0.5)))

    def test_greeks_constant_surface(self):
        P = lambda s: np.full(np.shape(s), 1.0)
        spec, surf, norm2, state = self._plant(6, P, P)
        est = qa.AmplitudeEstimator(mode="exact")
        res = qa.extract_psi_2d(state, spec, {"M_eta": 4, "M_tau1": 4},
                                est, scale=norm2)
        d_eta, d_tau1 = res.interpolant.dpsi(spec.delta_tau1 * 20, 0.1)
        assert abs(d_eta) < 1e-6
        assert abs(d_tau1) < 1e-4
