import math

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import expm

import qasian as qa
from qasian.errors import InfeasibleScaleError, ValidationError
from qasian.grid import eta_hat_diagonal, eta_from_pauli

from conftest import assemble_system


def params(sigma=1.0, r=0.05, q=0.0, T=1.0, K=1.0, eta_max=1.0,
           kind="avg_rate_call"):
    return qa.MarketParams(sigma=sigma, r=r, q=q, T=T, K=K,
                           eta_max=eta_max, kind=kind)


class TestMakeGrid:
    def test_example_sigma1(self):
        # t_star = (2/16)^2 * ln(1e3) ~ 0.108 -> n_tau1 = 3 (delta = 1/9)
        spec = qa.make_grid(params(sigma=1.0), 4, 1e-3)
        assert spec.n_tau1 == 3
        assert spec.delta_tau1 == pytest.approx(1 / 9)

    def test_divisibility_rule(self):
        spec = qa.make_grid(params(), 3, 1e-3)
        assert spec.N_eta % 4 == 0
        with pytest.raises(ValidationError):
            qa.make_grid(params(), 1, 1e-3)  # 2^1 = 2 not divisible by 4

    def test_degenerate_eps(self):
        with pytest.raises((InfeasibleScaleError, ValidationError)):
            qa.make_grid(params(), 4, 1.0)

    def test_spacings(self):
        spec = qa.make_grid(params(eta_max=4.0), 4, 1e-3)
        assert spec.delta_eta_hat == 2 / 16
        assert spec.delta_eta == 4.0 * 2 / 16
        assert spec.delta_tau1 == 1.0 / (2 ** spec.n_tau1 + 1)

    def test_smoothing_inequality_respected(self):
        spec = qa.make_grid(params(sigma=1.0), 4, 1e-3)
        lhs = 1.0 * 1.0 * spec.N_eta ** 2 / spec.N_tau1
        assert lhs >= math.log(1e3)


class TestTimeDerivative:
    def test_n1_matrix(self):
        spec = qa.grid_spec_direct(params(), 2, 1)
        D = qa.build_time_derivative(spec)
        assert np.allclose(D, [[0.0, 1.5], [-1.5, 0.0]])

    def test_antisymmetric(self):
        for n in (1, 2, 3, 4):
            D = qa.build_time_derivative(qa.grid_spec_direct(params(), 2, n))
            assert np.max(np.abs(D + D.T)) == 0.0

    def test_n2_entries(self):
        spec = qa.grid_spec_direct(params(), 2, 2)
        D = qa.build_time_derivative(spec)
        assert D[0, 1] == pytest.approx(2.5)
        assert D[0, 3] == 0.0


class TestEtaOperator:
    def test_n1_diag(self):
        op, _ = qa.build_eta_operator(qa.grid_spec_direct(params(), 2, 1))
        # n_eta fixed at 2 by the divisibility rule; check n=1 via diagonal
        assert np.allclose(eta_hat_diagonal(1), [-0.5, 0.5])

    def test_n2_diag(self):
        assert np.allclose(eta_hat_diagonal(2), [-0.75, -0.25, 0.25, 0.75])

    def test_trace_zero_and_pauli_reconstruction(self):
        for n in (2, 3, 4, 5):
            spec = qa.grid_spec_direct(params(), n, 1)
            op, pauli = qa.build_eta_operator(spec)
            assert abs(np.trace(op)) < 1e-12
            assert np.allclose(eta_from_pauli(pauli, n), np.diag(op))


def scipy_bases(n):
    """(S, C): the orthonormal DST-II and DCT-II on 2^n points, by
    scipy.fft, rows as frequencies."""
    eye = np.eye(2 ** n)
    return (scipy.fft.dst(eye, type=2, norm="ortho", axis=0),
            scipy.fft.dct(eye, type=2, norm="ortho", axis=0))


def cell_waves(spec, k):
    """sin and cos(pi*k*(eta + eta_max)/(2*eta_max)) on the nodes, the
    phase reduced mod 2 pi in integers."""
    x = np.arange(spec.N_eta)
    phase = np.pi * (k * (2 * x + 1) % (4 * spec.N_eta)) / (2 * spec.N_eta)
    return np.sin(phase), np.cos(phase)


class TestSineBases:
    def test_match_scipy(self):
        for n in range(1, 9):
            S, C = scipy_bases(n)
            assert np.max(np.abs(qa.build_dst(n) - S)) < 1e-14, n
            assert np.max(np.abs(qa.build_dct(n) - C)) < 1e-14, n

    def test_orthonormal(self):
        for n in range(1, 9):
            for M in (qa.build_dst(n), qa.build_dct(n)):
                assert M.dtype == np.float64
                assert np.max(np.abs(M @ M.T - np.eye(2 ** n))) < 1e-13, n

    def test_single_row_concentration(self):
        # a sampled sine wave of frequency k maps to row k - 1 of S alone
        spec = qa.grid_spec_direct(params(), 3, 1)
        sin3, _ = cell_waves(spec, 3)
        coeffs = np.abs(qa.build_dst(3) @ sin3)
        assert np.argmax(coeffs) == 2
        assert np.sum(coeffs > 1e-12) == 1


class TestSpectralDerivative:
    def test_representable_wave_exact(self):
        # D_eta takes each sine of frequency k < N to pi*k/(2*eta_max)
        # times its cosine, exactly: they span the sine interpolant
        p = params(eta_max=4.0)
        scale = np.pi / (2 * p.eta_max)
        for n_eta in range(2, 9):
            spec = qa.grid_spec_direct(p, n_eta, 1)
            D = qa.build_spectral_derivative(spec, p)
            for k in range(1, spec.N_eta):
                f, g = cell_waves(spec, k)
                assert np.max(np.abs(D @ f - scale * k * g)) \
                    < 1e-14 * scale * spec.N_eta, (n_eta, k)

    def test_top_sine_derivative_vanishes_on_nodes(self):
        # the cosine of frequency N is zero at every cell centre
        p = params()
        spec = qa.grid_spec_direct(p, 5, 1)
        f, _ = cell_waves(spec, spec.N_eta)
        D = qa.build_spectral_derivative(spec, p)
        assert np.max(np.abs(D @ f)) < 1e-12

    def test_constant_vector_interior(self):
        # constants are not exactly representable in the sine basis;
        # the derivative is small away from the domain edges
        p = params()
        spec = qa.grid_spec_direct(p, 6, 1)
        D = qa.build_spectral_derivative(spec, p)
        out = np.abs(D @ np.ones(spec.N_eta))
        interior = out[spec.N_eta // 4: 3 * spec.N_eta // 4]
        assert np.max(interior) < np.max(out) / 5


class TestSpatialOperators:
    def test_sigma_zero_kills_diffusion(self):
        p = params(sigma=0.0)
        spec = qa.grid_spec_direct(p, 3, 1)
        assert np.max(np.abs(qa.build_operators(spec, p).C_eta1)) == 0.0

    def test_factorization(self):
        p = params(sigma=0.7, r=0.04, q=0.01)
        spec = qa.grid_spec_direct(p, 4, 2)
        C1 = qa.build_operators(spec, p).C_eta1
        A1 = qa.build_A1(spec, p)
        A2 = qa.build_A2(spec)
        assert np.max(np.abs(A1 @ A2 - C1)) < 1e-12

    def test_operators_are_real(self):
        p = params(sigma=0.7, r=0.04, q=0.01, eta_max=4.0)
        spec = qa.grid_spec_direct(p, 5, 2)
        ops = qa.build_operators(spec, p)
        for name in ("C_eta1", "C_eta2", "A1", "A2"):
            assert getattr(ops, name).dtype == np.float64, name
        assert qa.fast_invert_exact("A2", spec, p).dtype == np.float64
        # A2 is S^T diag((k/2)^2) S with scipy's DST-II
        S, _ = scipy_bases(spec.n_eta)
        k = np.arange(1, spec.N_eta + 1)
        assert np.max(np.abs(ops.A2 - S.T @ ((k[:, None] / 2.0) ** 2 * S))) \
            < 1e-12 * np.max(np.abs(ops.A2))

    def test_r_equals_q_finite(self):
        p = params(r=0.05, q=0.05)
        spec = qa.grid_spec_direct(p, 3, 1)
        C2 = qa.build_operators(spec, p).C_eta2
        assert np.all(np.isfinite(C2))
        # pure 1/T transport term remains
        assert np.max(np.abs(C2)) > 0


class TestRhs:
    def test_sparsity_pattern(self):
        p = params(eta_max=2.0)
        spec = qa.grid_spec_direct(p, 4, 3)
        rhs, nb = qa.build_rhs(spec, p)
        body = rhs.reshape(spec.N_tau1, spec.N_eta)
        assert np.max(np.abs(body[1:-1])) == 0.0

    def test_triangular_apex(self):
        p = params(eta_max=2.0)
        spec = qa.grid_spec_direct(p, 6, 3)
        eta = qa.eta_nodes(spec, p)
        prof = qa.psi0(p, eta)
        # peak near eta_max/2 with value approaching eta_max/2
        assert abs(eta[np.argmax(prof)] - p.eta_max / 2) <= spec.delta_eta
        assert np.max(prof) <= p.eta_max / 2
        assert np.max(prof) >= p.eta_max / 2 - spec.delta_eta

    def test_norm_matches_brute_force(self):
        p = params(eta_max=2.0)
        spec = qa.grid_spec_direct(p, 4, 3)
        rhs, nb = qa.build_rhs(spec, p)
        p0 = qa.psi0(p, qa.eta_nodes(spec, p))
        # only the first block is nonzero at N_tau1 = 8; the tau1 = T
        # slice is closed by extrapolation, not pinned to psi0
        brute = np.sum((p0 / 2) ** 2)
        assert nb == pytest.approx(brute, abs=1e-12)
        assert np.linalg.norm(rhs) == pytest.approx(1.0, abs=1e-12)

    def test_two_slice_closure_reaches_initial_slice(self):
        # at N_tau1 = 2 the extrapolated tau1 = T ghost uses the tau1 = 0
        # slice, which moves to the last rhs block as -psi0/2
        p = params(eta_max=2.0)
        spec = qa.grid_spec_direct(p, 3, 1)
        rhs, nb = qa.build_rhs(spec, p)
        body = math.sqrt(nb) * rhs.reshape(2, spec.N_eta)
        p0 = qa.psi0(p, qa.eta_nodes(spec, p))
        assert np.max(np.abs(body[0] - p0 / 2)) < 1e-15
        assert np.max(np.abs(body[1] + p0 / 2)) < 1e-15


class TestAssemble:
    def test_kronecker_identity(self):
        p = params()
        spec = qa.grid_spec_direct(p, 2, 2)
        M, rhs, A, B = assemble_system(spec, p)
        Ct = spec.delta_tau1 * qa.build_time_derivative(spec)
        K = np.kron(Ct, np.eye(spec.N_eta))
        for t in range(spec.N_tau1):
            for x in range(spec.N_eta):
                e = np.zeros(spec.dim)
                e[t * spec.N_eta + x] = 1.0
                expect = np.kron(Ct[:, t], np.eye(spec.N_eta)[:, x])
                assert np.allclose(K @ e, expect)

    def test_summand_decomposition(self):
        p = params(sigma=0.5, r=0.03)
        spec = qa.grid_spec_direct(p, 3, 2)
        M, rhs, A, B = assemble_system(spec, p)
        ops = qa.build_operators(spec, p)
        Ct = spec.delta_tau1 * (qa.build_time_derivative(spec)
                                + ops.C_close)
        # the closure puts a nonzero diagonal in Ct, so the spatial
        # summands are added first, as the assembly does, for exact equality
        total = (np.kron(Ct, np.eye(spec.N_eta))
                 + (np.kron(np.eye(spec.N_tau1), ops.C_eta1)
                    + np.kron(np.eye(spec.N_tau1), ops.C_eta2)))
        assert np.max(np.abs(M - total)) == 0.0

    def test_ab_split_consistent(self):
        p = params(sigma=0.5, r=0.03)
        spec = qa.grid_spec_direct(p, 3, 2)
        M, rhs, A, B = assemble_system(spec, p)
        a1_inv = np.diag(1.0 / np.diag(qa.build_A1(spec, p)))
        lhs = np.kron(np.eye(spec.N_tau1), a1_inv) @ M
        assert np.max(np.abs(lhs - (A + B))) < 1e-10

    def test_closure_row_is_bdf2(self):
        for n in (1, 2, 3):
            spec = qa.grid_spec_direct(params(), 2, n)
            N = spec.N_tau1
            ops = qa.build_operators(spec, params())
            # the dense parts summed, and E^-1 C~ E from the diagonals the
            # solver factors, E^-1 = I + m e_{N-1} e_{N-2}^T
            dl, d, du, m = ops.Ct
            E, E_inv = np.eye(N), np.eye(N)
            E[N - 1, N - 2], E_inv[N - 1, N - 2] = -m, m
            C_tilde = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
            for Ct in (spec.delta_tau1 * (qa.build_time_derivative(spec)
                                          + ops.C_close),
                       E_inv @ C_tilde @ E):
                expect = np.zeros(N)
                expect[N - 2:] = [-2.0, 1.5]
                if N >= 3:
                    expect[N - 3] = 0.5
                assert np.max(np.abs(Ct[-1] - expect)) < 1e-14
                # rows above the last keep the central stencil
                central = spec.delta_tau1 * qa.build_time_derivative(spec)
                assert np.array_equal(Ct[:-1], central[:-1])
        # the closure needs at least two interior slices
        with pytest.raises(ValidationError):
            qa.grid_spec_direct(params(), 2, 0)

    @pytest.mark.parametrize("n_tau1", [1, 2, 3, 4, 7])
    def test_time_diagonals_similar_to_closed_operator(self, n_tau1):
        # E^-1 C~ E is the dense closed Ct, with E = I - m e_{N-1} e_{N-2}^T
        # the row operation and C~ the tridiagonal of build_time_operator
        spec = qa.grid_spec_direct(params(), 2, n_tau1)
        N = spec.N_tau1
        ops = qa.build_operators(spec, params())
        dl, d, du, m = ops.Ct
        assert [len(v) for v in (dl, d, du)] == [N - 1, N, N - 1]
        C_tilde = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        E = np.eye(N)
        E[N - 1, N - 2] = -m
        Ct = spec.delta_tau1 * (qa.build_time_derivative(spec) + ops.C_close)
        assert np.max(np.abs(np.linalg.solve(E, C_tilde @ E) - Ct)) <= \
            1e-15 * np.max(np.abs(Ct))
        assert (m == 0.0) == (N == 2)

    def test_converges_to_semi_discrete_solution(self):
        # the space-time solve approaches expm(-tau L) psi0 as the time
        # register grows; pinning psi0 at tau1 = T instead left an O(1)
        # error that did not shrink
        p = params(sigma=1.0, eta_max=4.0)
        errs = []
        for n_tau1 in range(2, 7):
            spec = qa.grid_spec_direct(p, 4, n_tau1)
            M, rhs, A, B = assemble_system(spec, p)
            _, nb = qa.build_rhs(spec, p)
            x = np.linalg.solve(M, math.sqrt(nb) * rhs)
            surf = x.reshape(spec.N_tau1, spec.N_eta)
            ops = qa.build_operators(spec, p)
            L = (ops.C_eta1 + ops.C_eta2) / spec.delta_tau1
            p0 = qa.psi0(p, qa.eta_nodes(spec, p))
            ref = np.array([expm(-t * L) @ p0 for t in qa.tau1_nodes(spec)])
            errs.append(float(np.max(np.abs(surf - ref))))
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < errs[0] / 4, errs
