import tracemalloc

import numpy as np
import pytest
import scipy.fft

import qasian as qa
from qasian.errors import PostSelectionWarning, ValidationError
from qasian.grid import eta_hat_diagonal

from conftest import assemble_system


def params(**kw):
    base = dict(sigma=1.0, r=0.05, q=0.0, T=1.0, K=1.0, eta_max=1.0)
    base.update(kw)
    return qa.MarketParams(**base)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


class TestCyclicShift:
    def test_n2_w1_permutation(self):
        S = qa.cyclic_shift(2, 1)
        for src, dst in ((0, 1), (1, 2), (2, 3), (3, 0)):
            e = np.zeros(4)
            e[src] = 1.0
            assert (S @ e)[dst] == 1.0

    def test_inverse_pair(self):
        for n in range(1, 7):
            for w in range(2 ** n):
                S = qa.cyclic_shift(n, w)
                Sm = qa.cyclic_shift(n, -w)
                assert np.array_equal(S @ Sm, np.eye(2 ** n))

    def test_w0_identity(self):
        assert np.array_equal(qa.cyclic_shift(3, 0), np.eye(8))


class TestCtau1Encoding:
    def test_projection_matches_matrix(self):
        for n_tau1 in (1, 2, 3, 4):
            spec = qa.grid_spec_direct(params(), 2, n_tau1)
            be = qa.build_ctau1_encoding(spec)
            target = qa.build_time_derivative(spec)
            assert np.max(np.abs(be.top_block() - target)) < 1e-12
            assert be.n_anc == 2
            assert be.alpha == pytest.approx(1.5 / spec.delta_tau1)

    def test_corners_zero(self):
        for n_tau1 in (2, 3, 4):
            spec = qa.grid_spec_direct(params(), 2, n_tau1)
            proj = qa.build_ctau1_encoding(spec).top_block()
            N = spec.N_tau1
            assert abs(proj[0, N - 1]) < 1e-13
            assert abs(proj[N - 1, 0]) < 1e-13

    def test_unitary(self):
        spec = qa.grid_spec_direct(params(), 2, 3)
        U = qa.build_ctau1_encoding(spec).unitary
        assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) < 1e-10


class TestEncodeDiagonal:
    def test_eta_n1_coefficients(self):
        be = qa.encode_diagonal(np.diag([-0.5, 0.5]), 1)
        assert be.alpha == pytest.approx(0.5)
        assert np.max(np.abs(be.top_block() - np.diag([-0.5, 0.5]))) < 1e-12

    def test_identity_single_term(self):
        be = qa.encode_diagonal(np.eye(4), 2)
        assert be.alpha == pytest.approx(1.0)
        assert be.n_anc == 0

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValidationError):
            qa.encode_diagonal(np.ones((2, 2)), 1)

    def test_drift_diagonal_projection(self):
        # drift diagonal of the first-order term, normalized below 1
        p = params(r=0.05, q=0.0, eta_max=4.0, T=1.0)
        spec = qa.grid_spec_direct(p, 3, 2)
        eta_hat = eta_hat_diagonal(3)
        d = (p.r - p.q) * eta_hat - 1.0 / (p.eta_max * p.T)
        d = d / np.max(np.abs(d))
        be = qa.encode_diagonal(np.diag(d), 3)
        assert np.max(np.abs(be.top_block() - np.diag(d))) < 1e-12
        const = abs(np.mean(d))
        assert be.alpha <= 1.0 + const + 1e-12

    def test_ancilla_accounting(self):
        # n Z-terms plus the reserved identity slot -> ceil(log2(n+1))
        for n in (2, 3, 4):
            be = qa.encode_diagonal(np.diag(eta_hat_diagonal(n)), n)
            assert be.n_anc == int(np.ceil(np.log2(n + 1)))


class TestEncodeSpectral:
    def test_projection(self):
        # C^T diag(0..N-1) X S, with scipy's DCT-II and DST-II and X the
        # cyclic shift by +1
        spec = qa.grid_spec_direct(params(), 2, 1)
        be = qa.encode_spectral(spec)
        eye = np.eye(4)
        S = scipy.fft.dst(eye, type=2, norm="ortho", axis=0)
        C = scipy.fft.dct(eye, type=2, norm="ortho", axis=0)
        target = C.T @ np.diag(np.arange(4.0)) @ qa.cyclic_shift(2, 1) @ S
        assert np.max(np.abs(be.top_block() - target)) < 1e-12
        U = be.unitary
        assert np.max(np.abs(U.conj().T @ U - np.eye(len(U)))) < 1e-12

    def test_alpha_preserved(self):
        # the orthogonal factors leave the diagonal's alpha as it is
        spec = qa.grid_spec_direct(params(), 3, 1)
        diag = qa.encode_diagonal(np.diag(np.arange(8.0)), 3)
        assert qa.encode_spectral(spec).alpha == diag.alpha

    def test_matches_derivative_up_to_scalar(self):
        p = params()
        spec = qa.grid_spec_direct(p, 3, 1)
        be = qa.encode_spectral(spec)
        D = qa.build_spectral_derivative(spec, p)
        scalar = np.pi / (2 * p.eta_max)
        assert np.max(np.abs(scalar * be.top_block() - D)) < 1e-10


class TestComposition:
    def test_product_with_identity(self):
        spec = qa.grid_spec_direct(params(), 2, 2)
        u = qa.build_ctau1_encoding(spec)
        prod = qa.be_product(u, qa.BlockEncoding(np.eye(4), 1.0, 0, 0.0))
        assert prod.alpha == u.alpha
        assert prod.err == u.err
        assert np.max(np.abs(prod.top_block() - u.top_block())) < 1e-12

    def test_error_bookkeeping(self):
        u = qa.BlockEncoding(np.eye(4, dtype=complex), 2.0, 0, 0.1)
        v = qa.BlockEncoding(np.eye(4, dtype=complex), 3.0, 0, 0.2)
        assert qa.be_product(u, v).err == pytest.approx(2 * 0.2 + 3 * 0.1)
        bl = qa.be_lincomb(1.0, u, 1.0, v)
        assert bl.err == pytest.approx(0.1 + 0.2)
        assert bl.alpha == pytest.approx(5.0)
        assert bl.n_anc == 1

    def test_product_of_random_unitaries(self):
        u = qa.BlockEncoding(random_unitary(4, 1), 1.0, 0, 0.0)
        v = qa.BlockEncoding(random_unitary(4, 2), 1.0, 0, 0.0)
        prod = qa.be_product(u, v)
        assert np.max(np.abs(prod.top_block()
                             - u.top_block() @ v.top_block())) < 1e-12

    def test_lincomb_trivial_weights(self):
        u = qa.BlockEncoding(random_unitary(4, 3), 1.0, 0, 0.0)
        eye = qa.BlockEncoding(np.eye(4), 1.0, 0, 0.0)
        bl = qa.be_lincomb(1.0, u, 0.0, eye)
        assert bl.alpha == pytest.approx(1.0)
        assert np.max(np.abs(bl.top_block() - u.top_block())) < 1e-12
        half = qa.be_lincomb(0.5, eye, 0.5, eye)
        assert half.alpha == pytest.approx(1.0)
        assert np.max(np.abs(half.top_block() - np.eye(4))) < 1e-12

    def test_b_operator_assembly(self):
        # B = delta*(C_tau1 + C_close) (x) A1^-1 + I (x) A1^-1 C_eta2
        # assembled from encodings matches the directly built matrix
        p = params(sigma=0.8, r=0.04)
        spec = qa.grid_spec_direct(p, 2, 2)
        M, rhs, A, B = assemble_system(spec, p)
        a1_inv = np.diag(1.0 / np.diag(qa.build_A1(spec, p)))
        Ct = spec.delta_tau1 * (qa.build_time_derivative(spec)
                                + qa.build_operators(spec, p).C_close)
        t1 = np.kron(Ct, a1_inv)
        t2 = np.kron(np.eye(spec.N_tau1),
                     a1_inv @ qa.build_operators(spec, p).C_eta2)
        n1 = np.linalg.norm(t1, 2)
        n2 = np.linalg.norm(t2, 2)
        u = qa.BlockEncoding(_dilate(t1 / n1), n1, 1, 0.0)
        v = qa.BlockEncoding(_dilate(t2 / n2), n2, 1, 0.0)
        bl = qa.be_lincomb(1.0, u, 1.0, v)
        assert np.max(np.abs(bl.top_block() - B)) < 1e-10

    def test_composed_projection_within_err(self):
        spec = qa.grid_spec_direct(params(), 2, 2)
        u = qa.build_ctau1_encoding(spec)
        v = qa.encode_eta(qa.grid_spec_direct(params(), 2, 1))
        prod = qa.be_product(u, v)
        target = (qa.build_time_derivative(spec)
                  @ np.diag(eta_hat_diagonal(2)))
        gap = np.linalg.norm(prod.top_block() - target, 2)
        assert gap <= prod.err + 1e-10


def _swap(d1, d2):
    """Permutation |x>|y> -> |y>|x> for registers of sizes d1, d2."""
    S = np.zeros((d1 * d2, d1 * d2))
    for x in range(d1):
        for y in range(d2):
            S[y * d1 + x, x * d2 + y] = 1.0
    return S


def _random_encoding(n_anc, seed, alpha=1.0, d=4):
    return qa.BlockEncoding(random_unitary(2 ** n_anc * d, seed), alpha,
                            n_anc, 0.0)


def _prepare(coeffs):
    """The prepare unitary lcu completes from sqrt(|c_k|/alpha)."""
    La = 2 ** max(0, (len(coeffs) - 1).bit_length())
    basis = np.eye(La)
    basis[:len(coeffs), 0] = np.sqrt(np.abs(coeffs) / np.sum(np.abs(coeffs)))
    P, _ = np.linalg.qr(basis)
    return -P if P[:, 0] @ basis[:, 0] < 0 else P


class TestCompositionWithAncillas:
    """Encodings with ancillas on both operands against the dense kron
    formulas: (U_u (x) I between ancillas and system)(I (x) U_v) for the
    product, (P^T (x) I) blockdiag(U_k) (P (x) I) for the LCU."""

    @pytest.mark.parametrize("a_u,a_v", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_product_matches_kron_formula(self, a_u, a_v):
        d = 4
        u = _random_encoding(a_u, 10 + a_u, alpha=2.0)
        v = _random_encoding(a_v, 20 + a_v, alpha=3.0)
        Au, Av = 2 ** a_u, 2 ** a_v
        idle = np.kron(np.eye(Au), _swap(d, Av))
        ref = (idle @ np.kron(u.unitary, np.eye(Av)) @ idle.T
               @ np.kron(np.eye(Au), v.unitary))
        prod = qa.be_product(u, v)
        assert prod.n_anc == a_u + a_v
        assert prod.alpha == 6.0
        assert np.max(np.abs(prod.unitary - ref)) < 1e-13

    @pytest.mark.parametrize("coeffs", [
        [0.7, -1.2j, 0.4 + 0.3j],
        [0.5, 0.0, -2.0, 1.0j, 0.25 - 0.5j],
    ])
    def test_lcu_matches_kron_formula(self, coeffs):
        d = 4
        us = [random_unitary(d, 30 + k) for k in range(len(coeffs))]
        be = qa.lcu(list(zip(coeffs, us)), d)
        P = _prepare(coeffs)
        La = len(P)
        select = np.zeros((La * d, La * d), dtype=complex)
        for k in range(La):
            c = coeffs[k] if k < len(coeffs) else 0.0
            phase = c / abs(c) if c != 0 else 1.0
            select[k * d:(k + 1) * d, k * d:(k + 1) * d] = (
                phase * us[k] if k < len(coeffs) else np.eye(d))
        ref = np.kron(P.T, np.eye(d)) @ select @ np.kron(P, np.eye(d))
        assert be.n_anc == int(np.log2(La))
        assert be.alpha == pytest.approx(np.sum(np.abs(coeffs)))
        assert np.max(np.abs(be.unitary - ref)) < 1e-13
        assert np.max(np.abs(be.top_block()
                             - sum(c * U for c, U in zip(coeffs, us)))) < 1e-12

    @pytest.mark.parametrize("a_u,a_v", [(1, 2), (2, 1), (2, 2)])
    def test_lincomb_top_block_and_unitarity(self, a_u, a_v):
        u = _random_encoding(a_u, 40 + a_u, alpha=1.5)
        v = _random_encoding(a_v, 50 + a_v, alpha=0.5)
        d1, d2 = 0.8, -1.0 + 0.5j
        bl = qa.be_lincomb(d1, u, d2, v)
        assert bl.n_anc == a_u + a_v + 1
        assert np.max(np.abs(bl.top_block() - (d1 * u.top_block()
                                               + d2 * v.top_block()))) < 1e-12
        U = bl.unitary
        assert np.max(np.abs(U.conj().T @ U - np.eye(len(U)))) < 1e-12


class TestEncodingMemory:
    """An encoding's build holds at most 3x its own unitary at once: the
    LCU is formed block by block, with no dense sandwich products."""

    @pytest.mark.parametrize("build,n_eta,n_tau1", [
        (qa.encode_spectral, 7, 1),
        (qa.encode_eta, 7, 1),
        (qa.build_ctau1_encoding, 2, 8),
    ])
    def test_peak_within_three_unitaries(self, build, n_eta, n_tau1):
        spec = qa.grid_spec_direct(params(), n_eta, n_tau1)
        tracemalloc.start()
        try:
            be = build(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * be.unitary.nbytes

def _dilate(A):
    """Exact unitary dilation of a contraction (helper for tests)."""
    A = np.asarray(A, dtype=complex)
    d = A.shape[0]
    X = np.eye(d) - A.conj().T @ A
    # symmetric square root
    w, V = np.linalg.eigh((X + X.conj().T) / 2)
    S = V @ np.diag(np.sqrt(np.clip(w, 0, None))) @ V.conj().T
    Y = np.eye(d) - A @ A.conj().T
    w2, V2 = np.linalg.eigh((Y + Y.conj().T) / 2)
    S2 = V2 @ np.diag(np.sqrt(np.clip(w2, 0, None))) @ V2.conj().T
    U = np.block([[A, S2], [S, -A.conj().T]])
    # polish to exact unitarity
    q, r = np.linalg.qr(U)
    return q * np.sign(np.diag(r))[None, :]


class TestStateVector:
    @pytest.mark.parametrize("amps,dtype", [
        (np.array([0.6, 0.8]), np.float64),
        (np.array([1, 0, 0, 0]), np.float64),
        (np.array([0.6, 0.8j]), np.complex128),
        (np.array([0.6, 0.8], dtype=np.complex64), np.complex128),
    ])
    def test_real_stays_real(self, amps, dtype):
        assert qa.StateVector(amps).amplitudes.dtype == dtype

    def test_rejects(self):
        with pytest.raises(ValidationError):
            qa.StateVector(np.ones(3))
        with pytest.raises(ValueError):
            qa.StateVector(np.array(["a", "b"]))


class TestBeApply:
    def test_identity(self):
        st = qa.StateVector(np.array([1, 0, 0, 0], dtype=complex))
        out, prob = qa.be_apply(qa.BlockEncoding(np.eye(4), 1.0, 0, 0.0), st)
        assert prob == pytest.approx(1.0)
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_eta_on_plus_state(self):
        spec = qa.grid_spec_direct(params(), 2, 1)
        be = qa.encode_eta(spec)
        plus = qa.StateVector(np.full(4, 0.5, dtype=complex))
        out, prob = qa.be_apply(be, plus)
        eta = eta_hat_diagonal(2)
        expect = float(np.sum((eta * 0.5) ** 2)) / be.alpha ** 2
        assert prob == pytest.approx(expect, abs=1e-12)

    def test_zero_operator_warns(self):
        be = qa.encode_diagonal(np.zeros((2, 2)), 1)
        st = qa.StateVector(np.array([1, 0], dtype=complex))
        with pytest.warns(PostSelectionWarning):
            out, prob = qa.be_apply(be, st)
        assert prob == 0.0
