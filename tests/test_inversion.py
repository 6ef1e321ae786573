import gc
import tracemalloc
import weakref

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import aslinearoperator

import qasian as qa
from qasian.errors import (AliasingError, NormConvergenceError,
                           SingularFactorError, ValidationError)

from conftest import assemble_system


def params(**kw):
    base = dict(sigma=1.0, r=0.05, q=0.0, T=1.0, K=1.0, eta_max=4.0)
    base.update(kw)
    return qa.MarketParams(**base)


class TestWindowState:
    def test_t2(self):
        w = qa.window_state(2)
        assert np.allclose(w, [np.sin(np.pi / 4), np.sin(3 * np.pi / 4)])
        assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_t1_anomaly(self):
        # T = 1 evaluates to sqrt(2): not a unit state by design
        w = qa.window_state(1)
        assert w[0] == pytest.approx(np.sqrt(2.0))

    def test_unit_norm(self):
        for T in (2, 4, 8, 64, 257):
            assert np.linalg.norm(qa.window_state(T)) == pytest.approx(
                1.0, abs=1e-12)


class TestQpeInvert:
    def test_on_bin_exact(self):
        cfg = qa.QPEConfig(T_HHL=256, t0=256.0, C=0.1)
        lam = 2 * np.pi * np.array([3, 17, 40]) / 256.0
        inv, _ = qa.qpe_invert(lam, cfg)
        assert np.max(np.abs(inv - 1 / lam)) < 1e-10

    def test_error_halves_with_t0(self):
        # bin quantization makes individual doubling ratios noisy, so
        # the O(1/t0) claim is checked as a regression slope near -1
        rng = np.random.default_rng(42)
        lam = rng.uniform(0.1, 1.0, 24)
        t0s = (128.0, 256.0, 512.0)
        worst = []
        for t0 in t0s:
            cfg = qa.QPEConfig(T_HHL=int(t0), t0=t0, C=0.1)
            inv, _ = qa.qpe_invert(lam, cfg)
            worst.append(np.max(np.abs(inv - 1 / lam)))
        slope = np.polyfit(np.log(t0s), np.log(worst), 1)[0]
        assert -1.25 <= slope <= -0.75

    def test_success_probability_bound(self):
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.2, 1.0, 16)
        kappa = np.max(lam) / np.min(lam)
        C = 1.0 / kappa
        cfg = qa.QPEConfig(T_HHL=512, t0=512.0, C=C)
        _, succ = qa.qpe_invert(lam, cfg)
        # per-eigenvector success is close to C^2/lam^2 (small leakage)
        direct = C ** 2 / lam ** 2
        assert np.all(succ >= 0.5 * direct)
        assert np.all(succ <= direct * 1.05)

    def test_aliasing_guard(self):
        cfg = qa.QPEConfig(T_HHL=8, t0=64.0, C=0.1)
        with pytest.raises(AliasingError):
            qa.qpe_invert([1.0], cfg)

    def test_rejects_zero_eigenvalue(self):
        cfg = qa.QPEConfig(T_HHL=8, t0=4.0, C=0.1)
        with pytest.raises(ValidationError):
            qa.qpe_invert([0.0, 0.5], cfg)

    def test_t_hhl_1_rejected(self):
        with pytest.raises(ValidationError):
            qa.QPEConfig(T_HHL=1, t0=4.0)


class TestFastInvertExact:
    def test_a1_reciprocal(self):
        p = params()
        spec = qa.grid_spec_direct(p, 3, 2)
        A1 = qa.build_A1(spec, p)
        inv = qa.fast_invert_exact("A1", spec, p)
        assert np.max(np.abs(A1 @ inv - np.eye(spec.N_eta))) < 1e-10

    def test_a2_conjugated_inverse(self):
        p = params()
        spec = qa.grid_spec_direct(p, 4, 2)
        A2 = qa.build_A2(spec)
        inv = qa.fast_invert_exact("A2", spec, p)
        assert np.max(np.abs(A2 @ inv - np.eye(spec.N_eta))) < 1e-12

    def test_a2_inverse_norm_bounded(self):
        # ||A2^-1|| stays order-one as the grid refines
        p = params()
        norms = []
        for n in range(2, 7):
            spec = qa.grid_spec_direct(p, n, 1)
            norms.append(np.linalg.norm(
                qa.fast_invert_exact("A2", spec, p), 2))
        assert max(norms) / min(norms) < 2.0
        assert max(norms) < 10.0

    def test_singular_floor(self):
        p = params(sigma=1e-200)
        spec = qa.grid_spec_direct(p, 2, 1)
        with pytest.raises(SingularFactorError):
            qa.fast_invert_exact("A1", spec, p)


class TestPrecondition:
    def test_b_zero_limit(self):
        # with B = 0 the bound terms collapse to 1
        rng = np.random.default_rng(0)
        A = np.diag(rng.uniform(1.0, 2.0, 8))
        B = np.zeros((8, 8))
        W = np.eye(8) + np.linalg.inv(A) @ B
        rep = qa.inversion.condition_report(A, B, W)
        assert rep.kappa_W == pytest.approx(1.0)
        assert rep.C_AB == pytest.approx(1.0)
        assert rep.C_AB_prime == pytest.approx(1.0)

    def test_pricing_system_bound(self):
        p = params()
        spec = qa.make_grid(p, 4, 1e-3)
        W, rhs_pre, rep = qa.precondition(spec, p)
        assert rep.bound_satisfied

    def test_solution_set_preserved(self):
        p = params(sigma=0.5)
        spec = qa.grid_spec_direct(p, 4, 2)
        M, rhs_hat, A, B = assemble_system(spec, p)
        W, rhs_pre, rep = qa.precondition(spec, p)
        x = qa.solve_system(W, rhs_pre)
        assert np.linalg.norm(M @ x - rhs_hat) < 1e-9


def _dense_reference(spec, p, kink_shift):
    """Solution and report from the dense assembled system."""
    M, rhs_hat, A, B = assemble_system(spec, p, kink_shift=kink_shift)
    W = np.eye(spec.dim) + np.linalg.solve(A, B)
    return (np.linalg.solve(M, rhs_hat),
            qa.inversion.condition_report(A, B, W))


class TestSpaceTimeSystem:
    @pytest.mark.parametrize("market,grid_args,kink_shift", [
        ({"sigma": 0.5}, (5,), 0.0),                  # dim 256
        ({"sigma": 0.7, "r": 0.03}, (5,), 0.0),       # dim 512
        ({"sigma": 1.0}, (5,), 0.0),                  # dim 1024
        ({"sigma": 1.0}, (4, 1), 0.0),                # N_tau1 = 2
        ({"sigma": 0.7}, (4, 2), 0.37),               # kink off centre
    ], ids=["s0.5-256", "s0.7-512", "s1.0-1024", "ntau1-1", "kink-shift"])
    def test_matches_dense_reference(self, market, grid_args, kink_shift,
                                     monkeypatch):
        p = params(**market)
        if len(grid_args) == 1:
            spec = qa.make_grid(p, grid_args[0], 1e-3)
        else:
            spec = qa.grid_spec_direct(p, *grid_args)
        with monkeypatch.context() as m:
            # the structured path forms no dense system
            for mod, name in ((np, "kron"), (np.linalg, "inv"),
                              (np.linalg, "cond")):
                m.setattr(mod, name, None)
            x, norm_b, rep = qa.solve_pricing_system(
                spec, p, kink_shift=kink_shift)
        x_ref, rep_ref = _dense_reference(spec, p, kink_shift)
        _, norm_b_ref = qa.build_rhs(spec, p, kink_shift=kink_shift)
        assert norm_b == norm_b_ref
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        for field in ("kappa_raw", "kappa_W", "C_AB", "C_AB_prime"):
            got, ref = getattr(rep, field), getattr(rep_ref, field)
            assert abs(got - ref) <= 1e-10 * ref, field

    @pytest.mark.parametrize("n_tau1", [1, 2, 3])
    @pytest.mark.parametrize("by_columns", [False, True],
                             ids=["whole", "columns"])
    def test_solves_match_dense_kronecker_sum(self, n_tau1, by_columns,
                                              monkeypatch):
        # AB_inv = M^-1 (I (x) A1) and its adjoint against dense solves of
        # M, on both solve paths; at N_tau1 = 2 Ct's band (two below the
        # diagonal, one above) is wider than Ct itself
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, n_tau1)
        if by_columns:
            monkeypatch.setattr(qa.inversion, "BANDED_SYSTEM_DIM", 0)
        shapes = []
        schur = qa.inversion.schur

        def recording_schur(a, **kwargs):
            shapes.append(a.shape)
            return schur(a, **kwargs)
        monkeypatch.setattr(qa.inversion, "schur", recording_schur)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        # only L^T is brought to Schur form, never the time operator
        assert shapes == [(spec.N_eta, spec.N_eta)]
        M = assemble_system(spec, p)[0]
        a1 = np.tile(np.diag(qa.build_A1(spec, p)), spec.N_tau1)
        rng = np.random.default_rng(n_tau1)
        x = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        for got, ref in (
                (W.AB_inv.matvec(x), np.linalg.solve(M, a1 * x)),
                (W.AB_inv.rmatvec(x), a1 * np.linalg.solve(M.conj().T, x))):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n_tau1", [1, 2, 3])
    @pytest.mark.parametrize("by_blocks", [False, True],
                             ids=["whole", "blocks"])
    def test_real_operators_match_dense(self, n_tau1, by_blocks,
                                        monkeypatch):
        # every report operator, forward and adjoint, on real vectors
        # against the dense split; this market's L has complex eigenvalues,
        # so the per-block path solves both 1 x 1 and 2 x 2 blocks
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, n_tau1)
        if by_blocks:
            monkeypatch.setattr(qa.inversion, "BANDED_SYSTEM_DIM", 0)
        band_sizes, sizes = [], []
        block_lu = qa.inversion._block_lu
        shifted_solver = qa.inversion._shifted_solver

        def recording_block_lu(band, Tb):
            band_sizes.append(Tb.shape[0])
            return block_lu(band, Tb)

        def recording_shifted_solver(diagonals, s):
            # a real shift is a 1 x 1 block, a complex one a 2 x 2 pair
            sizes.append(2 if np.iscomplexobj(s) else 1)
            return shifted_solver(diagonals, s)
        monkeypatch.setattr(qa.inversion, "_block_lu", recording_block_lu)
        monkeypatch.setattr(qa.inversion, "_shifted_solver",
                            recording_shifted_solver)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        if by_blocks:
            # N_tau1 = 2 too: no whole-band factor on the block path
            assert set(sizes) == {1, 2} and sum(sizes) == spec.N_eta
            assert band_sizes == []
        else:
            assert band_sizes == [spec.N_eta] and sizes == []
        M, _, A, B = assemble_system(spec, p)
        AB = A + B
        W_dense = np.eye(spec.dim) + np.linalg.solve(A, B)
        dense = {"AB": AB, "AB_inv": np.linalg.inv(AB), "B": B,
                 "W": W_dense, "W_inv": np.linalg.inv(W_dense)}
        x = np.random.default_rng(n_tau1).normal(size=spec.dim)
        for name, ref in dense.items():
            op = getattr(W, name)
            assert op.dtype == np.float64, name
            for got, want in ((op.matvec(x), ref @ x),
                              (op.rmatvec(x), ref.T @ x)):
                assert got.dtype == np.float64, name
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want), name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sigma=st.floats(0.2, 3.0), r=st.floats(0.0, 0.1),
           n_eta=st.integers(2, 4), n_tau1=st.integers(1, 3))
    def test_block_path_matches_dense(self, sigma, r, n_eta, n_tau1):
        # the per-block tridiagonal solves, forward and adjoint, against
        # dense solves of M on random small markets
        p = params(sigma=sigma, r=r)
        spec = qa.grid_spec_direct(p, n_eta, n_tau1)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(qa.inversion, "BANDED_SYSTEM_DIM", 0)
            W = qa.inversion.SpaceTimeSystem(spec, p)
        M = assemble_system(spec, p)[0]
        a1 = np.tile(np.diag(qa.build_A1(spec, p)), spec.N_tau1)
        x = np.random.default_rng(n_eta).normal(size=spec.dim)
        for got, ref in ((W.AB_inv.matvec(x), np.linalg.solve(M, a1 * x)),
                         (W.AB_inv.rmatvec(x), a1 * np.linalg.solve(M.T, x))):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("Ct, s", [
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], -1.0),
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], 1j),
        ([[1, 1], [0, 2]], -1.0),
        ([[0, 1], [-1, 0]], 1j),
    ], ids=["tridiagonal-real", "tridiagonal-complex", "2x2-real",
            "2x2-complex"])
    def test_singular_shift(self, Ct, s):
        # each hand-built Ct has -s as an eigenvalue, so Ct + s I is
        # exactly singular; Ct + (s + 1/2) I is not, and is solved
        # forward and transposed (no closure entry here, so E = I)
        Ct = np.array(Ct, dtype=float)
        n = len(Ct)
        band = np.zeros((4, n))  # data[1 + i - j, j] = Ct[i, j]
        for i, j in zip(*np.nonzero(Ct)):
            band[1 + i - j, j] = Ct[i, j]
        diagonals = qa.grid.time_diagonals(band)
        with pytest.raises(SingularFactorError, match="singular"):
            qa.inversion._shifted_solver(diagonals, s)
        solve = qa.inversion._shifted_solver(diagonals, s + 0.5)
        shifted = Ct + (s + 0.5) * np.eye(n)
        for trans, A in (("N", shifted), ("T", shifted.T)):
            y = np.arange(1.0, n + 1, dtype=np.result_type(s, float))
            solve(y, trans)
            assert np.allclose(A @ y, np.arange(1.0, n + 1), rtol=1e-14)

    def test_schur_block_form_checked(self, monkeypatch):
        # a 2 x 2 Schur block turned out of LAPACK's standard form
        # [[a, b], [c, a]] is refused, not solved with the wrong formula
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, 2)
        schur = qa.inversion.schur

        def rotated_schur(a, **kwargs):
            T, V = schur(a, **kwargs)
            lo = next(j for j in range(len(T) - 1) if T[j + 1, j] != 0.0)
            c, s = np.cos(0.3), np.sin(0.3)
            Q = np.eye(len(T))
            Q[lo:lo + 2, lo:lo + 2] = [[c, -s], [s, c]]
            return Q.T @ T @ Q, V @ Q
        monkeypatch.setattr(qa.inversion, "schur", rotated_schur)
        monkeypatch.setattr(qa.inversion, "BANDED_SYSTEM_DIM", 0)
        with pytest.raises(SingularFactorError, match="standard form"):
            qa.inversion.SpaceTimeSystem(spec, p)

    def test_freed_without_cyclic_gc(self):
        # a solved system holds no reference to itself: reference counting
        # alone frees it, and a whole pricing solve leaves no cycle behind
        p = params(sigma=0.7)
        spec = qa.grid_spec_direct(p, 4, 2)
        gc.collect()
        gc.disable()
        try:
            W, rhs_pre, _ = qa.precondition(spec, p)
            qa.solve_system(W, rhs_pre)
            ref = weakref.ref(W)
            del W
            assert ref() is None
            qa.solve_pricing_system(spec, p)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memory_linear_in_time_register(self):
        # a tall grid (4096 x 4) keeps its time operator as a band; dense
        # N_tau1 x N_tau1 time matrices would peak at 384 MB
        p = params()
        spec = qa.grid_spec_direct(p, 2, 12)
        tracemalloc.start()
        try:
            W = qa.inversion.SpaceTimeSystem(spec, p)
            qa.solve_system(W, W.rhs_pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, f"tracemalloc peak {peak / 2 ** 20:.1f} MB"


class TestNorm2:
    @pytest.mark.parametrize("market,grid_args", [
        ({"sigma": 0.7, "r": 0.03}, (5,)),    # dim 512, 2 x 2 Schur blocks
        ({"sigma": 1.0}, (5,)),               # dim 1024, 32 x 32
        ({"sigma": 1.0}, (2, 1)),             # dim 8: fewer than NORM_STEPS
        # tall grids, long runs: 224 steps for ||(A+B)^-1|| at 256 x 4,
        # 178 for ||W^-1|| at 128 x 8
        ({"sigma": 30.0}, (2, 8)),
        ({"sigma": 10.0}, (3, 7)),
    ], ids=["s0.7-512", "s1.0-1024", "ntau1-2-dim8", "s30-256x4",
            "s10-128x8"])
    def test_report_norms_match_dense(self, market, grid_args):
        p = params(**market)
        if len(grid_args) == 1:
            spec = qa.make_grid(p, grid_args[0], 1e-3)
        else:
            spec = qa.grid_spec_direct(p, *grid_args)
        assert spec.dim <= 1024
        W = qa.inversion.SpaceTimeSystem(spec, p)
        _, _, A, B = assemble_system(spec, p)
        AB = A + B
        W_dense = np.eye(spec.dim) + np.linalg.solve(A, B)
        dense = {"AB": AB, "AB_inv": np.linalg.inv(AB), "B": B,
                 "W": W_dense, "W_inv": np.linalg.inv(W_dense)}
        for name, ref in dense.items():
            want = np.linalg.norm(ref, 2)
            got = qa.inversion._norm2(getattr(W, name))
            assert abs(got - want) <= 1e-12 * want, name

    def test_report_matches_arpack_record(self):
        # sigma = 1, n_eta = 6 (128 x 64), as reported by the ARPACK
        # (svds, tol=0) runs that the Golub-Kahan-Lanczos routine replaced
        recorded = {"kappa_raw": 464611.76937078993,
                    "kappa_W": 644350.3237769204,
                    "C_AB": 464166.9049097908,
                    "C_AB_prime": 1111534.9846957438}
        p = params()
        rep = qa.inversion.SpaceTimeSystem(qa.make_grid(p, 6, 1e-3),
                                           p).report()
        for field, want in recorded.items():
            got = getattr(rep, field)
            assert abs(got - want) <= 1e-12 * want, field

    def test_clustered_non_normal(self):
        # top two singular values 1 and 1 - 5e-4, singular vectors drawn
        # independently on each side, so the operator is not normal
        rng = np.random.default_rng(5)
        n = 300
        s = np.r_[1.0, 1.0 - 5e-4, np.geomspace(0.9, 1e-3, n - 2)]
        U = np.linalg.qr(rng.normal(size=(n, n)))[0]
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A = (U * s) @ V.T
        assert np.linalg.norm(A @ A.T - A.T @ A) > 0.1
        assert abs(qa.inversion._norm2(aslinearoperator(A)) - 1.0) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A,v,want", [
        (np.zeros((6, 6)), None, 0.0),                    # alpha_1 = 0
        (np.array([[-3.0]]), None, 3.0),                  # beta_1 = 0
        # v = e_0: A e_0 = e_0, then v_2 = e_1 and A e_1 = e_0 = beta_1 u_1
        (np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
         np.array([1.0, 0.0, 0.0]), np.sqrt(2.0)),       # alpha_2 = 0
        (np.random.default_rng(3).normal(size=(5, 5)), None, None),
    ], ids=["alpha1-zero", "beta1-zero", "alpha2-zero", "dim5"])
    def test_breakdown(self, A, v, want):
        want = np.linalg.norm(A, 2) if want is None else want
        with np.errstate(all="raise"):
            got = qa.inversion._norm2(aslinearoperator(A), v)
        assert abs(got - want) <= 1e-12 * max(want, 1.0)

    def test_memory_independent_of_steps(self):
        # 89 steps on dim 2^15 (top singular value 1.01, next 1): the
        # run holds a few vectors, not a basis of one per step
        n = 2 ** 15
        d = np.linspace(0.0, 1.0, n)
        d[-1] = 1.01
        op = aslinearoperator(sp.diags(d))
        tracemalloc.start()
        try:
            got = qa.inversion._norm2(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - 1.01) <= 1e-12
        assert peak < 16 * n * 8, f"tracemalloc peak {peak / 2 ** 20:.1f} MB"

    def test_step_bound(self, monkeypatch):
        A = np.diag(np.linspace(1.0, 2.0, 50))
        monkeypatch.setattr(qa.inversion, "NORM_STEPS", 2)
        with pytest.raises(NormConvergenceError, match="2 Golub-Kahan"):
            qa.inversion._norm2(aslinearoperator(A))


class TestSolveSystem:
    def test_identity(self):
        rhs = np.array([0.3, -0.1, 0.7])
        assert np.allclose(qa.solve_system(np.eye(3), rhs), rhs)

    def test_back_substitution(self):
        W = np.array([[1.0, 0.5], [0.0, 1.0]])
        x = qa.solve_system(W, np.array([1.0, 1.0]))
        assert np.allclose(x, [0.5, 1.0])

    def test_residual_guard(self):
        W = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularFactorError):
            qa.solve_system(W, np.array([1.0, -1.0]))


class TestLemma1Randomized:
    def test_hundred_random_systems(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            d = int(rng.integers(2, 65))
            A = np.diag(rng.uniform(1.0, 3.0, d))  # ||A^-1|| <= 1
            B = rng.normal(size=(d, d))
            B *= rng.uniform(0.1, 1.0) / np.linalg.norm(B, 2)
            W = np.eye(d) + np.linalg.inv(A) @ B
            rep = qa.inversion.condition_report(A, B, W)
            assert rep.bound_satisfied, f"trial {trial}"
