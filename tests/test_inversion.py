import gc
import os
import subprocess
import sys
import tracemalloc
import weakref

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import qasian as qa
from qasian.errors import (AliasingError, NormConvergenceError,
                           SingularFactorError, ValidationError)

from conftest import assemble_system


def params(**kw):
    base = dict(sigma=1.0, r=0.05, q=0.0, T=1.0, K=1.0, eta_max=4.0)
    base.update(kw)
    return qa.MarketParams(**base)


def test_import_leaves_out_sparse_linalg():
    # the package needs no scipy.sparse (the time operator is kept as its
    # three diagonals), so no scipy.sparse.linalg (LinearOperator, ARPACK),
    # and no scipy.fft (the sine and cosine bases are built directly): a
    # fresh interpreter's `import qasian` loads none of them
    code = ("import sys, qasian; print([m for m in ('scipy.sparse', "
            "'scipy.sparse.linalg', 'scipy.fft') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(qa.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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


def as_map(A):
    """The matrix A as a map of vectors, the form _norm2 takes: x -> A x,
    or with adjoint true A^T x."""
    return lambda x, adjoint: A.T @ x if adjoint else A @ x


def start(n):
    """The condition report's start vector of length n."""
    return qa.inversion._start_vector(n)


def on_vector(op, x, adjoint, shape):
    """A system's map of grids applied to the flat vector x."""
    return op(x.reshape(shape), adjoint).reshape(-1)


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
    def test_solves_match_dense_kronecker_sum(self, n_tau1, monkeypatch):
        # AB_inv = M^-1 (I (x) A1) and its adjoint against dense solves of
        # M; at N_tau1 = 2 the closure row reaches no column N - 3, so
        # m = 0 and C~ is Ct itself
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, n_tau1)
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
        x = rng.normal(size=spec.dim)
        for got, ref in (
                (on_vector(W.AB_inv, x, False, W.shape),
                 np.linalg.solve(M, a1 * x)),
                (on_vector(W.AB_inv, x, True, W.shape),
                 a1 * np.linalg.solve(M.T, x))):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n_tau1", [1, 2, 3])
    def test_real_operators_match_dense(self, n_tau1, monkeypatch):
        # every report operator, forward and adjoint, on real vectors
        # against the dense split; this market's L has complex eigenvalues,
        # so the sweep solves both 1 x 1 and 2 x 2 blocks
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, n_tau1)
        sizes = []
        shifted_solver = qa.inversion._shifted_solver

        def recording_shifted_solver(diagonals, s):
            # a real shift is a 1 x 1 block, a complex one a 2 x 2 pair
            sizes.append(2 if np.iscomplexobj(s) else 1)
            return shifted_solver(diagonals, s)
        monkeypatch.setattr(qa.inversion, "_shifted_solver",
                            recording_shifted_solver)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        # N_tau1 = 2 too: one factor per Schur block
        assert set(sizes) == {1, 2} and sum(sizes) == spec.N_eta
        M, _, A, B = assemble_system(spec, p)
        AB = A + B
        W_dense = np.eye(spec.dim) + np.linalg.solve(A, B)
        dense = {"AB": AB, "AB_inv": np.linalg.inv(AB), "B": B,
                 "W": W_dense, "W_inv": np.linalg.inv(W_dense)}
        x = np.random.default_rng(n_tau1).normal(size=spec.dim)
        for name, ref in dense.items():
            op = getattr(W, name)
            for got, want in ((on_vector(op, x, False, W.shape), ref @ x),
                              (on_vector(op, x, True, W.shape), ref.T @ x)):
                assert got.dtype == np.float64, name
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want), name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sigma=st.floats(0.2, 3.0), r=st.floats(0.0, 0.1),
           n_eta=st.integers(2, 4), n_tau1=st.integers(1, 3),
           kink_shift=st.floats(-0.5, 0.5))
    def test_block_path_matches_dense(self, sigma, r, n_eta, n_tau1,
                                      kink_shift):
        # on random small markets: the per-block tridiagonal solves,
        # forward and adjoint, against dense solves of M; and the whole
        # pricing solve, solution and report, against the dense assembly
        p = params(sigma=sigma, r=r)
        spec = qa.grid_spec_direct(p, n_eta, n_tau1)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        M = assemble_system(spec, p)[0]
        a1 = np.tile(np.diag(qa.build_A1(spec, p)), spec.N_tau1)
        x = np.random.default_rng(n_eta).normal(size=spec.dim)
        for got, ref in ((on_vector(W.AB_inv, x, False, W.shape),
                          np.linalg.solve(M, a1 * x)),
                         (on_vector(W.AB_inv, x, True, W.shape),
                          a1 * np.linalg.solve(M.T, x))):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        sol, _, rep = qa.solve_pricing_system(spec, p, kink_shift=kink_shift)
        sol_ref, rep_ref = _dense_reference(spec, p, kink_shift)
        assert np.linalg.norm(sol - sol_ref) <= \
            1e-10 * np.linalg.norm(sol_ref)
        for field in ("kappa_raw", "kappa_W", "C_AB", "C_AB_prime"):
            got, ref = getattr(rep, field), getattr(rep_ref, field)
            assert abs(got - ref) <= 1e-10 * ref, field

    @pytest.mark.parametrize("n_tau1", [1, 2, 3])
    def test_schur_maps_match_dense(self, n_tau1):
        # the report's inverse maps act on Y = X V: with Q = I (x) V each
        # is Q^T P^-1 Q for P = A + B or W, forward and adjoint; this
        # market's L has 2 x 2 Schur blocks, and n_tau1 = 1 is N_tau1 = 2
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, n_tau1)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        _, _, A, B = assemble_system(spec, p)
        Q = np.kron(np.eye(spec.N_tau1), W.V)
        W_dense = np.eye(spec.dim) + np.linalg.solve(A, B)
        x = np.random.default_rng(n_tau1).normal(size=spec.dim)
        for name, P in (("AB_inv_schur", A + B), ("W_inv_schur", W_dense)):
            op = getattr(W, name)
            ref = Q.T @ np.linalg.solve(P, Q @ x)
            ref_adj = Q.T @ np.linalg.solve(P.T, Q @ x)
            for got, want in ((on_vector(op, x, False, W.shape), ref),
                              (on_vector(op, x, True, W.shape), ref_adj)):
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want), name

    def test_inverses_at_dim_8192(self):
        # sigma = 1, n_eta = 6 (128 x 64), too large for a dense
        # reference: with Q = I (x) V each inverse is Q (Schur map) Q^T,
        # forward and adjoint, through the same sweep; and it undoes its
        # forward operator, whose condition number is ~6e5 here (the round
        # trips measured at most 4.1e-11)
        p = params()
        spec = qa.make_grid(p, 6, 1e-3)
        assert (spec.N_tau1, spec.N_eta) == (128, 64)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        X = np.random.default_rng(6).normal(size=W.shape)
        for name in ("AB_inv", "W_inv"):
            op, schur_op = getattr(W, name), getattr(W, name + "_schur")
            forward = getattr(W, name[:-len("_inv")])
            for adjoint in (False, True):
                # Q (Schur map) Q^T on grids: X -> schur_op(X V) V^T
                got = op(X, adjoint)
                want = schur_op(X @ W.V, adjoint) @ W.V.T
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want), name
                round_trip = forward(got, adjoint)
                assert np.linalg.norm(round_trip - X) <= \
                    1e-9 * np.linalg.norm(X), name
        # W^-1 applies A2 before A1 V and the sweep: the pricing solve's
        # residual measured 1.2e-13, and 9.2e-13 with A2 folded into A1 V
        x = W.solve(W.rhs_pre)
        assert np.linalg.norm(W @ x - W.rhs_pre) <= \
            5e-13 * np.linalg.norm(W.rhs_pre)

    def test_products_own_their_results(self):
        # the block sweep works in one workspace: a product leaves its
        # input alone, and the next product does not overwrite its result
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, 2)
        W = qa.inversion.SpaceTimeSystem(spec, p)
        x, x2 = np.random.default_rng(4).normal(size=(2, *W.shape))
        before = x.copy()
        for name in ("AB_inv", "W_inv", "AB_inv_schur", "W_inv_schur"):
            op = getattr(W, name)
            for adjoint in (False, True):
                got = op(x, adjoint)
                kept = got.copy()
                op(x2, adjoint)
                assert np.array_equal(got, kept), name
                assert np.array_equal(x, before), name

    @pytest.mark.parametrize("n_tau1", [1, 2, 3, 7])
    def test_time_product_matches_dense(self, n_tau1):
        # Ct X and Ct^T X through C~ and the row update, against the dense
        # delta_tau1 (C_tau1 + C_close) and its transpose; the grid is
        # left as it was
        spec = qa.grid_spec_direct(params(), 2, n_tau1)
        ops = qa.build_operators(spec, params())
        Ct = spec.delta_tau1 * (ops.C_tau1 + ops.C_close)
        apply_Ct = qa.inversion._time_operator(ops.Ct)
        X = np.random.default_rng(n_tau1).normal(size=(spec.N_tau1, 5))
        before = X.copy()
        for adjoint, ref in ((False, Ct @ X), (True, Ct.T @ X)):
            got = apply_Ct(X, adjoint)
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
            assert np.array_equal(X, before)

    @pytest.mark.parametrize("n_tau1", [1, 2, 3])
    def test_block_sweep_matches_dense_sylvester(self, n_tau1):
        # _block_solver, forward and adjoint, against the dense Kronecker
        # form of Ct Z + Z T = F and Ct^T Z + Z T^T = F on row-major
        # vectors; this market's L has 2 x 2 Schur blocks
        p = params(sigma=0.7, r=0.03)
        spec = qa.grid_spec_direct(p, 4, n_tau1)
        ops = qa.build_operators(spec, p)
        T, _ = qa.inversion.schur((ops.C_eta1 + ops.C_eta2).T, output="real")
        assert {hi - lo for lo, hi in qa.inversion._schur_blocks(T)} == {1, 2}
        solve = qa.inversion._block_solver(ops.Ct, T)
        Ct = spec.delta_tau1 * (ops.C_tau1 + ops.C_close)
        I_t, I_x = np.eye(spec.N_tau1), np.eye(spec.N_eta)
        F = np.random.default_rng(n_tau1).normal(
            size=(spec.N_tau1, spec.N_eta))
        for adjoint, S in ((False, np.kron(Ct, I_x) + np.kron(I_t, T.T)),
                           (True, np.kron(Ct.T, I_x) + np.kron(I_t, T))):
            ref = np.linalg.solve(S, F.reshape(-1))
            got = solve(F, None, adjoint).reshape(-1)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dl, d, du, s", [
        ([-1, 0], [0, 0, 1], [1, 0], -1.0),
        ([-1, 0], [0, 0, 1], [1, 0], 1j),
        ([0], [1, 2], [1], -1.0),
        ([-1], [0, 0], [1], 1j),
    ], ids=["tridiagonal-real", "tridiagonal-complex", "2x2-real",
            "2x2-complex"])
    def test_singular_shift(self, dl, d, du, s):
        # each hand-built tridiagonal Ct has -s as an eigenvalue, so
        # Ct + s I is exactly singular; Ct + (s + 1/2) I is not, and is
        # solved forward and transposed (no closure entry here, so m = 0)
        diagonals = tuple(np.array(v, dtype=float) for v in (dl, d, du))
        diagonals += (0.0,)
        Ct = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        n = len(Ct)
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
        # tall grids, long runs: 95 steps for ||(A+B)^-1|| at 256 x 4,
        # 67 for ||W^-1|| at 128 x 8
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
        # the report's maps in Schur coordinates have the same norms
        dense["AB_inv_schur"] = dense["AB_inv"]
        dense["W_inv_schur"] = dense["W_inv"]
        for name, ref in dense.items():
            want = np.linalg.norm(ref, 2)
            got = qa.inversion._norm2(getattr(W, name),
                                      start(spec.dim).reshape(W.shape))
            assert abs(got - want) <= 1e-12 * want, name

    @pytest.mark.parametrize("market,grid_args,counts", [
        ({"sigma": 1.0}, (6,), [28, 24, 26, 20, 66]),            # 128 x 64
        ({"sigma": 30.0}, (2, 8), [26, 190, 32, 18, 100]),       # 256 x 4
    ], ids=["s1.0-128x64", "s30-256x4"])
    def test_report_product_counts(self, market, grid_args, counts,
                                   monkeypatch):
        # products per norm, in the order ||B||, ||(A+B)^-1||, ||A+B||,
        # ||W||, ||W^-1||, as the physical operators took them: the maps
        # in Schur coordinates start from the image of the same vector
        p = params(**market)
        if len(grid_args) == 1:
            spec = qa.make_grid(p, grid_args[0], 1e-3)
        else:
            spec = qa.grid_spec_direct(p, *grid_args)
        norm2 = qa.inversion._norm2
        got = []

        def counting_norm2(op, v):
            n = [0]

            def counted(X, adjoint):
                n[0] += 1
                return op(X, adjoint)
            value = norm2(counted, v)
            got.append(n[0])
            return value
        monkeypatch.setattr(qa.inversion, "_norm2", counting_norm2)
        qa.inversion.SpaceTimeSystem(spec, p).report()
        assert got == counts

    def test_report_matches_arpack_record(self):
        # sigma = 1, n_eta = 6 (128 x 64), as reported by ARPACK (svds,
        # tol=0) on the report's own maps of the sine-basis system
        recorded = {"kappa_raw": 215429.99779985778,
                    "kappa_W": 649056.5505078469,
                    "C_AB": 215224.05005735462,
                    "C_AB_prime": 1111534.148351829}
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
        assert abs(qa.inversion._norm2(as_map(A), start(n)) - 1.0) <= 1e-12

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
        v = start(len(A)) if v is None else v
        with np.errstate(all="raise"):
            got = qa.inversion._norm2(as_map(A), v)
        assert abs(got - want) <= 1e-12 * max(want, 1.0)

    def test_memory_independent_of_steps(self):
        # 89 steps on dim 2^15 (top singular value 1.01, next 1): the
        # run holds a few vectors, not a basis of one per step
        n = 2 ** 15
        d = np.linspace(0.0, 1.0, n)
        d[-1] = 1.01
        tracemalloc.start()
        try:
            got = qa.inversion._norm2(lambda x, adjoint: d * x, start(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - 1.01) <= 1e-12
        assert peak < 16 * n * 8, f"tracemalloc peak {peak / 2 ** 20:.1f} MB"

    def test_step_bound(self, monkeypatch):
        A = np.diag(np.linspace(1.0, 2.0, 50))
        monkeypatch.setattr(qa.inversion, "NORM_STEPS", 2)
        with pytest.raises(NormConvergenceError, match="2 Golub-Kahan"):
            qa.inversion._norm2(as_map(A), start(len(A)))


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
