import contextlib
import dataclasses
import io
import json
import math
import os
import warnings

from hypothesis import HealthCheck, given, settings, strategies as hs
import numpy as np
import pytest

from qasian import circuits, cli, extraction, grid, inversion, oracle
from qasian.errors import NoiseDominationWarning, ValidationError


def run(tmp_path, *argv):
    return cli.main(["--outdir", str(tmp_path), *argv])


def run_config(tmp_path, config, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return cli.main(["--outdir", str(tmp_path / "out"),
                     "--config", str(cfg), command])


class TestConfig:
    def test_defaults_complete(self):
        cfg = cli.load_config()
        assert cfg["n_eta"] == 4
        assert cfg["params"]["sigma"] == 0.3
        assert cfg["extraction"]["ae_mode"] == "exact"

    def test_preset_deep_merge(self):
        cfg = cli.load_config(preset="smoke")
        assert cfg["n_eta"] == 3
        assert cfg["params"]["sigma"] == 0.5
        # untouched nested keys survive the merge
        assert cfg["params"]["r"] == 0.05
        assert cfg["extraction"]["ae_eps"] == 1e-4

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            cli.load_config(preset="nope")

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"params": {"sigma": 0.7}, "n_eta": 5}))
        cfg = cli.load_config(path=str(p))
        assert cfg["params"]["sigma"] == 0.7
        assert cfg["n_eta"] == 5
        assert cfg["params"]["K"] == 1.0


class TestCommands:
    def test_price_smoke(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "price")
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stage"] == "done"
        assert "value" in summary["price"]
        for name in ("defaults.json", "condition_report.json",
                     "nodes.csv", "surface.csv", "quotes.csv"):
            assert (tmp_path / name).exists(), name

    def test_price_defaults(self, tmp_path, capsys):
        # sigma = 0.3, n_eta = 4 resolves N_tau1 = 2: M_tau1 = 4 is
        # clamped to the two-slice extraction window
        assert run(tmp_path, "price") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid"]["n_tau1"] == 1
        assert summary["price"]["value"] == pytest.approx(0.0973, abs=1e-4)

    # the parser takes its --ae-mode choices from extraction.AE_MODES
    @pytest.mark.parametrize("mode", extraction.AE_MODES)
    def test_price_every_ae_mode(self, tmp_path, capsys, mode):
        assert run(tmp_path, "--preset", "smoke", "--ae-mode", mode,
                   "price") == 0

    def test_build_artifacts(self, tmp_path):
        code = run(tmp_path, "--preset", "smoke", "build")
        assert code == 0
        for name in ("C_tau1", "C_eta1", "C_eta2", "A1", "A2"):
            assert (tmp_path / f"{name}.csv").exists()
            assert (tmp_path / f"{name}.json").exists()

    def test_solve_reports_condition(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "solve")
        assert code == 0
        rep = json.loads((tmp_path / "condition_report.json").read_text())
        assert rep["bound_satisfied"] is True
        assert (tmp_path / "solution.csv").exists()

    def test_solve_put_solves_its_call(self, tmp_path, capsys):
        # every command solves the family's call: a put's solution.csv is
        # its call's, and the printed JSON names the solved kind
        files = {}
        for kind in ("avg_rate_call", "avg_rate_put"):
            (tmp_path / kind).mkdir()
            assert run_config(tmp_path / kind, {"params": {"kind": kind}},
                              "solve") == 0
            out = json.loads(capsys.readouterr().out)
            assert out["surface_kind"] == "avg_rate_call"
            files[kind] = (tmp_path / kind / "out" /
                           "solution.csv").read_bytes()
        assert files["avg_rate_put"] == files["avg_rate_call"]

    def test_dump_encoding(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "dump-encoding", "ctau1")
        assert code == 0
        desc = json.loads((tmp_path / "encoding_ctau1.json").read_text())
        assert desc["n_anc"] == 2
        assert (tmp_path / "encoding_ctau1.csv").exists()

    def test_price_dim_8192(self, tmp_path, capsys):
        # sigma = 1, n_eta = 6 resolves n_tau1 = 7: 128 x 64 unknowns
        code = run_config(tmp_path, {"params": {"sigma": 1.0}, "n_eta": 6},
                          "price")
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["grid"]["n_tau1"] == 7
        assert summary["condition"]["bound_satisfied"] is True

    def test_surface_csv_bytes(self, tmp_path):
        # surface.csv holds the bytes of one f"{v:.12g}" per value
        tau1 = np.array([0.1, 1.0 / 3.0, 1e16])
        eta = np.array([-4.0, -0.0, 0.0, 1e-300, 2.5])
        surface = np.array([[0.0, -0.0, 1e-300, 1e16, -3.25],
                            [-1e-300, 2.0 / 3.0, -1e16, 5e-324, 0.1],
                            [1.0, -7.0, 123456789.0123, -0.0, 1e-5]])
        want = "tau1,eta,psi\n" + "".join(
            f"{t:.12g},{x:.12g},{v:.12g}\n"
            for t, row in zip(tau1, surface) for x, v in zip(eta, row))
        path = tmp_path / "surface.csv"
        cli._write_surface(str(path), tau1, eta, surface)
        assert path.read_bytes() == want.encode()

    def test_converge_levels(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "converge", "--levels", "3")
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 levels

    def test_converge_honours_kink_shift(self, tmp_path, capsys,
                                         monkeypatch):
        # every level of the study solves the configured problem, as
        # `price` does, kink displacement included
        shifts = []
        solve = inversion.solve_pricing_system

        def recording_solve(spec, params, kink_shift=0.0):
            shifts.append(kink_shift)
            return solve(spec, params, kink_shift=kink_shift)
        monkeypatch.setattr(inversion, "solve_pricing_system",
                            recording_solve)
        cfg = cli.load_config(preset="smoke", overrides={
            "kink_shift": 0.3, "outdir": str(tmp_path)})
        cli.run_convergence(cfg, 3)
        assert shifts == [0.3, 0.3, 0.3]

    def test_converge_too_few_levels(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "converge", "--levels", "2")
        assert code == 2


class TestExitCodes:
    def test_validation_before_compute(self, tmp_path, capsys):
        # infeasible scale resolution fails fast with exit 2 and leaves
        # no solver artifacts behind
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"sigma": 0.01}}))
        code = cli.main(["--outdir", str(tmp_path / "out"),
                         "--config", str(cfg), "solve"])
        assert code == 2
        assert not (tmp_path / "out" / "solution.csv").exists()

    @pytest.mark.parametrize("n_eta", ["0", "1"])
    def test_n_eta_flag_below_two(self, tmp_path, capsys, n_eta):
        # --n-eta 0 is an override like any other, not a missing flag
        assert run(tmp_path, "--n-eta", n_eta, "build") == 2
        assert "n_eta must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "C_eta1.csv").exists()

    def test_eta0_outside_domain(self, tmp_path, capsys, monkeypatch):
        # K = 10 puts eta0 = -10 outside the domain [-4, 4]: exit 2 before
        # any numerics, with no surface files written
        def no_solve(*args, **kwargs):
            raise AssertionError("system solved for an eta0 off the domain")
        monkeypatch.setattr(inversion, "solve_pricing_system", no_solve)
        assert run_config(tmp_path, {"params": {"K": 10.0}}, "price") == 2
        assert capsys.readouterr().err.startswith(
            "validation error: eta0 = -10 lies outside the eta domain")
        for name in ("nodes.csv", "surface.csv", "quotes.csv"):
            assert not (tmp_path / "out" / name).exists(), name

    def test_bad_market_param(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"sigma": -1.0}}))
        code = cli.main(["--outdir", str(tmp_path / "out"),
                         "--config", str(cfg), "build"])
        assert code == 2

    @pytest.mark.parametrize("config", [
        {"params": {"sigma": 0.0}},
        {"params": {"sigma": 0.0}, "n_tau1": 2},
        {"params": {"K": -1.0}, "extraction": {"M_tau1": 2}},
        {"params": {"vol": 0.5}},
        {"n_eta": "4"},
        {"foo": 1},
        {"oracle": {"paths": 10}},
        {"extraction": {"M_eta": "x"}},
        {"extraction": {"M_eta": 6.0}},
        {"params": {"kind": 1}},
        {"extraction": 4},
    ], ids=["zero-sigma", "zero-sigma-pinned-n-tau1", "negative-strike",
            "unknown-param", "string-n-eta", "unknown-key",
            "unknown-nested-key", "string-m-eta", "float-m-eta",
            "numeric-kind", "scalar-section"])
    def test_malformed_config(self, tmp_path, capsys, config):
        assert run_config(tmp_path, config, "price") == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"params": {"K": float("nan")}},
        {"oracle": {"S0": -1.0}},
        {"oracle": {"S0": 0.0}},
        {"params": {"r": float("nan")}},
        {"params": {"q": float("nan")}},
        {"params": {"eta_max": float("nan")}},
    ], ids=["nan-strike", "negative-spot", "zero-spot", "nan-rate",
            "nan-dividend", "nan-eta-max"])
    def test_non_finite_market_input(self, tmp_path, capsys, config):
        # a non-finite market input, or a spot <= 0, is rejected before
        # any numerics, not priced as nan or ended on an internal error
        assert run_config(tmp_path, config, "price") == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("config,code,start", [
        ({"params": {"sigma": 1e-200}}, 3,
         "numerical failure: ZeroDivisionError"),
        ({"params": {"sigma": 1e200}}, 3, "numerical failure: OverflowError"),
        ({"params": {"sigma": 1.0}, "extraction": {"ae_eps": 1e300}}, 2,
         "validation error: config extraction.ae_eps must be <= 1"),
        ({"params": {"sigma": 1.0, "eta_max": 1e300}}, 2,
         "validation error: initial profile's squared norm overflows"),
    ], ids=["sigma-squared-underflows", "sigma-squared-overflows",
            "ae-eps-squared-overflows", "rhs-norm-overflows"])
    def test_float_range_edges(self, tmp_path, capsys, config, code, start):
        # finite inputs whose arithmetic leaves the float range end on one
        # line naming the failure, not on an internal error or a nan price
        assert run_config(tmp_path, config, "price") == code
        err = capsys.readouterr().err
        assert err.startswith(start) and len(err.splitlines()) == 1

    def test_dimension_cap(self, tmp_path, capsys, monkeypatch):
        # sigma = 1, n_eta = 8 resolves 2^11 x 2^8 unknowns, past the cap;
        # the run stops before any operator is built
        def no_build(*args, **kwargs):
            raise AssertionError("operators built past the dimension cap")
        monkeypatch.setattr(grid, "build_operators", no_build)
        code = run_config(tmp_path, {"params": {"sigma": 1.0}, "n_eta": 8},
                          "price")
        assert code == 3
        assert "exceeds cap" in capsys.readouterr().err

    def test_spatial_dimension_cap(self, tmp_path, capsys, monkeypatch):
        # sigma = 0.002, n_eta = 12 resolves 2 x 2^12 unknowns, under the
        # cap, but each dense N_eta x N_eta spatial operator holds 2^24
        # entries; the run stops before any operator is built
        def no_build(*args, **kwargs):
            raise AssertionError("operators built past the dimension cap")
        monkeypatch.setattr(grid, "build_operators", no_build)
        code = run_config(tmp_path, {"params": {"sigma": 0.002},
                                     "n_eta": 12}, "price")
        assert code == 3
        assert "N_eta^2 = 16777216" in capsys.readouterr().err

    @pytest.mark.parametrize("config,key", [
        ({"params": {"sigma": 1.0}, "n_eta": 8}, "dimension 2^19 "),
        ({"params": {"sigma": 0.002}, "n_eta": 12}, "N_eta^2 = 16777216"),
        # the largest register prints as a power of two, not 310 digits
        ({"n_tau1": 1023}, "dimension 2^1027 "),
        # dim 2^17 is under the cap, but the exported C_tau1 holds 2^30
        ({"n_eta": 2, "n_tau1": 15}, "N_tau1^2 = 1073741824"),
    ], ids=["dim", "spatial", "largest-n-tau1", "time"])
    def test_build_dimension_cap(self, tmp_path, capsys, monkeypatch,
                                 config, key):
        # `build` holds its dense operators to the same caps as the
        # solver, before any operator is built
        def no_build(*args, **kwargs):
            raise AssertionError("operators built past the dimension cap")
        monkeypatch.setattr(grid, "build_operators", no_build)
        assert run_config(tmp_path, config, "build") == 3
        err = capsys.readouterr().err
        assert key in err and "exceeds cap" in err
        assert not (tmp_path / "out" / "C_eta1.csv").exists()

    @pytest.mark.parametrize("which,key", [
        ("spectral", "N_eta^2 = 262144"), ("eta", "N_eta^2 = 262144"),
        # make_grid picks n_tau1 = 10 at the default market's n_eta = 9
        ("ctau1", "N_tau1^2 = 1048576")])
    def test_dump_encoding_dimension_cap(self, tmp_path, capsys, monkeypatch,
                                         which, key):
        # the encoded register's dense N x N operator is held to the
        # solver's cap before the unitary, larger still, is built
        def no_build(*args, **kwargs):
            raise AssertionError("encoding built past the dimension cap")
        for name in ("build_ctau1_encoding", "encode_eta", "encode_spectral"):
            monkeypatch.setattr(circuits, name, no_build)
        assert run(tmp_path, "--n-eta", "9", "dump-encoding", which) == 3
        err = capsys.readouterr().err
        assert key in err and "exceeds cap" in err
        assert not list(tmp_path.glob("encoding_*"))

    @pytest.mark.parametrize("config,command,key", [
        ({"extraction": {"ae_eps": -0.5}}, "price", "extraction.ae_eps"),
        ({"extraction": {"ae_eps": -0.5, "ae_mode": "stochastic"}}, "price",
         "extraction.ae_eps"),
        ({"extraction": {"seed": -1}}, "price", "extraction.seed"),
        ({"oracle": {"seed": -1}}, "compare", "oracle.seed"),
        ({"oracle": {"n_steps": 0}}, "compare", "oracle.n_steps"),
        ({"oracle": {"n_steps": -3}}, "compare", "oracle.n_steps"),
        ({"oracle": {"n_paths": 999}}, "compare", "oracle.n_paths"),
        ({"extraction": {"ae_mode": "bogus"}}, "price", "extraction.ae_mode"),
        ({"extraction": {"ae_mode": "bogus"}}, "solve", "extraction.ae_mode"),
        ({"n_tau1": 0}, "price", "n_tau1 must be >= 1"),
        ({"n_tau1": -3}, "price", "n_tau1 must be >= 1"),
        ({"extraction": {"ae_eps": 1.5}}, "price", "extraction.ae_eps"),
        ({"extraction": {"ae_eps": 1e300}}, "solve", "extraction.ae_eps"),
        ({"n_eta": 1024}, "price", "config n_eta must be <= 1023"),
        ({"n_tau1": 1024}, "price", "config n_tau1 must be <= 1023"),
        ({"n_tau1": 10 ** 6}, "build", "config n_tau1 must be <= 1023"),
    ], ids=["negative-ae-eps", "negative-ae-eps-stochastic",
            "negative-extraction-seed", "negative-oracle-seed",
            "zero-steps", "negative-steps", "too-few-paths",
            "unknown-ae-mode", "unknown-ae-mode-solve", "zero-n-tau1",
            "negative-n-tau1", "ae-eps-above-one", "huge-ae-eps-solve",
            "n-eta-past-float-range", "n-tau1-past-float-range",
            "huge-n-tau1-build"])
    def test_out_of_range(self, tmp_path, capsys, monkeypatch, config,
                          command, key):
        # a value outside its key's range ends on exit 2 naming the key,
        # before the system is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("system solved for an out-of-range input")
        monkeypatch.setattr(inversion, "solve_pricing_system", no_solve)
        assert run_config(tmp_path, config, command) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and key in err

    def test_range_minimum_accepted(self):
        # each key's least value passes the check
        cfg = cli.load_config(overrides={
            "extraction": {"ae_eps": 0.0, "seed": 0},
            "oracle": {"seed": 0, "n_steps": 1, "n_paths": 1000}})
        assert cfg["oracle"]["n_paths"] == 1000

    def test_range_maximum_accepted(self):
        # each key's greatest value passes the check: 2^1023 is the
        # largest power of two a float holds
        cfg = cli.load_config(overrides={
            "n_eta": 1023, "n_tau1": 1023, "extraction": {"ae_eps": 1.0}})
        assert (cfg["n_eta"], cfg["n_tau1"]) == (1023, 1023)

    def test_norm_step_bound(self, tmp_path, capsys, monkeypatch):
        # a condition report that does not converge within its step bound
        # ends on exit 3 with one line naming the error
        monkeypatch.setattr(inversion, "NORM_STEPS", 2)
        assert run(tmp_path, "--preset", "smoke", "price") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NormConvergenceError: ")
        assert len(err.splitlines()) == 1

    def test_unexpected_exception_exits_3(self, tmp_path, capsys,
                                          monkeypatch):
        # a fault outside the numerical error types still ends on exit 3,
        # with one line on stderr and no traceback
        def broken_stage(*args, **kwargs):
            raise RuntimeError("stage broke\nsecond line")
        monkeypatch.setattr(inversion, "solve_pricing_system", broken_stage)
        assert run(tmp_path, "--preset", "smoke", "price") == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError(")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_overfull_node_request(self, tmp_path, capsys):
        # pin a register layout whose fit is impossible: more nodes than
        # grid points on the time axis
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"sigma": 0.5},
            "n_eta": 3, "n_tau1": 1,
            "extraction": {"M_tau1": 8, "M_eta": 4, "Delta": 0.0}}))
        code = cli.main(["--outdir", str(tmp_path / "out"),
                         "--config", str(cfg), "extract"])
        assert code == 2

    @pytest.mark.parametrize("config,key", [
        ({"params": {"sigma": 1.0}, "n_eta": 2}, "extraction.M_eta"),
        ({"params": {"sigma": 0.5}, "n_eta": 3, "n_tau1": 1,
          "extraction": {"M_tau1": 8, "M_eta": 4, "Delta": 0.0}},
         "extraction.M_tau1"),
    ], ids=["m-eta-past-n-eta", "m-tau1-past-pinned-window"])
    def test_extraction_checked_before_solve(self, tmp_path, capsys,
                                             monkeypatch, config, key):
        # more nodes than the grid has points ends on exit 2 naming the
        # key, before the system is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("system solved for an unfit extraction")
        monkeypatch.setattr(inversion, "solve_pricing_system", no_solve)
        assert run_config(tmp_path, config, "price") == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and key in err
        assert len(err.splitlines()) == 1


#: Leaves a valid fuzz config may set, each over values that price at
#: n_eta 2 or 3 (sigma >= 1 meets n_eta = 2's smoothing inequality).
VALID_LEAVES = {
    ("params", "sigma"): hs.floats(1.0, 1.5),
    ("params", "r"): hs.floats(0.0, 0.1),
    ("params", "q"): hs.floats(0.0, 0.05),
    ("params", "K"): hs.floats(0.8, 1.2),
    ("params", "kind"): hs.sampled_from(grid.KINDS),
    ("extraction", "ae_mode"): hs.sampled_from(extraction.AE_MODES),
    ("extraction", "ae_eps"): hs.floats(0.0, 1e-3),
    ("extraction", "seed"): hs.integers(0, 2 ** 32 - 1),
    ("kink_shift",): hs.floats(-0.2, 0.2),
}

#: Every leaf of DEFAULT_CONFIG and every section, plus unknown keys.
FUZZ_PATHS = [(section, key) for section, leaves in cli.DEFAULT_CONFIG.items()
              if isinstance(leaves, dict) for key in leaves] + [
    (key,) for key in cli.DEFAULT_CONFIG] + [("unknown",), ("params", "vol")]

#: Wrong types, non-finite and out-of-range numbers, bad kind/ae_mode
#: strings, and in-range values that a fuzzed path may take.
FUZZ_VALUES = hs.one_of(
    hs.sampled_from([float("nan"), float("inf"), -float("inf"), None, True,
                     "", "bogus", "Exact", "avg_rate_put", [], [1, 2],
                     {"x": 1}, 1e300, -1e300, 1e-300]),
    hs.integers(-10 ** 6, 10 ** 6), hs.integers(0, 30),
    hs.floats(-1e6, 1e6), hs.floats(allow_nan=False), hs.text(max_size=4))


@hs.composite
def fuzz_configs(draw):
    """(valid, config): a config at n_eta 2 or 3 that prices, or the same
    with one to three paths set to FUZZ_VALUES."""
    cfg = {"n_eta": draw(hs.integers(2, 3)),
           "params": {"sigma": draw(VALID_LEAVES[("params", "sigma")])},
           "extraction": {"M_eta": 4, "M_tau1": 2}}
    for path, values in VALID_LEAVES.items():
        if draw(hs.booleans()):
            node = cfg
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = draw(values)
    if draw(hs.booleans()):
        return True, cfg
    for _ in range(draw(hs.integers(1, 3))):
        path = draw(hs.sampled_from(FUZZ_PATHS))
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        if isinstance(node, dict):  # an earlier draw may have made it a leaf
            node[path[-1]] = draw(FUZZ_VALUES)
    return False, cfg


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=fuzz_configs(),
           command=hs.sampled_from(["build", "solve", "price"]))
    def test_every_config_ends_in_an_exit_code(self, tmp_path, monkeypatch,
                                               case, command):
        # each run overwrites the last one's config and artifacts; a cap
        # of 2^9 unknowns ends a fuzzed large grid on exit 3 at once (the
        # valid configs resolve at most 4 x 8)
        monkeypatch.setattr(inversion, "DIM_CAP", 2 ** 9)
        valid, config = case
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))  # NaN and inf as JSON extensions
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--outdir", str(tmp_path / "out"),
                             "--config", str(path), command])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        # an unexpected exception type is a fault, not an input's limit
        assert "internal error" not in err.getvalue()
        if valid:
            assert code == 0, err.getvalue()


class TestDeterminism:
    def test_same_seed_same_surface(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = cli.main(["--outdir", str(out), "--preset", "smoke",
                             "--ae-mode", "stochastic", "--ae-eps", "1e-5",
                             "--seed", "7", "price"])
            assert code == 0
        assert (a / "surface.csv").read_text() == (b / "surface.csv").read_text()
        assert (a / "nodes.csv").read_text() == (b / "nodes.csv").read_text()

    def test_different_seed_differs(self, tmp_path, capsys):
        # each run raises one NoiseDominationWarning; it is still shown,
        # and the run's summary.json lists it
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "1"), (b, "2")):
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("always")
                code = cli.main(["--outdir", str(out), "--preset", "smoke",
                                 "--ae-mode", "stochastic", "--ae-eps",
                                 "1e-3", "--seed", seed, "price"])
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["warnings"] == [
                str(w.message) for w in shown
                if w.category is NoiseDominationWarning]
            assert len(summary["warnings"]) == 1
            assert "noise dominates" in summary["warnings"][0]
        assert (a / "nodes.csv").read_text() != (b / "nodes.csv").read_text()

    def test_defaults_json_resolves_overrides(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "--ae-eps", "1e-6", "build")
        assert code == 0
        cfg = json.loads((tmp_path / "defaults.json").read_text())
        assert cfg["extraction"]["ae_eps"] == 1e-6
        assert cfg["n_eta"] == 3


def _price(tmp_path, n_eta, **market):
    """cli.run_pipeline's price on a market that differs from the
    defaults by `market`, and its MarketParams."""
    cfg = cli.load_config(overrides={"params": market, "n_eta": n_eta,
                                     "outdir": str(tmp_path)})
    _, _, quote = cli.run_pipeline(cfg)
    return quote.value, grid.MarketParams(**cfg["params"])


class TestOpenPriceFaults:
    # the pipeline's two former price faults, with the tolerances fixed
    # before their fixes (the sine basis, and pricing puts by parity)

    def test_call_price_matches_crank_nicolson(self, tmp_path):
        # sigma = 1, r = 0.05, n_eta = 7 against the Crank-Nicolson psi at
        # eta0 = -1, tau1 = T on a 2048^2 grid (0.2297; the pipeline
        # prices 0.2301)
        value, p = _price(tmp_path, 7, sigma=1.0, r=0.05)
        lattice, eta, tau1 = oracle.crank_nicolson_solve(p, 2048, 2048)
        eta0, _ = oracle.eta_of(1.0, 0.0, 0.0, p)
        cn = oracle.cn_interpolate(lattice, eta, tau1, eta0, p.T)
        assert abs(value - cn) <= 0.002

    def test_average_rate_put_call_parity(self, tmp_path):
        # call - put = e^{-rT} eta0 + (1 - e^{-rT}) / (rT) at S0 = 1,
        # q = 0: 0.02418 here
        call, p = _price(tmp_path / "call", 6, sigma=1.0,
                         kind="avg_rate_call")
        put, _ = _price(tmp_path / "put", 6, sigma=1.0, kind="avg_rate_put")
        eta0, _ = oracle.eta_of(1.0, 0.0, 0.0, p)
        growth = math.exp(-p.r * p.T)
        parity = growth * eta0 + (1.0 - growth) / (p.r * p.T)
        assert abs((call - put) - parity) <= 0.002

    @pytest.mark.parametrize("kind", grid.KINDS)
    def test_kind_matches_crank_nicolson(self, tmp_path, kind):
        # sigma = 1, r = 0.05, n_eta = 6 against the Crank-Nicolson price
        # at eta0, tau1 = T on a 1024^2 grid at eta_max = 8, where the
        # puts' edge values lie far from eta0; the tolerance 0.003 was
        # fixed before the puts were priced by parity (gaps 0.0015,
        # 0.0005, 0.0017 and 0.0018 in KINDS order)
        value, p = _price(tmp_path, 6, sigma=1.0, r=0.05, kind=kind)
        wide = dataclasses.replace(p, eta_max=8.0)
        lattice, eta, tau1 = oracle.crank_nicolson_solve(wide, 1024, 1024)
        eta0, _ = oracle.eta_of(1.0, 0.0, 0.0, wide)
        cn = oracle.price_from_psi(
            oracle.cn_interpolate(lattice, eta, tau1, eta0, wide.T),
            1.0, 0.0, 0.0, wide).value
        assert abs(value - cn) <= 0.003

    @pytest.mark.xfail(strict=True, reason="FOUND (CHANGES.md): the "
                       "default market at n_eta = 5 prices -0.00443; "
                       "make_grid picks n_tau1 = 1 and the price is the "
                       "END_GHOST extrapolation")
    def test_default_call_price_above_floor(self, tmp_path):
        # a call pays max(A - K, 0) >= 0, so its price is > 0, its
        # no-arbitrage floor (Monte-Carlo 0.0799, CN 2048^2 0.0794)
        value, _ = _price(tmp_path, 5)
        assert value > 0

    @pytest.mark.parametrize("n_eta", [
        pytest.param(6, marks=pytest.mark.xfail(
            strict=True, reason="FOUND (CHANGES.md): the default market "
            "prices 0.0955 at n_eta = 6; make_grid picks n_tau1 = 3, too "
            "coarse in time at sigma = 0.3 (0.0851 at n_tau1 = 9)")),
        7,
    ])
    def test_default_call_price_matches_crank_nicolson(self, tmp_path,
                                                       n_eta):
        # the default market (sigma = 0.3) against the Crank-Nicolson psi
        # at eta0 = -1, tau1 = T on a 2048^2 grid (0.07945; Monte-Carlo
        # 0.0799); the tolerance 0.003 was fixed before any fix of the
        # default market's price (n_eta = 7 prices 0.08119)
        value, p = _price(tmp_path, n_eta)
        lattice, eta, tau1 = oracle.crank_nicolson_solve(p, 2048, 2048)
        eta0, _ = oracle.eta_of(1.0, 0.0, 0.0, p)
        cn = oracle.cn_interpolate(lattice, eta, tau1, eta0, p.T)
        assert abs(value - cn) <= 0.003

    def test_put_summary_names_the_solved_call(self, tmp_path):
        # a put's surface files show its call's surface, and summary.json
        # says so
        put, p = _price(tmp_path, 4, kind="avg_strike_put")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["surface_kind"] == "avg_strike_call"
        assert summary["price"]["method"] == "pde-parity"
        parity = summary["parity"]
        assert parity["offset"] == oracle.parity_offset(p, 1.0)
        assert put == parity["call_value"] - parity["offset"]
