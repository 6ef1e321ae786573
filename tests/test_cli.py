import json
import os

import pytest

from qasian import cli, extraction, grid, inversion
from qasian.errors import ValidationError


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
        assert summary["price"]["value"] == pytest.approx(0.0974, abs=1e-4)

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
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "1"), (b, "2")):
            code = cli.main(["--outdir", str(out), "--preset", "smoke",
                             "--ae-mode", "stochastic", "--ae-eps", "1e-3",
                             "--seed", seed, "price"])
            assert code == 0
        assert (a / "nodes.csv").read_text() != (b / "nodes.csv").read_text()

    def test_defaults_json_resolves_overrides(self, tmp_path, capsys):
        code = run(tmp_path, "--preset", "smoke", "--ae-eps", "1e-6", "build")
        assert code == 0
        cfg = json.loads((tmp_path / "defaults.json").read_text())
        assert cfg["extraction"]["ae_eps"] == 1e-6
        assert cfg["n_eta"] == 3
