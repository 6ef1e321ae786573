"""The benchmark's three workloads, built on the program's public entry points.

A workload's `setup(seed)` builds everything its passes need: the
references its checks compare against and any planted state.
`ops(state)` lists the operations of one pass as (name, call, check):
`call()` is the timed call into the program and `check(output)` returns
the list of ways its output is wrong.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

import qasian
from qasian import circuits, cli, extraction, grid, oracle
from qasian.errors import DimensionCapError

import checks

#: spot price of every scenario (the config default)
S0 = 1.0
#: largest dimension whose condition numbers are checked by a dense SVD
DENSE_REF_DIM = 1024


def _scenario_cfg(outdir, params, n_eta, seed, **extra):
    overrides = {"params": params, "n_eta": n_eta, "outdir": outdir,
                 "extraction": {"seed": seed}, "oracle": {"seed": seed}}
    for key, value in extra.items():
        overrides[key] = {**overrides.get(key, {}), **value}
    return cli.load_config(overrides=overrides)


def _market_of(cfg):
    return grid.MarketParams(**cfg["params"])


def dense_references(cfgs):
    """{scenario: (kappa_raw, kappa_W)} for every scenario of dim <= 1024."""
    refs = {}
    for name, cfg in cfgs.items():
        params = _market_of(cfg)
        spec = grid.make_grid(params, cfg["n_eta"], cfg["eps_target"],
                              scale_c=cfg["scale_c"], band=cfg["band"],
                              c_smooth=cfg["c_smooth"],
                              Delta=cfg["extraction"]["Delta"])
        if spec.dim > DENSE_REF_DIM:
            continue
        ops = grid.build_operators(spec, params, kink_shift=cfg["kink_shift"])
        Ct = spec.delta_tau1 * (ops.C_tau1 + ops.C_close)
        refs[name] = checks.dense_kappas(ops.A2, ops.A1, ops.C_eta2, Ct)
    return refs


class PriceDense:
    """`qasian price` (cli.run_pipeline) on five scenarios.

    The dense inversion path takes nearly all the time and sets the peak
    RSS.  sigma=1, n_eta=6 (dim 8192) stops on DimensionCapError today;
    it stays in every pass and is counted as failed.
    """

    name = "price-dense"
    headline = "sigma1.0-n5"
    known_fault = ("sigma1.0-n6", DimensionCapError)
    #: (name, market overrides, n_eta); dims 128, 1024, 8192, 256, 512
    SCENARIOS = (
        ("sigma1.0-n4", {"sigma": 1.0}, 4),
        ("sigma1.0-n5", {"sigma": 1.0}, 5),
        ("sigma1.0-n6", {"sigma": 1.0}, 6),
        ("sigma0.5-n5", {"sigma": 0.5}, 5),
        ("sigma0.7-r0.03-n5", {"sigma": 0.7, "r": 0.03}, 5),
    )

    def __init__(self, outdir):
        self.outdir = outdir

    def setup(self, seed):
        cfgs = {name: _scenario_cfg(os.path.join(self.outdir, name),
                                    params, n_eta, seed)
                for name, params, n_eta in self.SCENARIOS}
        # in a child process, so that the dense matrices do not count in
        # the peak RSS of this one
        child = subprocess.run(
            [sys.executable, __file__], input=json.dumps(cfgs),
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(
                os.path.dirname(qasian.__file__))})
        dense = {k: tuple(v) for k, v in json.loads(child.stdout).items()}
        mc, bounds = {}, {}
        for name, cfg in cfgs.items():
            key = tuple(sorted(cfg["params"].items()))
            if key not in mc:
                o = cfg["oracle"]
                mc[key] = oracle.monte_carlo_price(
                    _market_of(cfg), S0, o["n_paths"], o["n_steps"],
                    seed=o["seed"])
                bounds[key] = checks.price_bounds(cfg["params"], S0)
            mc[name], bounds[name] = mc[key], bounds[key]
        return {"cfgs": cfgs, "mc": mc, "bounds": bounds, "dense": dense}

    def ops(self, state):
        def op(name):
            cfg = state["cfgs"][name]
            mc, bounds = state["mc"][name], state["bounds"][name]

            def check(out):
                summary, result, quote = out
                return (checks.check_in_bounds("Monte-Carlo reference",
                                               mc.value, bounds)
                        + checks.check_price_vs_mc(quote.value,
                                                   result.err_bound,
                                                   mc.value, mc.stderr)
                        + checks.check_condition(summary["condition"],
                                                 state["dense"].get(name)))
            return name, lambda: cli.run_pipeline(cfg), check
        return [op(name) for name, _, _ in self.SCENARIOS]


class Readout1M:
    """Readout of a planted separable cubic on a 2^10 x 2^10 register.

    No system is solved: extraction.extract_psi_2d at M_eta = M_tau1 = 8
    does all the work, once with the exact and once with the stochastic
    estimator, and the recovered surface is evaluated on all 2^20 cells.
    """

    name = "readout-1m"
    headline = "exact"
    known_fault = None
    N_QUBITS = 10
    M = 8
    STOCHASTIC_EPS = 1e-7

    def __init__(self, outdir):
        self.outdir = outdir

    @staticmethod
    def _planted(s_t, s_x):
        # acceptance 8's cubics: inside the degree-7 fit exactly
        P = 1.2 + 0.5 * s_t + 0.3 * s_t ** 2 - 0.2 * s_t ** 3
        Q = 1.0 - 0.4 * s_x + 0.25 * s_x ** 2 + 0.1 * s_x ** 3
        return np.outer(P, Q)

    def setup(self, seed):
        params = grid.MarketParams(sigma=1.0, r=0.0, q=0.0, T=1.0, K=1.0,
                                   eta_max=1.0)
        n = self.N_QUBITS
        spec = grid.grid_spec_direct(params, n, n, Delta=0.0)
        s = -1.0 + (2.0 * np.arange(2 ** n) + 1.0) / 2 ** n
        surf = self._planted(s, s)
        norm2 = float(np.sum(surf ** 2))
        state = circuits.StateVector((surf / math.sqrt(norm2)).reshape(-1))
        st, sx = np.meshgrid(s, s, indexing="ij")
        return {"spec": spec, "state": state, "norm2": norm2, "st": st,
                "sx": sx, "planted": np.abs(surf), "seed": seed,
                "ae_calls": checks.expected_ae_calls(self.M, 2 ** n,
                                                     self.M, 2 ** n)}

    def _read(self, state, est):
        res = extraction.extract_psi_2d(state["state"], state["spec"],
                                        {"M_eta": self.M, "M_tau1": self.M},
                                        est, scale=state["norm2"])
        psi_sq = res.interpolant.psi_sq(state["st"], state["sx"])
        return res, np.sqrt(np.maximum(psi_sq, 0.0))

    def ops(self, state):
        def exact():
            return self._read(state, extraction.AmplitudeEstimator(
                mode="exact"))

        def stochastic():
            return self._read(state, extraction.AmplitudeEstimator(
                mode="stochastic", eps_prime=self.STOCHASTIC_EPS,
                seed=state["seed"]))

        def check_exact(out):
            res, rec = out
            return checks.check_readout(rec, state["planted"],
                                        checks.READOUT_TOL, res.ae_calls,
                                        state["ae_calls"])

        def check_stochastic(out):
            res, rec = out
            return checks.check_readout(rec, state["planted"], res.err_bound,
                                        res.ae_calls, state["ae_calls"])

        return [("exact", exact, check_exact),
                ("stochastic", stochastic, check_stochastic)]


class CompareOracles:
    """Acceptance 10's scenarios through cli.run_compare at n_eta = 4.

    The Monte-Carlo oracle (1e5 paths x 64 steps) and one Crank-Nicolson
    solve at 1024 x 1024 per scenario dominate; the pipeline solves only
    systems of dims 32-128.
    """

    name = "compare-oracles"
    headline = "compare-sigma1.0"
    known_fault = None
    CN_SIZE = 1024
    SCENARIOS = (
        ("sigma0.5", {"sigma": 0.5, "r": 0.05}),
        ("sigma0.7", {"sigma": 0.7, "r": 0.03}),
        ("sigma1.0", {"sigma": 1.0, "r": 0.0}),
    )

    def __init__(self, outdir):
        self.outdir = outdir

    def setup(self, seed):
        # low-vol scenarios resolve only two interior time nodes
        cfgs = {name: _scenario_cfg(
                    os.path.join(self.outdir, name), params, 4, seed,
                    extraction={"M_tau1": 2, "M_eta": 6},
                    oracle={"n_paths": 100_000})
                for name, params in self.SCENARIOS}
        bounds = {name: checks.price_bounds(cfg["params"], S0)
                  for name, cfg in cfgs.items()}
        return {"cfgs": cfgs, "bounds": bounds}

    def ops(self, state):
        out = []
        for name, _ in self.SCENARIOS:
            cfg, bounds = state["cfgs"][name], state["bounds"][name]
            params = _market_of(cfg)

            def check_compare(comp, bounds=bounds):
                bad = checks.check_in_bounds("Monte-Carlo price", comp["mc"],
                                             bounds)
                if comp["consistent"] is not True:
                    bad.append(f"pipeline {comp['pipeline']:.6g} not "
                               f"consistent with Monte-Carlo {comp['mc']:.6g}")
                return bad

            def check_cn(res, cfg=cfg, bounds=bounds):
                lattice, eta, _ = res
                price = checks.cn_price_at_eta0(lattice, eta, cfg["params"],
                                                S0)
                return checks.check_in_bounds("Crank-Nicolson price", price,
                                              bounds)

            out.append((f"compare-{name}",
                        lambda cfg=cfg: cli.run_compare(cfg), check_compare))
            out.append((f"cn-{name}",
                        lambda params=params: oracle.crank_nicolson_solve(
                            params, self.CN_SIZE, self.CN_SIZE),
                        check_cn))
        return out


WORKLOADS = {w.name: w for w in (PriceDense, Readout1M, CompareOracles)}


if __name__ == "__main__":
    # scenario configs as JSON on stdin -> dense references on stdout
    json.dump(dense_references(json.load(sys.stdin)), sys.stdout)
