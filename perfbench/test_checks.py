"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/test_checks.py

A perturbed price, recovered surface or call count must make its
operation count as failed; only the known fault fails without making the
run incorrect.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from qasian.errors import DimensionCapError  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _fails(name, output, check, known_fault=None):
    """(failures, wrong) of a one-operation pass returning `output`."""
    _, failures, wrong = run.run_pass([(name, lambda: output, check)],
                                      known_fault)
    return failures, wrong


@pytest.fixture(scope="module")
def price_op(tmp_path_factory):
    wl = workloads.PriceDense(str(tmp_path_factory.mktemp("price")))
    wl.SCENARIOS = wl.SCENARIOS[:1]  # sigma=1, n_eta=4: dim 128
    name, call, check = wl.ops(wl.setup(seed=3))[0]
    return name, call(), check


@pytest.fixture(scope="module")
def readout_ops(tmp_path_factory):
    wl = workloads.Readout1M(str(tmp_path_factory.mktemp("readout")))
    return [(name, call(), check)
            for name, call, check in wl.ops(wl.setup(seed=3))]


@pytest.fixture(scope="module")
def compare_ops(tmp_path_factory):
    wl = workloads.CompareOracles(str(tmp_path_factory.mktemp("compare")))
    ops = wl.ops(wl.setup(seed=3))
    return [(name, call(), check) for name, call, check in ops[:2]]


def test_price_passes_unperturbed(price_op):
    assert _fails(*price_op) == (0, 0)


def test_perturbed_price_fails(price_op):
    name, (summary, result, quote), check = price_op
    moved = dataclasses.replace(quote, value=quote.value
                                + 2.0 * max(result.err_bound, 0.01))
    assert _fails(name, (summary, result, moved), check) == (1, 1)


@pytest.mark.parametrize("key", ["kappa_raw", "kappa_W"])
def test_perturbed_condition_number_fails(price_op, key):
    name, (summary, result, quote), check = price_op
    condition = dict(summary["condition"])
    condition[key] *= 1.0 + 1e-6
    assert _fails(name, ({**summary, "condition": condition}, result, quote),
                  check) == (1, 1)


def test_condition_bound_violation_fails(price_op):
    name, (summary, result, quote), check = price_op
    condition = {**summary["condition"], "C_AB": 1.0, "C_AB_prime": 1.0}
    assert _fails(name, ({**summary, "condition": condition}, result, quote),
                  check) == (1, 1)


def test_readout_passes_unperturbed(readout_ops):
    for op in readout_ops:
        assert _fails(*op) == (0, 0)


def test_perturbed_surface_fails(readout_ops):
    for name, (res, rec), check in readout_ops:
        moved = rec.copy()
        moved[17, 901] += 2.0 * max(res.err_bound, checks.READOUT_TOL)
        assert _fails(name, (res, moved), check) == (1, 1), name


def test_perturbed_call_count_fails(readout_ops):
    for name, (res, rec), check in readout_ops:
        moved = dataclasses.replace(res, ae_calls=res.ae_calls + 1)
        assert _fails(name, (moved, rec), check) == (1, 1), name


def test_expected_ae_calls():
    # 42 segments per axis at M = 8 on 1024 cells
    assert checks.expected_ae_calls(8, 1024, 8, 1024) == 1764


def test_compare_passes_unperturbed(compare_ops):
    for op in compare_ops:
        assert _fails(*op) == (0, 0)


def test_perturbed_compare_fails(compare_ops):
    (name, comp, check), _ = compare_ops
    assert _fails(name, {**comp, "consistent": False}, check) == (1, 1)
    assert _fails(name, {**comp, "mc": comp["mc"] + 0.05}, check) == (1, 1)


def test_perturbed_crank_nicolson_fails(compare_ops):
    _, (name, (lattice, eta, tau1), check) = compare_ops
    assert _fails(name, (1.5 * lattice, eta, tau1), check) == (1, 1)


def test_price_bounds_bracket_known_values():
    params = {"sigma": 0.5, "r": 0.05, "q": 0.0, "T": 1.0, "K": 1.0}
    lo, hi = checks.price_bounds(params, 1.0)
    assert 0.110 < lo < 0.112 and 0.139 < hi < 0.141


def test_known_fault_fails_without_making_the_run_wrong():
    def capped():
        raise DimensionCapError("dense dimension 8192 exceeds cap 4096")
    fault = ("capped", DimensionCapError)
    ops = [("capped", capped, lambda out: [])]
    assert run.run_pass(ops, fault)[1:] == (1, 0)
    assert run.run_pass(ops, None)[1:] == (1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readout-1m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
