"""Command-line orchestration of the pricing pipeline.

One JSON config per run; every resolved setting is echoed to
defaults.json in the output directory so runs are reproducible from
their artifacts alone.  Exit codes: 0 success, 2 validation problem,
3 numerical failure.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import numbers
import os
import sys
import warnings

import numpy as np

from . import circuits, extraction, grid, inversion, oracle
from .errors import (QasianError, ValidationError, InfeasibleScaleError,
                     NoiseDominationWarning, PostSelectionWarning)

DEFAULT_CONFIG = {
    "params": {
        "sigma": 0.3,
        "r": 0.05,
        "q": 0.0,
        "T": 1.0,
        "K": 1.0,
        "eta_max": 4.0,
        "kind": "avg_rate_call",
    },
    "n_eta": 4,
    "n_tau1": None,          # None -> chosen by make_grid
    "eps_target": 1e-3,
    "scale_c": 1.0,
    "band": 1.5,
    "c_smooth": 1.0,
    "extraction": {
        "M_eta": 6,
        "M_tau1": 4,
        "Delta": None,       # None -> T/4
        "ae_mode": "exact",
        "ae_eps": 1e-4,
        "seed": 0,
    },
    "oracle": {
        "S0": 1.0,
        "n_paths": 100000,
        "n_steps": 64,
        "seed": 1,
    },
    "outdir": "qasian-out",
    "kink_shift": 0.0,
}

PRESETS = {
    # smoke raises sigma so the smoothing inequality is satisfiable at
    # the coarsest spatial grid
    "smoke": {"n_eta": 3, "params": {"sigma": 0.5},
              "extraction": {"M_eta": 4, "M_tau1": 2}},
}


def _deep_update(base, overrides):
    if not isinstance(overrides, dict):
        return overrides
    out = dict(base)
    for k, v in overrides.items():
        out[k] = _deep_update(out[k], v) if isinstance(out.get(k), dict) else v
    return out


def load_config(path=None, preset=None, overrides=None):
    """DEFAULT_CONFIG updated by the preset, the file and the overrides,
    in that order, and checked by _check_config before it is returned."""
    cfg = dict(DEFAULT_CONFIG)
    if preset:
        if preset not in PRESETS:
            raise ValidationError(f"unknown preset {preset!r}")
        cfg = _deep_update(cfg, PRESETS[preset])
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable or not JSON
            raise ValidationError(f"config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {path} must hold an object")
        cfg = _deep_update(cfg, loaded)
    if overrides:
        cfg = _deep_update(cfg, overrides)
    _check_config(cfg, DEFAULT_CONFIG)
    return cfg


#: Type of each config leaf whose default is None; every other leaf
#: takes its default's type.
NULLABLE = {"n_tau1": int, "extraction.Delta": float}

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}

#: Least value of each bounded numeric leaf: an estimator's error and the
#: seeds cannot be negative, the Monte-Carlo oracle takes at least one
#: step and (its own rule) 1000 paths.
MINIMUM = {"extraction.ae_eps": 0, "extraction.seed": 0, "oracle.seed": 0,
           "oracle.n_steps": 1, "oracle.n_paths": 1000}

#: Greatest value of each bounded numeric leaf: an error above 1 bounds
#: nothing for an amplitude in [0, 1], and a register of more qubits
#: than this has a size 2^n that no float holds.
MAXIMUM = {"extraction.ae_eps": 1, "n_eta": sys.float_info.max_exp - 1,
           "n_tau1": sys.float_info.max_exp - 1}

#: Values each enumerated str leaf accepts.
CHOICES = {"extraction.ae_mode": extraction.AE_MODES}


def _check_config(cfg, default, prefix=""):
    """Reject unknown keys at every level of cfg, values of the wrong
    type (an int leaf takes integers, a float leaf finite reals, integers
    included, a str leaf strings, and a NULLABLE leaf None as well),
    values below their MINIMUM or above their MAXIMUM, and values outside
    their CHOICES."""
    for key, value in cfg.items():
        name = prefix + key
        if key not in default:
            raise ValidationError(f"unknown config key {name!r}")
        ref = default[key]
        if isinstance(ref, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config {name} must be an object, "
                                      f"got {value!r}")
            _check_config(value, ref, name + ".")
            continue
        kind = NULLABLE.get(name, type(ref))
        if not (value is None and name in NULLABLE or _is_kind(value, kind)):
            raise ValidationError(f"config {name} must be "
                                  f"{_KIND_NAMES[kind]}, got {value!r}")
        if name in MINIMUM and value < MINIMUM[name]:
            raise ValidationError(f"config {name} must be >= "
                                  f"{MINIMUM[name]}, got {value!r}")
        if name in MAXIMUM and value is not None and value > MAXIMUM[name]:
            raise ValidationError(f"config {name} must be <= "
                                  f"{MAXIMUM[name]}, got {value!r}")
        if name in CHOICES and value not in CHOICES[name]:
            raise ValidationError(f"config {name} must be one of "
                                  f"{', '.join(CHOICES[name])}, "
                                  f"got {value!r}")


def _is_kind(value, kind):
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, numbers.Integral if kind is int else kind)


def _market(cfg):
    return grid.MarketParams(**cfg["params"])


def _solved(params):
    """The market whose profile every command solves: the call of the
    kind's grid.PAYOFFS entry, which prices a put by parity."""
    return dataclasses.replace(params, kind=grid.PAYOFFS[params.kind][2])


def _spec(cfg, params):
    if cfg["n_tau1"] is not None:
        # grid_spec_direct accepts a diffusion-free sigma = 0 grid; a
        # pricing run needs sigma > 0, as make_grid demands below
        if not params.sigma > 0:
            raise ValidationError(f"sigma must be > 0, got {params.sigma!r}")
        return grid.grid_spec_direct(params, cfg["n_eta"], cfg["n_tau1"],
                                     Delta=cfg["extraction"]["Delta"])
    return grid.make_grid(params, cfg["n_eta"], cfg["eps_target"],
                          scale_c=cfg["scale_c"], band=cfg["band"],
                          c_smooth=cfg["c_smooth"],
                          Delta=cfg["extraction"]["Delta"])


def _extraction_cfg(cfg, spec, params):
    """extract_psi_2d's settings for a run on `spec`, checked against its
    grid so that a request it cannot fit fails before the solve.

    When make_grid chose the time register, M_tau1 is clamped to the
    extraction's time window; a pinned register keeps the request as is.
    """
    e = cfg["extraction"]
    Nt_win = extraction.time_window(spec)[1]
    M_tau1 = e["M_tau1"]
    if cfg["n_tau1"] is None:
        M_tau1 = min(M_tau1, Nt_win)
    for key, M, N in (("M_eta", e["M_eta"], spec.N_eta),
                      ("M_tau1", M_tau1, Nt_win)):
        if not 1 <= M <= N:
            raise ValidationError(f"extraction.{key} = {M} must lie in "
                                  f"1..{N} on this grid")
    return {"M_eta": e["M_eta"], "M_tau1": M_tau1, "eta_max": params.eta_max}


def _estimator(cfg):
    e = cfg["extraction"]
    return extraction.AmplitudeEstimator(
        mode=e["ae_mode"], eps_prime=e["ae_eps"], seed=e["seed"])


def _solve_and_read(cfg, spec, params):
    """(psi_tilde, norm_b, report, state, est, scale): the solve, its
    normalised solution as a state, a fresh estimator, and the factor
    relating squared amplitudes to psi^2."""
    psi_tilde, norm_b, report = inversion.solve_pricing_system(
        spec, params, kink_shift=cfg["kink_shift"])
    sol_norm = float(np.linalg.norm(psi_tilde))
    state = circuits.StateVector(psi_tilde / sol_norm)
    return (psi_tilde, norm_b, report, state, _estimator(cfg),
            norm_b * sol_norm ** 2)


def _outdir(cfg):
    out = cfg["outdir"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "defaults.json"), "w") as fh:
        json.dump(cfg, fh, indent=2)
    return out


def _write_summary(out, summary):
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, default=float)


@contextlib.contextmanager
def _recorded_warnings(messages):
    """Append to `messages` the text of every PostSelectionWarning and
    NoiseDominationWarning shown inside the block.  The warning filters
    apply as usual, and each warning is passed on to the showwarning in
    place before, so it still reaches stderr."""
    with warnings.catch_warnings():
        show = warnings.showwarning

        def record(message, category, *args):
            if issubclass(category, (PostSelectionWarning,
                                     NoiseDominationWarning)):
                messages.append(str(message))
            show(message, category, *args)
        warnings.showwarning = record
        yield


def run_pipeline(cfg):
    """Full pipeline: build, precondition, solve, extract, price.

    A put is priced from its call's solve (_solved) by put-call parity,
    so its surface files show the call's surface;
    summary.json names the solved kind in "surface_kind", and lists the
    post-selection and noise-domination warnings raised in "warnings".
    """
    out = _outdir(cfg)
    summary = {"stage": "build", "errors": {}, "warnings": []}
    try:
        with _recorded_warnings(summary["warnings"]):
            params = _market(cfg)
            S0 = cfg["oracle"]["S0"]
            if not S0 > 0:
                raise ValidationError(f"oracle.S0 must be > 0, got {S0!r}")
            eta0, _ = oracle.eta_of(S0, 0.0, 0.0, params)
            if abs(eta0) > params.eta_max:
                raise ValidationError(f"eta0 = {eta0:.6g} lies outside the "
                                      f"eta domain |eta| <= {params.eta_max}")
            solved = _solved(params)
            spec = _spec(cfg, params)
            summary["grid"] = {"n_eta": spec.n_eta, "n_tau1": spec.n_tau1,
                               "delta_tau1": spec.delta_tau1,
                               "delta_eta_hat": spec.delta_eta_hat}
            summary["surface_kind"] = solved.kind
            ext_cfg = _extraction_cfg(cfg, spec, params)

            summary["stage"] = "solve"
            _, norm_b, report, state, est, scale = _solve_and_read(
                cfg, spec, solved)
            with open(os.path.join(out, "condition_report.json"), "w") as fh:
                fh.write(report.to_json())
            summary["condition"] = json.loads(report.to_json())
            summary["errors"]["norm_b"] = norm_b

            summary["stage"] = "extract"
            result = extraction.extract_psi_2d(state, spec, ext_cfg, est,
                                               scale=scale)
            summary["errors"]["extraction_bound"] = result.err_bound
            summary["extraction"] = {"ae_calls": result.ae_calls,
                                     "ae_cost": result.ae_cost}
            _emit_extraction_csvs(out, spec, params, result)

            summary["stage"] = "price"
            quote = _price_from_state(state, spec, solved, cfg, est, scale,
                                      eta0)
            summary["extraction"]["price_ae_calls"] = (est.calls
                                                       - result.ae_calls)
            summary["extraction"]["price_ae_cost"] = (est.total_cost
                                                      - result.ae_cost)
            if solved.kind != params.kind:
                offset = oracle.parity_offset(params, S0)
                summary["parity"] = {"call_value": quote.value,
                                     "offset": offset}
                quote = oracle.PriceQuote(quote.value - offset, quote.stderr,
                                          "pde-parity")
            summary["price"] = {"value": quote.value, "method": quote.method}
            with open(os.path.join(out, "quotes.csv"), "w") as fh:
                fh.write("method,value,stderr\n")
                fh.write(f"{quote.method},{quote.value:.12g},"
                         f"{quote.stderr:.12g}\n")

            summary["stage"] = "done"
            return summary, result, quote
    finally:
        _write_summary(out, summary)


def _price_from_state(state, spec, params, cfg, est, scale, eta0):
    """Price today (t = 0, no accumulated average): psi at (eta0, T).

    tau1 = T is the ghost slice of the closure row, so psi there is the
    grid.END_GHOST extrapolation of the last three slices (at
    N_tau1 = 2 the oldest of them is the tau1 = 0 payoff, known without
    a measurement).  |psi| is read at the two lattice cells bracketing
    eta0 (as run_pipeline computes and checks it), slice by
    slice in one extraction._estimate_blocks call with one single-cell
    run each, and interpolated linearly in eta.  `scale` relates squared
    amplitudes to psi^2, as in extraction.extract_psi_2d.
    """
    eta = grid.eta_nodes(spec, params)
    x = int(np.clip(np.searchsorted(eta, eta0) - 1, 0, spec.N_eta - 2))
    amps = np.asarray(state.amplitudes).reshape(spec.N_tau1, spec.N_eta)
    N_t = spec.N_tau1
    cells = np.abs(amps[max(N_t - 3, 0):, x:x + 2]) ** 2
    totals, _ = extraction._estimate_blocks(list(cells.reshape(-1, 1)), est)
    slices = list(np.sqrt(scale * np.array(totals)).reshape(-1, 2))
    if N_t == 2:  # the tau1 = 0 slice is the payoff itself
        slices.insert(0, grid.psi0(params, eta[x:x + 2],
                                   kink_shift=cfg["kink_shift"]))
    psi_T = sum(g * row for g, row in zip(grid.END_GHOST, slices))
    w = (eta0 - eta[x]) / (eta[x + 1] - eta[x])
    psi_val = (1.0 - w) * psi_T[0] + w * psi_T[1]
    return oracle.price_from_psi(psi_val, cfg["oracle"]["S0"], 0.0, 0.0,
                                 params)


def _emit_extraction_csvs(out, spec, params, result):
    interp = result.interpolant
    nidx_t, s_t = interp.nodes_t
    nidx_x, s_x = interp.nodes_x
    with open(os.path.join(out, "nodes.csv"), "w") as fh:
        fh.write("t_index,s_t,x_index,s_x,raw_integral,psi\n")
        for k in range(len(nidx_t)):
            for l in range(len(nidx_x)):
                fh.write(f"{nidx_t[k]},{s_t[k]:.12g},{nidx_x[l]},"
                         f"{s_x[l]:.12g},{result.raw_integrals[k, l]:.12g},"
                         f"{result.psi_nodes[k, l]:.12g}\n")
    eta = grid.eta_nodes(spec, params)
    tau1 = spec.delta_tau1 * (interp.t_lo + 1 + np.arange(interp.Nt_win))
    surface = np.reshape(interp.psi(tau1[:, None], eta[None, :]),
                         (tau1.size, eta.size))
    _write_surface(os.path.join(out, "surface.csv"), tau1, eta, surface)


def _write_surface(path, tau1, eta, surface):
    """surface.csv: one "tau1,eta,psi" line per node, each value as
    f"{v:.12g}".  Every tau1 and eta is formatted once, and each tau1 row
    is written by one %-format ("%.12g" formats as ".12g" does)."""
    # "{}" stands for the row's tau1 in every line of the row
    row_format = "".join(f"{{}},{x:.12g},%.12g\n" for x in eta)
    with open(path, "w") as fh:
        fh.write("tau1,eta,psi\n")
        for t, row in zip(tau1, surface):
            fh.write(row_format.replace("{}", f"{t:.12g}")
                     % tuple(row.tolist()))


def run_compare(cfg):
    """Pipeline price vs Monte-Carlo on the configured scenario."""
    summary, result, quote = run_pipeline(cfg)
    o = cfg["oracle"]
    params = _market(cfg)
    mc = oracle.monte_carlo_price(params, o["S0"], o["n_paths"],
                                  o["n_steps"], seed=o["seed"])
    gap = abs(quote.value - mc.value)
    tol = max(3 * mc.stderr, result.err_bound)
    comparison = {
        "pipeline": quote.value,
        "mc": mc.value,
        "mc_stderr": mc.stderr,
        "gap": gap,
        "tolerance": tol,
        "consistent": bool(gap <= tol),
    }
    out = cfg["outdir"]
    with open(os.path.join(out, "compare.json"), "w") as fh:
        json.dump(comparison, fh, indent=2)
    return comparison


def run_convergence(cfg, levels):
    """Error/cost table over successive spatial refinements.

    Truth is the direct statevector readout, which simulation makes
    available; the table exhibits how extraction error and accounted
    amplitude-estimation cost move as the grid refines.
    """
    if levels < 3:
        raise ValidationError("convergence study needs >= 3 levels")
    out = _outdir(cfg)
    params = _solved(_market(cfg))
    rows = []
    for lvl in range(levels):
        level_cfg = {**cfg, "n_eta": cfg["n_eta"] + lvl, "n_tau1": None}
        spec = _spec(level_cfg, params)
        ext_cfg = _extraction_cfg(level_cfg, spec, params)
        psi_tilde, norm_b, _, state, est, scale = _solve_and_read(
            level_cfg, spec, params)
        result = extraction.extract_psi_2d(state, spec, ext_cfg, est,
                                           scale=scale)
        truth = _direct_readout(psi_tilde, norm_b, spec, result)
        err = float(np.max(np.abs(result.psi_nodes - truth)))
        rows.append({"n_eta": spec.n_eta, "n_tau1": spec.n_tau1, "error": err,
                     "ae_calls": result.ae_calls, "ae_cost": result.ae_cost})
    with open(os.path.join(out, "convergence.csv"), "w") as fh:
        fh.write("n_eta,n_tau1,error,ae_calls,ae_cost\n")
        for r in rows:
            fh.write(f"{r['n_eta']},{r['n_tau1']},{r['error']:.12g},"
                     f"{r['ae_calls']},{r['ae_cost']:.12g}\n")
    return rows


def _direct_readout(psi_tilde, norm_b, spec, result):
    """|psi| read straight off the solution vector at the node grid."""
    surface = math.sqrt(norm_b) * np.abs(
        np.asarray(psi_tilde).reshape(spec.N_tau1, spec.N_eta))
    nidx_t, _ = result.interpolant.nodes_t
    nidx_x, _ = result.interpolant.nodes_x
    return surface[np.ix_(nidx_t, nidx_x)]


def run_dump_encoding(cfg, which):
    out = _outdir(cfg)
    params = _market(cfg)
    spec = _spec(cfg, params)
    if which == "ctau1":
        inversion.check_square_cap("N_tau1", spec.N_tau1)
        be = circuits.build_ctau1_encoding(spec)
    elif which in ("eta", "spectral"):
        inversion.check_square_cap("N_eta", spec.N_eta)
        be = (circuits.encode_eta if which == "eta"
              else circuits.encode_spectral)(spec)
    else:
        raise ValidationError(f"unknown encoding {which!r}")
    desc = circuits.encoding_report(be)
    with open(os.path.join(out, f"encoding_{which}.json"), "w") as fh:
        json.dump(desc, fh, indent=2)
    grid.matrix_to_csv(be.top_block(),
                       os.path.join(out, f"encoding_{which}.csv"))
    return desc


def run_build(cfg):
    out = _outdir(cfg)
    params = _solved(_market(cfg))
    spec = _spec(cfg, params)
    inversion.check_dim_cap(spec)
    # C_tau1 is exported as a dense N_tau1 x N_tau1 matrix
    inversion.check_square_cap("N_tau1", spec.N_tau1)
    ops = grid.build_operators(spec, params, kink_shift=cfg["kink_shift"])
    # C_tau1 is exported closed, as the system uses it; the central part
    # alone is the `dump-encoding ctau1` block
    for name, mat in (("C_tau1", ops.C_tau1 + ops.C_close),
                      ("C_eta1", ops.C_eta1),
                      ("C_eta2", ops.C_eta2), ("A1", ops.A1), ("A2", ops.A2)):
        grid.matrix_to_csv(mat, os.path.join(out, f"{name}.csv"))
        with open(os.path.join(out, f"{name}.json"), "w") as fh:
            fh.write(grid.operator_descriptor(name, spec))
    return {"n_eta": spec.n_eta, "n_tau1": spec.n_tau1,
            "norm_b": ops.norm_b, "surface_kind": params.kind, "outdir": out}


def run_solve(cfg):
    out = _outdir(cfg)
    params = _solved(_market(cfg))
    spec = _spec(cfg, params)
    psi_tilde, norm_b, report, *_ = _solve_and_read(cfg, spec, params)
    with open(os.path.join(out, "condition_report.json"), "w") as fh:
        fh.write(report.to_json())
    grid.matrix_to_csv(psi_tilde.reshape(spec.N_tau1, spec.N_eta),
                       os.path.join(out, "solution.csv"))
    return {"norm_b": norm_b, "kappa_W": report.kappa_W,
            "surface_kind": params.kind, "outdir": out}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qasian",
        description="Simulated quantum-preconditioned Asian-option pricer")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help="named preset "
                        f"({', '.join(PRESETS)})")
    parser.add_argument("--outdir", help="output directory override")
    parser.add_argument("--n-eta", type=int, dest="n_eta")
    parser.add_argument("--ae-mode", dest="ae_mode",
                        choices=extraction.AE_MODES)
    parser.add_argument("--ae-eps", dest="ae_eps", type=float)
    parser.add_argument("--seed", type=int)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", help="build and export the discrete operators")
    sub.add_parser("solve", help="precondition and solve")
    sub.add_parser("extract", help="the same pipeline as price: solve, "
                   "extract the psi surface and quote the price")
    sub.add_parser("price", help="full pipeline ending in a price quote")
    sub.add_parser("compare", help="pipeline price vs Monte-Carlo")
    conv = sub.add_parser("converge", help="refinement study")
    conv.add_argument("--levels", type=int, default=3)
    dump = sub.add_parser("dump-encoding", help="export a block-encoding")
    dump.add_argument("which", choices=["ctau1", "eta", "spectral"])

    args = parser.parse_args(argv)
    overrides = {}
    if args.outdir:
        overrides["outdir"] = args.outdir
    if args.n_eta is not None:
        overrides["n_eta"] = args.n_eta
    ext_over = {}
    if args.ae_mode:
        ext_over["ae_mode"] = args.ae_mode
    if args.ae_eps is not None:
        ext_over["ae_eps"] = args.ae_eps
    if args.seed is not None:
        ext_over["seed"] = args.seed
    if ext_over:
        overrides["extraction"] = ext_over

    try:
        cfg = load_config(args.config, args.preset, overrides)
        if args.command == "build":
            print(json.dumps(run_build(cfg), indent=2))
        elif args.command == "solve":
            print(json.dumps(run_solve(cfg), indent=2))
        elif args.command in ("extract", "price"):
            summary, _, _ = run_pipeline(cfg)
            print(json.dumps(summary, indent=2, default=float))
        elif args.command == "compare":
            print(json.dumps(run_compare(cfg), indent=2))
        elif args.command == "converge":
            rows = run_convergence(cfg, args.levels)
            print(json.dumps(rows, indent=2, default=float))
        elif args.command == "dump-encoding":
            print(json.dumps(run_dump_encoding(cfg, args.which), indent=2))
    except (ValidationError, InfeasibleScaleError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (QasianError, ArithmeticError) as exc:
        # ArithmeticError: a float overflow or zero division on an input
        # at the edge of float range
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except Exception as exc:  # exit codes stay 0/2/3, never a traceback
        # repr keeps a multi-line message on one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
