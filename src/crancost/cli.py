"""Command-line entry point.

Subcommands:
  evaluate    one scenario -> cost breakdown
  sweep       cost along one axis for several architectures -> table
  simulate    Monte Carlo deployment estimate (optionally dump realizations)
  compare     closed form vs Monte Carlo, z-score per term
  complexity  pooled vs distributed processing-demand table over pool sizes
  dimension   base-station intensity from the rate target

Each subcommand takes only the shared options it reads. A ``--config``
file is parsed once per command by ``config.read_config``, which checks
every section whatever the command reads of it; evaluate's
``--architecture`` takes the place of the config's before re-dimensioning.
The commands with ``--threads`` (sweep, simulate, compare) check the worker
count (``--threads``, else ``CRANCOST_THREADS``) before they do anything
else; those with ``--seed`` reject a negative seed as a config error.
``dimension`` rejects a ``--gamma-offset-db`` with no preset as a config
error, as a config's ``gamma_offset_db`` is.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np
import scipy

from .complexity import make_snr_sampler, pooling_table
from .config import (
    ComplexitySettings,
    load_scenario,
    parse_names,
    parse_values,
    read_config,
    save_scenario,
    scenario_hash,
)
from .costs import Architecture, Scenario, datacenter_cost
from .dimensioning import OFFSET_PRESETS, invert_for_bs_intensity, spectral_efficiency_target
from .errors import ConfigError, CrancostError
from .geometry import Window
from .simulate import compare_to_closed_form, estimate_mean_dc_cost, realization_rows, simulate_realization
from .sweeps import ARCHITECTURE_VARIANTS, SWEEP_AXES, SweepSpec, TOOL_VERSION, render, run_sweep

_EXIT_CODES = {
    "config": 2,
    "parameter": 3,
    "numerical": 4,
    "assignment": 5,
    "sampler": 6,
    "estimation": 7,
    "internal": 1,
}


def _threads(args) -> int:
    """Worker count from --threads, else a non-empty CRANCOST_THREADS, else 1."""
    raw = args.threads if args.threads is not None else os.environ.get("CRANCOST_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"thread count must be an integer >= 1, got {raw!r}", key="threads")
    return threads


def _seed(args) -> int:
    """--seed, which must be >= 0 to seed numpy's SeedSequence."""
    if args.seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {args.seed}", key="seed")
    return args.seed


_SHARED_OPTIONS = {
    "config": {"default": None, "help": "scenario INI file"},
    "format": {"choices": ("csv", "json"), "default": "json"},
    "seed": {"type": int, "default": 0},
    "reps": {"type": int, "default": 2000},
    "threads": {"default": None, "help": "worker count >= 1 (env CRANCOST_THREADS)"},
    "window": {"type": float, "default": 10.0, "help": "square window side, km"},
    "no-wrap": {"action": "store_true", "help": "bounded window instead of toroidal"},
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """``--out`` plus the named shared options, those the subcommand reads."""
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_OPTIONS[name])


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load(args):
    # evaluate's --architecture replaces the config's before re-dimensioning
    mode = getattr(args, "architecture", None)
    return load_scenario(args.config, architecture=Architecture(mode) if mode else None)


def cmd_evaluate(args) -> int:
    scenario = _load(args)
    breakdown = datacenter_cost(scenario)
    if args.format == "json":
        payload = {
            "scenario_hash": scenario_hash(scenario),
            "architecture": scenario.architecture.value,
            "gamma_offset_db": scenario.gamma_offset_db,
            "lambda_3": scenario.lambda_3,
            "per_data_center": breakdown.as_dict(),
            "c_phi3": breakdown.c_phi3,
            "total_per_km2": breakdown.total_per_km2,
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        terms = {**breakdown.as_dict(), "c_phi3": breakdown.c_phi3, "total_per_km2": breakdown.total_per_km2}
        _write("term,per_data_center\n" + "".join(f"{k},{v:.6g}\n" for k, v in terms.items()), args.out)
    if args.dump_config:
        save_scenario(scenario, args.dump_config)
    return 0


def _sampler(args, settings):
    """The --sampler override built from --sampler-params, else the configured sampler."""
    if args.sampler is None:
        if args.sampler_params is not None:
            raise ConfigError("needs --sampler to name the sampler it configures", key="sampler-params")
        return settings.make_sampler()
    try:
        params = json.loads("{}" if args.sampler_params is None else args.sampler_params)
        if not isinstance(params, dict):
            raise ValueError(f"got {args.sampler_params!r}")
    except ValueError as exc:  # json.JSONDecodeError included
        raise ConfigError(f"sampler {args.sampler!r} needs a JSON object: {exc}", key="sampler-params") from None
    return make_snr_sampler(args.sampler, **params)


def cmd_sweep(args) -> int:
    threads = _threads(args)
    config = read_config(args.config)
    scenario = config.sweep_scenario()
    # each flag given wins over its own [sweep] key
    section = config.sweep or {}
    axis = args.axis or section.get("axis")
    values = section.get("values") if args.values is None else parse_values(args.values, "values")
    architectures = section.get("architectures") if args.architectures is None else parse_names(args.architectures)
    if axis is None or values is None:
        raise ConfigError("sweep needs --axis and --values, as flags or in a [sweep] config section", key="sweep")
    spec = SweepSpec(axis=axis, values=values, architectures=architectures or tuple(ARCHITECTURE_VARIANTS))
    result = run_sweep(spec, scenario, threads=threads)
    _write(render(result, args.format), args.out)
    return 0


def _provenance(args) -> dict:
    """Seed, replication count and versions: the oracle's bits rest on numpy's RNG and scipy's KD-tree."""
    return {
        "seed": args.seed,
        "reps": args.reps,
        "tool_version": TOOL_VERSION,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }


def cmd_simulate(args) -> int:
    threads = _threads(args)
    seed = _seed(args)
    scenario = _load(args)
    window = Window(args.window, args.window, wrap=not args.no_wrap)
    # the estimate first: it refuses a scenario the oracle cannot check before anything is written
    est = estimate_mean_dc_cost(scenario, window, args.reps, seed, threads=threads)
    if args.dump_realization is not None:
        real = simulate_realization(scenario, window, seed)
        with open(args.dump_realization, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["layer", "x", "y", "parent_index", "subtree_count"])
            for row in realization_rows(real):
                writer.writerow([row[0], f"{row[1]:.6g}", f"{row[2]:.6g}", row[3], row[4]])
    payload = {
        "scenario_hash": scenario_hash(scenario),
        "window_km": [window.width, window.height],
        "n_reps": est.n_reps,
        "n_discarded": est.n_discarded,
        "mean_per_data_center": est.mean,
        "std_error": est.std_error,
        "per_term_means": est.per_term_means,
        "per_term_std_errors": est.per_term_std_errors,
        **_provenance(args),
    }
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    threads = _threads(args)
    seed = _seed(args)
    scenario = _load(args)
    window = Window(args.window, args.window, wrap=not args.no_wrap)
    report = compare_to_closed_form(scenario, window, args.reps, seed, threads=threads)
    payload = {
        "scenario_hash": scenario_hash(scenario),
        "passed": report.passed,
        "threshold": report.threshold,
        "discard_rate": report.estimate.discard_rate,
        "window_note": report.window_note,
        "rows": report.rows(),
        **_provenance(args),
    }
    if args.format == "json":
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        buf = ["term,closed_form,empirical,std_error,z,pass"]
        for row in report.rows():
            buf.append(
                f"{row['term']},{row['closed_form']:.6g},{row['empirical']:.6g},"
                f"{row['std_error']:.6g},{row['z']:.4g},{row['pass']}"
            )
        _write("\n".join(buf) + "\n", args.out)
    return 0


def cmd_complexity(args) -> int:
    seed = _seed(args)
    settings = read_config(args.config).complexity
    pool_sizes = parse_values(args.pool_sizes, "pool-sizes")
    if not all(n >= 1 and n == int(n) for n in pool_sizes):
        raise ConfigError(f"expected integers >= 1, got {args.pool_sizes!r}", key="pool-sizes")
    offsets = parse_values(args.offsets, "offsets")
    sampler = _sampler(args, settings)
    eps_comp = args.eps_comp if args.eps_comp is not None else settings.eps_comp
    n_mc = args.n_mc if args.n_mc is not None else settings.n_mc
    rows = pooling_table(offsets, pool_sizes, eps_comp, sampler, settings.decoder, n_mc=n_mc, seed=seed)
    if args.format == "json":
        _write(json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n", args.out)
    else:
        cols = list(rows[0].keys())
        buf = [",".join(cols)]
        for row in rows:
            buf.append(",".join(f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]) for c in cols))
        _write("\n".join(buf) + "\n", args.out)
    return 0


def cmd_dimension(args) -> int:
    # the same check as the config's gamma_offset_db, so the same exit code
    if args.gamma_offset_db not in OFFSET_PRESETS:
        raise ConfigError(
            f"value {args.gamma_offset_db} must be one of {sorted(OFFSET_PRESETS)}", key="gamma-offset-db"
        )
    target = args.target if args.target is not None else spectral_efficiency_target(args.gamma_offset_db)
    lambda_1 = invert_for_bs_intensity(target, args.lambda0)
    payload = {
        "lambda0": args.lambda0,
        "gamma_offset_db": args.gamma_offset_db,
        "spectral_efficiency_target": target,
        "lambda1": lambda_1,
    }
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crancost",
        description="Deployment-cost analysis of centralized vs distributed radio access networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="one scenario -> cost breakdown")
    _add_options(p_eval, "config", "format")
    p_eval.add_argument("--architecture", choices=[a.value for a in Architecture], default=None)
    p_eval.add_argument("--dump-config", default=None, help="write the resolved scenario INI here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="cost along one axis")
    _add_options(p_sweep, "config", "format", "threads")
    p_sweep.add_argument("--axis", default=None, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", default=None, help="space- or comma-separated numbers")
    p_sweep.add_argument(
        "--architectures",
        default=None,
        help="comma-separated subset of " + ",".join(ARCHITECTURE_VARIANTS),
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo deployment estimate")
    _add_options(p_sim, "config", "seed", "reps", "threads", "window", "no-wrap")
    p_sim.add_argument("--dump-realization", default=None, help="CSV path for one realization's nodes")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="closed form vs Monte Carlo")
    _add_options(p_cmp, "config", "format", "seed", "reps", "threads", "window", "no-wrap")
    p_cmp.set_defaults(func=cmd_compare)

    p_cx = sub.add_parser("complexity", help="pooled vs distributed processing demand")
    _add_options(p_cx, "config", "format", "seed")
    p_cx.add_argument("--pool-sizes", default="1 2 5 10 20 50")
    p_cx.add_argument("--offsets", default=" ".join(f"{g:g}" for g in OFFSET_PRESETS))
    p_cx.add_argument(
        "--eps-comp", type=float, default=None,
        help=f"outage target (default from config, {ComplexitySettings.eps_comp})",
    )
    p_cx.add_argument(
        "--n-mc", type=int, default=None,
        help=f"Monte Carlo draws (default from config, {ComplexitySettings.n_mc})",
    )
    p_cx.add_argument("--sampler", default=None, help="override the configured SNR sampler")
    p_cx.add_argument("--sampler-params", default=None, help="JSON object of --sampler parameters")
    p_cx.set_defaults(func=cmd_complexity)

    p_dim = sub.add_parser("dimension", help="base-station intensity from the rate target")
    _add_options(p_dim)
    p_dim.add_argument("--lambda0", type=float, default=Scenario.lambda_0)
    p_dim.add_argument("--gamma-offset-db", type=float, default=0.0)
    p_dim.add_argument("--target", type=float, default=None, help="explicit bps/Hz target")
    p_dim.set_defaults(func=cmd_dimension)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrancostError as exc:
        sys.stderr.write(json.dumps({"error": exc.category, "message": str(exc)}) + "\n")
        return _EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 8


if __name__ == "__main__":
    sys.exit(main())
