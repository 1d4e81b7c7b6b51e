"""Command-line entry point.

Subcommands:
  evaluate    one scenario -> cost breakdown
  sweep       cost along one axis for several architectures -> table
  simulate    Monte Carlo deployment estimate (optionally dump realizations)
  compare     closed form vs Monte Carlo, z-score per term
  complexity  pooled vs distributed processing-demand table over pool sizes
  dimension   base-station intensity from the rate target

Each subcommand takes only the shared options it reads. Each setting has
one source: a ``--config`` file holds the scenario and the model, and the
flags say what to run, how many draws or replications, and with how many
workers. The file is parsed once per command by ``config.read_config``,
which checks every section and builds the SNR sampler whatever the command
reads of it. evaluate's ``--architecture``, like sweep's
``--architectures``, picks the side of the comparison to run; it takes the
place of the config's before re-dimensioning. ``simulate`` and
``compare`` check ``--threads`` before they do anything else; a sweep runs
serially. The commands with ``--seed`` reject a negative seed as a config
error, as ``complexity`` does an ``--n-mc`` below 1; the experiment
scripts take those two flags through the same checks, :func:`check_seed`
and :func:`check_count`.
``dimension`` rejects a ``--gamma-offset-db`` with no preset as a config
error, as a config's ``gamma_offset_db`` is.

Every output goes through one writer: :func:`_emit` writes a command's
JSON payload, with the tool, numpy and scipy versions, or its CSV table
(:func:`_csv`), and :func:`_write` is the one place a file is opened for
writing. Every failure goes through :func:`exit_status`, which the
experiment scripts that call the library directly share: a typed error
becomes one JSON line on stderr and its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy

from .complexity import N_MC, pooling_table
from .config import (
    load_scenario,
    parse_names,
    parse_values,
    read_config,
    scenario_hash,
    scenario_to_config,
)
from .costs import Architecture, Scenario, datacenter_cost
from .dimensioning import OFFSET_PRESETS, invert_for_bs_intensity, spectral_efficiency_target
from .errors import ConfigError, CrancostError
from .geometry import Window
from .simulate import (
    STATION_FRACTION,
    USER_FRACTION,
    compare_to_closed_form,
    estimate_mean_dc_cost,
    realization_rows,
    simulate_realization,
)
from .sweeps import ARCHITECTURE_VARIANTS, SWEEP_AXES, SweepSpec, TOOL_VERSION, run_sweep, tabulate

_EXIT_CODES = {
    "config": 2,
    "parameter": 3,
    "numerical": 4,
    "assignment": 5,
    "sampler": 6,
    "estimation": 7,
    "internal": 1,
}


def check_count(raw, key: str) -> int:
    """``raw``, the value of the flag ``key``, as a whole number >= 1; anything else is a config error naming it."""
    try:
        value = float(raw)
    except ValueError:
        value = 0.0
    if not (value >= 1 and value.is_integer()):
        raise ConfigError(f"expected an integer >= 1, got {raw!r}", key=key)
    return int(value)


def check_seed(seed: int) -> int:
    """The --seed flag's value, which must be >= 0 to seed numpy's SeedSequence; else a config error."""
    if seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed}", key="seed")
    return seed


_SHARED_OPTIONS = {
    "config": {"default": None, "help": "scenario INI file"},
    "format": {"choices": ("csv", "json"), "default": "json"},
    "seed": {"type": int, "default": 0},
    "reps": {"type": int, "default": 2000},
    "threads": {"default": 1, "help": "worker count >= 1"},
    "window": {"type": float, "default": 10.0, "help": "square window side, km"},
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


def _csv(columns, rows) -> str:
    """The header, then one line per row: a float cell to 6 significant digits, any other cell ``str``."""
    return "".join(
        ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in line) + "\n" for line in (columns, *rows)
    )


def _emit(args, payload: dict, columns=(), rows=()) -> None:
    """The JSON payload, with the versions its bits rest on, or the CSV table, to --out or stdout.

    numpy's generators draw the oracle's and the outage Monte Carlo's
    samples, and scipy's KD-tree makes the oracle's assignments.
    """
    if getattr(args, "format", "json") == "json":
        versions = {"tool_version": TOOL_VERSION, "numpy_version": np.__version__, "scipy_version": scipy.__version__}
        _write(json.dumps({**payload, **versions}, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write(_csv(columns, rows), args.out)


def _load(args):
    # evaluate's --architecture replaces the config's before re-dimensioning
    mode = getattr(args, "architecture", None)
    return load_scenario(args.config, architecture=Architecture(mode) if mode else None)


def cmd_evaluate(args) -> int:
    scenario = _load(args)
    breakdown = datacenter_cost(scenario)
    totals = {"c_phi3": breakdown.c_phi3, "total_per_km2": breakdown.total_per_km2}
    payload = {
        "scenario_hash": scenario_hash(scenario),
        "architecture": scenario.architecture.value,
        "gamma_offset_db": scenario.gamma_offset_db,
        "lambda_3": scenario.lambda_3,
        "per_data_center": breakdown.as_dict(),
        **totals,
    }
    _emit(args, payload, ("term", "per_data_center"), {**breakdown.as_dict(), **totals}.items())
    if args.dump_config:
        _write(scenario_to_config(scenario), args.dump_config)
    return 0


def cmd_sweep(args) -> int:
    scenario = read_config(args.config).sweep_scenario()
    values, architectures = parse_values(args.values, "values"), parse_names(args.architectures, "architectures")
    spec = SweepSpec(axis=args.axis, values=values, architectures=architectures)
    _emit(args, *tabulate(run_sweep(spec, scenario)))
    return 0


def cmd_simulate(args) -> int:
    threads = check_count(args.threads, "threads")
    seed = check_seed(args.seed)
    scenario = _load(args)
    window = Window(args.window, args.window)
    # the estimate first, so a failed estimate writes no dump
    est = estimate_mean_dc_cost(scenario, window, args.reps, seed, threads=threads)
    if args.dump_realization is not None:
        rows = realization_rows(simulate_realization(scenario, window, seed))
        _write(_csv(("layer", "x", "y", "parent_index", "subtree_count"), rows), args.dump_realization)
    payload = {
        "scenario_hash": scenario_hash(scenario),
        "window_km": [window.width, window.height],
        "n_reps": est.n_reps,
        "n_discarded": est.n_discarded,
        "mean_per_data_center": est.mean,
        "std_error": est.std_error,
        "per_term_means": est.per_term_means,
        "per_term_std_errors": est.per_term_std_errors,
        "seed": seed,
        "reps": args.reps,
        "user_fraction": USER_FRACTION,
        "station_fraction": STATION_FRACTION,
    }
    _emit(args, payload)
    return 0


def cmd_compare(args) -> int:
    threads = check_count(args.threads, "threads")
    seed = check_seed(args.seed)
    scenario = _load(args)
    window = Window(args.window, args.window)
    report = compare_to_closed_form(scenario, window, args.reps, seed, threads=threads)
    payload = {
        "scenario_hash": scenario_hash(scenario),
        "window_km": [window.width, window.height],
        "passed": report.passed,
        "threshold": report.threshold,
        "discard_rate": report.estimate.discard_rate,
        "window_note": report.window_note,
        "rows": report.rows(),
        "seed": seed,
        "reps": args.reps,
        "user_fraction": USER_FRACTION,
        "station_fraction": STATION_FRACTION,
    }
    # z to 4 significant digits, as a text cell; no reps_to_1pct is an empty one
    rows = [
        {**row, "z": f"{row['z']:.4g}", "reps_to_1pct": "" if row["reps_to_1pct"] is None else row["reps_to_1pct"]}
        for row in payload["rows"]
    ]
    _emit(args, payload, tuple(rows[0]), [row.values() for row in rows])
    return 0


def cmd_complexity(args) -> int:
    seed = check_seed(args.seed)
    config = read_config(args.config)
    pool_sizes = parse_values(args.pool_sizes, "pool-sizes")
    if not all(n >= 1 and n == int(n) for n in pool_sizes):
        raise ConfigError(f"expected integers >= 1, got {args.pool_sizes!r}", key="pool-sizes")
    offsets = parse_values(args.offsets, "offsets")
    n_mc = check_count(args.n_mc, "n-mc")
    settings = config.complexity
    rows = pooling_table(offsets, pool_sizes, settings.eps_comp, config.sampler, settings.decoder, n_mc=n_mc, seed=seed)
    payload = {"rows": rows, "seed": seed, "n_mc": n_mc, "eps_comp": settings.eps_comp}
    _emit(args, payload, tuple(rows[0]), [row.values() for row in rows])
    return 0


def cmd_dimension(args) -> int:
    # the same check as the config's gamma_offset_db, so the same exit code
    if args.gamma_offset_db not in OFFSET_PRESETS:
        raise ConfigError(
            f"value {args.gamma_offset_db} must be one of {sorted(OFFSET_PRESETS)}", key="gamma-offset-db"
        )
    target = spectral_efficiency_target(args.gamma_offset_db)
    lambda_1 = invert_for_bs_intensity(target, args.lambda0)
    payload = {
        "lambda0": args.lambda0,
        "gamma_offset_db": args.gamma_offset_db,
        "spectral_efficiency_target": target,
        "lambda1": lambda_1,
    }
    _emit(args, payload)
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
    _add_options(p_sweep, "config", "format")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="space- or comma-separated numbers")
    p_sweep.add_argument(
        "--architectures",
        default=",".join(ARCHITECTURE_VARIANTS),
        help="comma-separated subset of " + ",".join(ARCHITECTURE_VARIANTS),
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo deployment estimate")
    _add_options(p_sim, "config", "seed", "reps", "threads", "window")
    p_sim.add_argument("--dump-realization", default=None, help="CSV path for one realization's nodes")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="closed form vs Monte Carlo")
    _add_options(p_cmp, "config", "format", "seed", "reps", "threads", "window")
    p_cmp.set_defaults(func=cmd_compare)

    p_cx = sub.add_parser("complexity", help="pooled vs distributed processing demand")
    _add_options(p_cx, "config", "format", "seed")
    p_cx.add_argument("--pool-sizes", default="1 2 5 10 20 50")
    p_cx.add_argument("--offsets", default=" ".join(f"{g:g}" for g in OFFSET_PRESETS))
    p_cx.add_argument("--n-mc", default=N_MC, help="outage Monte Carlo draws, an integer >= 1")
    p_cx.set_defaults(func=cmd_complexity)

    p_dim = sub.add_parser("dimension", help="base-station intensity from the rate target")
    _add_options(p_dim)
    p_dim.add_argument("--lambda0", type=float, default=Scenario.lambda_0)
    p_dim.add_argument("--gamma-offset-db", type=float, default=0.0)
    p_dim.set_defaults(func=cmd_dimension)

    return parser


def exit_status(func, *args) -> int:
    """``func(*args)``, or the exit code of the typed error it raises, reported as one JSON line on stderr.

    A :class:`CrancostError` exits with its category's code, an ``OSError`` with 8.
    """
    try:
        return func(*args)
    except CrancostError as exc:
        sys.stderr.write(json.dumps({"error": exc.category, "message": str(exc)}) + "\n")
        return _EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 8


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
