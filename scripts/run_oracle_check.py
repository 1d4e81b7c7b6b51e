#!/usr/bin/env python3
"""Validate the closed-form breakdown against the Monte Carlo deployment oracle.

Runs the all-Poisson degenerate scenario and the full clustered default, and
prints the per-term z-score table for each. Exits 0 when both pass, 1 when
either prints FAIL, and a typed error's code (as through crancost) otherwise.
"""

import argparse
import sys
import time
from dataclasses import replace

from crancost.cli import exit_status
from crancost.config import default_scenario
from crancost.geometry import Window
from crancost.simulate import compare_to_closed_form


def run_case(name, scenario, window, reps, seed) -> bool:
    t0 = time.time()
    report = compare_to_closed_form(scenario, window, reps, seed)
    print(f"\n== {name} ({reps} replications, {time.time() - t0:.0f}s) ==")
    print(f"{'term':24s} {'closed form':>14s} {'empirical':>14s} {'std err':>10s} {'z':>7s}")
    for row in report.rows():
        print(
            f"{row['term']:24s} {row['closed_form']:14.2f} {row['empirical']:14.2f} "
            f"{row['std_error']:10.2f} {row['z']:+7.2f}"
        )
    print(f"verdict: {'PASS' if report.passed else 'FAIL'} (|z| <= {report.threshold})")
    print(report.window_note)
    return report.passed


def check_both(args) -> int:
    window = Window(args.window, args.window)
    degenerate = replace(
        default_scenario(), lambda_1c=10.0, lambda_1m=0.0, p_mw=1.0, lambda_2_mw=5.0
    )
    passed = [
        run_case("all-Poisson degenerate", degenerate, window, args.reps, args.seed),
        run_case("clustered default", default_scenario(), window, args.reps, args.seed + 1),
    ]
    return 0 if all(passed) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=float, default=10.0)
    # a typed error exits as it does through crancost: a JSON line on stderr and its exit code
    return exit_status(check_both, parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
