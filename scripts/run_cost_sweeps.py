#!/usr/bin/env python3
"""Produce the plot-ready cost tables: every sweep axis, all architectures.

Writes one CSV per axis into the output directory (default ./results), each
through ``crancost sweep``.
"""

import argparse
import pathlib
import sys

from crancost.cli import main as crancost
from crancost.sweeps import ARCHITECTURE_VARIANTS

SWEEPS = {
    "lambda3": [0.5 * k for k in range(1, 13)],
    "alpha": [0.1 * k for k in range(11)],
    "lambda0": [100.0, 120.0, 150.0, 170.0, 200.0, 250.0, 300.0],
    "p": [0.1 * k for k in range(11)],
    "sigma2": [0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for axis, values in SWEEPS.items():
        target = out_dir / f"cost_vs_{axis}.csv"
        # repr writes each value so that it parses back to the same float
        argv = ["sweep", "--axis", axis, "--values", " ".join(map(repr, values)), "--format", "csv"]
        code = crancost([*argv, "--out", str(target)])
        if code:
            sys.exit(code)
        print(f"wrote {target} ({len(values) * len(ARCHITECTURE_VARIANTS)} rows)")


if __name__ == "__main__":
    main()
