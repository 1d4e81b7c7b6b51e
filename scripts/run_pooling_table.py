#!/usr/bin/env python3
"""Tabulate pooled vs standalone processing demand over pool sizes and offsets.

Shows the computational-diversity gain: the per-station provision of a pooled
data center falls with the number of stations it serves, while standalone
provisioning stays flat. The rows are those of ``crancost complexity`` at the
default ``[complexity]`` settings.
"""

import argparse
import sys

from crancost.cli import exit_status
from crancost.complexity import N_MC, pooling_table
from crancost.config import ConfigFile, read_config
from crancost.dimensioning import OFFSET_PRESETS


def print_table(args, config: ConfigFile) -> int:
    settings = config.complexity
    rows = pooling_table(
        args.offsets, args.pool_sizes, settings.eps_comp, config.sampler, settings.decoder,
        n_mc=args.n_mc, seed=args.seed,
    )
    print(f"{'offset dB':>9s} {'N':>4s} {'pooled/N':>10s} {'alone/N':>10s} {'servers':>9s} {'gain':>6s}")
    for row in rows:
        pooled, alone = row["pooled_per_station"], row["distributed_per_station"]
        print(
            f"{row['gamma_offset_db']:9.1f} {row['n_cloud']:4d} {pooled:10.3f} {alone:10.3f} "
            f"{row['pooled_servers']:9.3f} {alone / pooled:6.2f}x"
        )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pool-sizes", type=int, nargs="+", default=[1, 2, 5, 10, 20, 50])
    parser.add_argument("--offsets", type=float, nargs="+", default=list(OFFSET_PRESETS))
    parser.add_argument("--n-mc", type=int, default=N_MC)
    parser.add_argument("--seed", type=int, default=0)
    # a typed error exits as it does through crancost: a JSON line on stderr and its exit code
    return exit_status(print_table, parser.parse_args(), read_config())


if __name__ == "__main__":
    sys.exit(main())
