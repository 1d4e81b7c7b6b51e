#!/usr/bin/env python3
"""Tabulate pooled vs standalone processing demand over pool sizes and offsets.

Shows the computational-diversity gain: the per-station provision of a pooled
data center falls with the number of stations it serves, while standalone
provisioning stays flat.
"""

import argparse

from crancost.complexity import (
    DecoderParams,
    default_mcs_rates,
    dran_equivalent_demand,
    make_snr_sampler,
    outage_demand,
    servers_required,
    snr_thresholds,
)
from crancost.dimensioning import OFFSET_PRESETS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pool-sizes", type=int, nargs="+", default=[1, 2, 5, 10, 20, 50])
    parser.add_argument("--offsets", type=float, nargs="+", default=list(OFFSET_PRESETS))
    parser.add_argument("--n-mc", type=int, default=30000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'offset dB':>9s} {'N':>4s} {'pooled/N':>10s} {'alone/N':>10s} {'servers':>9s} {'gain':>6s}")
    for gamma in args.offsets:
        params = DecoderParams(gamma_offset_db=gamma)
        mcs = snr_thresholds(default_mcs_rates(), params)
        sampler = make_snr_sampler("nearest_bs", lambda_1=50.0)
        for n in args.pool_sizes:
            pooled = outage_demand(n, 0.1, sampler, mcs, params, n_mc=args.n_mc, seed=args.seed)
            alone = dran_equivalent_demand(n, 0.1, sampler, mcs, params, n_mc=args.n_mc, seed=args.seed)
            print(
                f"{gamma:9.1f} {n:4d} {pooled / n:10.3f} {alone / n:10.3f} "
                f"{servers_required(pooled).d_unit:9.3f} {alone / pooled:6.2f}x"
            )


if __name__ == "__main__":
    main()
