"""The four benchmark workloads: seeded inputs, the timed call, output checks, trace plan.

Every input is a pure function of (seed, repetition index), so a parent and a
change see identical inputs. The package is driven through its public
functions, always looked up on their module so that the traced pass can
wrap them, and always with ``threads=1``.
"""

from __future__ import annotations

import inspect
import math
import statistics
from dataclasses import replace

import numpy as np

from crancost import complexity, config, costs, simulate, spatial_stats, sweeps
from crancost.costs import COST_TERMS
from crancost.geometry import BackhaulDraw, Window

from reference import contact_moments

_INPUTS, _CHECKS = 0, 1


class Workload:
    """One input family: the timed call is :meth:`run` on :meth:`inputs` of a repetition."""

    name = ""
    traced_reps = 1  # repetitions per pass of a traced run, fixed so counts repeat
    kernel = ""  # kind of calibration kernel, see calibrate.py

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: int, rep: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOAD_IDS[self.name], stream, rep])

    def inputs(self, rep: int):
        raise NotImplementedError

    def items(self, inp) -> int:
        """Work items in one repetition: the unit of ``items_per_s``."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, done) -> tuple[int, list[str]]:
        """Check the outputs ``done`` = [(inputs, output)]; returns (checks made, failure messages)."""
        raise NotImplementedError

    def trace_plan(self) -> list:
        return common_trace_plan()


# ---------------------------------------------------------------------------
# closed-form sweeps

#: grids of scripts/run_cost_sweeps.py, fixed here so the workload does not
#: move when the script does
SHARED_GRIDS = {
    "lambda3": tuple(0.5 * k for k in range(1, 13)),
    "p": tuple(0.1 * k for k in range(11)),
    "alpha": tuple(0.1 * k for k in range(11)),
}
COLD_VARIANTS = ("dran", "cloud_ran@0.4db", "cloud_ran@0.9db")
COLD_RANGE = (0.1, 2.0)
REFERENCE_ROWS = 3  # rows per run whose user-link moments are checked against the reference
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _even_fraction(offset: float, rep: int) -> float:
    """frac(offset + rep * golden ratio): any run of repetitions covers [0, 1) evenly.

    With the offset drawn from the seed, the mix of inputs in a run, and with
    it the quadrature cost, is alike across seeds.
    """
    return math.fmod(offset + rep * _GOLDEN, 1.0)


class _Sweep(Workload):
    kernel = "quadrature"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.offset = self.rng(_INPUTS).random()

    def items(self, inp) -> int:
        return sum(len(spec.values) * len(spec.architectures) for spec, _ in inp)

    def run(self, inp):
        return [sweeps.run_sweep(spec, base, threads=1) for spec, base in inp]

    def check(self, done):
        failures, n_checks = [], 0
        rows = []
        for inp, results in done:
            for (spec, base), result in zip(inp, results):
                rows.extend((spec, base, row) for row in result.rows)
        for spec, base, row in rows:
            n_checks += 2
            if row.error is not None or row.breakdown is None:
                failures.append(f"{spec.axis}={row.value} {row.architecture}: {row.error}")
                continue
            b = row.breakdown
            if math.fsum(b.as_dict().values()) != b.c_phi3:
                failures.append(f"{spec.axis}={row.value} {row.architecture}: terms do not sum to c_phi3")
        picks = self.rng(_CHECKS).choice(len(rows), size=min(REFERENCE_ROWS, len(rows)), replace=False)
        for i in sorted(picks):
            n_checks += 1
            failures.extend(_check_user_link_moments(*rows[i]))
        return n_checks, failures


def _check_user_link_moments(spec, base, row) -> list[str]:
    """Both user-link moments of one row against the fixed-grid reference."""
    if row.breakdown is None:
        return []  # already counted as a failed row
    scen = sweeps.scenario_for_point(base, row.architecture, spec.axis, row.value)
    if scen.user_bs_distance != "contact":
        return [f"reference covers contact distances only, got {scen.user_bs_distance!r}"]
    quad = spatial_stats.DEFAULT_QUAD
    link = scen.links.user_bs
    users_per_dc = scen.lambda_0 / scen.lambda_3
    program = (
        row.breakdown.capacity_user_bs / (users_per_dc * link.a),
        row.breakdown.infra_user_bs / (users_per_dc * link.b),
    )
    reference = contact_moments(
        (link.beta, link.theta), scen.lambda_1c, scen.lambda_1m, scen.sigma, quad.max_radius_factor
    )
    return [
        f"{spec.axis}={row.value} {row.architecture}: E[R^{e:g}] {got!r} vs reference {want!r}"
        for e, got, want in zip((link.beta, link.theta), program, reference)
        if abs(got - want) > quad.rel_tol * abs(want)
    ]


class SweepCold(_Sweep):
    """sigma2 axis: every point is a new cluster-parameter set, so quadrature dominates."""

    name = "sweep_cold"
    traced_reps = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base = config.default_scenario()

    def inputs(self, rep: int):
        lo, hi = COLD_RANGE
        sigma2 = lo + (hi - lo) * _even_fraction(self.offset, rep)
        return [(sweeps.SweepSpec("sigma2", (sigma2,), COLD_VARIANTS), self.base)]


class SweepShared(_Sweep):
    """lambda3, p and alpha axes: three cluster-parameter sets per repetition, the rest cache hits."""

    name = "sweep_shared"
    traced_reps = 2

    def inputs(self, rep: int):
        # a fresh user intensity per repetition re-dimensions the station layer,
        # so no repetition finds its moments in the process-wide cache
        lambda_0 = 170.0 * (1.0 + 0.1 * (_even_fraction(self.offset, rep) - 0.5))
        base = config.default_scenario(lambda_0=lambda_0)
        return [(sweeps.SweepSpec(axis, values), base) for axis, values in SHARED_GRIDS.items()]


# ---------------------------------------------------------------------------
# Monte Carlo deployment oracle

ORACLE_WINDOW_KM = 10.0
ORACLE_CHUNK = 25  # replications per estimate call
ORACLE_MAX_Z = 5.0


def pooled_terms(estimates) -> tuple[dict[str, float], dict[str, float]]:
    """Per-term mean and standard error over the replications of several estimates."""
    n = np.array([e.n_reps for e in estimates], dtype=float)
    total = n.sum()
    means, ses = {}, {}
    for name in COST_TERMS:
        m = np.array([e.per_term_means[name] for e in estimates])
        var = np.array([e.per_term_std_errors[name] ** 2 * e.n_reps for e in estimates])
        mean = float(np.sum(n * m) / total)
        pooled_var = (np.sum((n - 1.0) * var) + np.sum(n * (m - mean) ** 2)) / (total - 1.0)
        means[name], ses[name] = mean, math.sqrt(pooled_var / total)
    return means, ses


def seconds_to_1pct_se(seconds: float, estimates) -> float:
    """Wall time scaled to the replications that resolve every term to 1% standard error."""
    means, ses = pooled_terms(estimates)
    worst = max(ses[k] / abs(means[k]) for k in COST_TERMS if means[k] != 0.0)
    return seconds * (worst / 0.01) ** 2


class Oracle(Workload):
    """Default clustered scenario on a 10 km torus: sampling and nearest-neighbour assignment."""

    name = "oracle"
    traced_reps = 8
    kernel = "kdtree"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenario = config.default_scenario()
        self.window = Window(ORACLE_WINDOW_KM, ORACLE_WINDOW_KM)

    def inputs(self, rep: int) -> int:
        return int(self.rng(_INPUTS, rep).integers(2**32))

    def items(self, inp) -> int:
        return ORACLE_CHUNK

    def run(self, master_seed: int):
        return simulate.estimate_mean_dc_cost(self.scenario, self.window, ORACLE_CHUNK, master_seed, threads=1)

    def check(self, done):
        failures = []
        estimates = [est for _, est in done]
        closed = costs.datacenter_cost(self.scenario).as_dict()
        means, ses = pooled_terms(estimates)
        for name in COST_TERMS:
            gap = means[name] - closed[name]
            z = gap / ses[name] if ses[name] > 0.0 else (0.0 if gap == 0.0 else math.inf)
            if not abs(z) <= ORACLE_MAX_Z:
                failures.append(f"{name}: z = {z:+.2f} against the closed form")
        master_seed, first = done[int(self.rng(_CHECKS).integers(len(done)))]
        again = self.run(master_seed)
        if (again.mean, again.per_term_means) != (first.mean, first.per_term_means):
            failures.append(f"master seed {master_seed}: means differ between two runs")
        return len(COST_TERMS) + 1, failures


# ---------------------------------------------------------------------------
# computational-pooling table

POOL_OFFSETS_DB = (0.0, 0.4, 0.9)
POOL_SIZES = (1, 2, 5, 10, 20, 50)
POOL_EPS_COMP = 0.1
POOL_N_MC = 20000
POOL_LAMBDA_1 = 50.0


class Pooling(Workload):
    """The CLI's complexity table: pooled vs standalone outage demand per offset and pool size."""

    name = "pooling"
    traced_reps = 4
    kernel = "arrays"

    def __init__(self, seed: int):
        super().__init__(seed)
        decoder = config.load_complexity_settings(text="").decoder
        self.tables = []
        for gamma in POOL_OFFSETS_DB:
            params = replace(decoder, gamma_offset_db=gamma)
            self.tables.append((params, complexity.snr_thresholds(complexity.default_mcs_rates(), params)))
        self.sampler = complexity.make_snr_sampler("nearest_bs", lambda_1=POOL_LAMBDA_1)

    def inputs(self, rep: int) -> int:
        return int(self.rng(_INPUTS, rep).integers(2**32))

    def items(self, inp) -> int:
        # SNR draws requested through outage_demand, standalone ones included
        return len(POOL_OFFSETS_DB) * POOL_N_MC * sum(n + 1 for n in POOL_SIZES)

    def run(self, mc_seed: int):
        rows = []
        for params, mcs in self.tables:
            for n in POOL_SIZES:
                args = (n, POOL_EPS_COMP, self.sampler, mcs, params)
                pooled = complexity.outage_demand(*args, n_mc=POOL_N_MC, seed=mc_seed)
                standalone = complexity.dran_equivalent_demand(*args, n_mc=POOL_N_MC, seed=mc_seed)
                rows.append((params.gamma_offset_db, n, pooled, standalone))
        return rows

    def check(self, done):
        # the tolerances of acceptance criterion 8
        failures, n_checks = [], 0
        for mc_seed, rows in done:
            for gamma in POOL_OFFSETS_DB:
                table = [r for r in rows if r[0] == gamma]
                per_station = [pooled / n for _, n, pooled, _ in table]
                for (_, n, _, _), a, b in zip(table[1:], per_station, per_station[1:]):
                    n_checks += 1
                    if not b <= a + 1e-12:
                        failures.append(f"seed {mc_seed} offset {gamma}: demand per station rises at N={n}")
                for _, n, pooled, standalone in table:
                    n_checks += 1
                    if not pooled <= standalone + 1e-9:
                        failures.append(f"seed {mc_seed} offset {gamma} N={n}: pooled exceeds standalone")
        return n_checks, failures

    def trace_plan(self):
        def count_samples(tr, args, kwargs, out):
            tr.counters["complexity.sampler.samples"] += len(out)

        return common_trace_plan() + [(self.sampler, "sample", "complexity.sampler", count_samples)]


WORKLOADS = {cls.name: cls for cls in (SweepCold, SweepShared, Oracle, Pooling)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


# ---------------------------------------------------------------------------
# what the traced pass wraps


def common_trace_plan() -> list:
    """(owner, attribute, span name, counter) for every layer boundary the benchmark traces.

    Each function is wrapped where its caller looks it up, e.g.
    ``costs.cluster_nn_moment`` for the calls made by ``datacenter_cost``.
    """
    outage_signature = inspect.signature(complexity.outage_demand)

    def count_moment_inputs(tr, args, kwargs, out):
        tr.distinct["spatial_stats.cluster_nn_moment"].add((args, tuple(sorted(kwargs.items()))))

    def count_sampled_points(tr, args, kwargs, out):
        points = out.nodes if isinstance(out, BackhaulDraw) else out
        tr.counters["geometry.sample.points"] += len(points)

    def count_query_points(tr, args, kwargs, out):
        tr.counters["geometry.nearest_assign.query_points"] += len(args[0])

    def count_replications(tr, args, kwargs, out):
        tr.counters["simulate.replications"] += out.n_reps + out.n_discarded
        tr.counters["simulate.discarded"] += out.n_discarded

    def count_requested_draws(tr, args, kwargs, out):
        bound = outage_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tr.counters["complexity.snr_draws.requested"] += bound.arguments["n_cloud"] * bound.arguments["n_mc"]

    return [
        (costs, "cluster_nn_moment", "spatial_stats.cluster_nn_moment", count_moment_inputs),
        (spatial_stats, "void_probability", "spatial_stats.void_probability", None),
        (spatial_stats, "gaussian_disc_mass", "spatial_stats.gaussian_disc_mass", None),
        (costs, "datacenter_cost", "costs.datacenter_cost", None),
        (sweeps, "run_sweep", "sweeps.run_sweep", None),
        (sweeps, "scenario_for_point", "sweeps.scenario_for_point", None),
        (sweeps, "derive_bs_intensity", "config.derive", None),
        (sweeps, "derive_processing_base", "config.derive", None),
        (sweeps, "scenario_hash", "config.derive", None),
        (config, "invert_for_bs_intensity", "dimensioning.invert_for_bs_intensity", None),
        (simulate, "estimate_mean_dc_cost", "simulate.estimate", count_replications),
        (simulate, "sample_ppp", "geometry.sample", count_sampled_points),
        (simulate, "sample_cluster_bs", "geometry.sample", count_sampled_points),
        (simulate, "sample_backhaul", "geometry.sample", count_sampled_points),
        (simulate, "price_layers", "simulate.price_layers", None),
        (simulate, "nearest_assign", "geometry.nearest_assign", count_query_points),
        (simulate, "assignment_distances", "geometry.assignment_distances", None),
        (complexity, "outage_demand", "complexity.outage_demand", count_requested_draws),
    ]


def rates(workload: Workload, done) -> tuple[list[float], list[float]]:
    """Items per second of each repetition in ``done`` = [(inputs, output, seconds, speed factor)].

    Returns the wall-clock rates and the same rates rescaled to the reference
    machine speed by the factor the calibration kernel measured around them.
    """
    wall = [workload.items(inp) / dt for inp, _, dt, _ in done]
    return wall, [r * factor for r, (_, _, _, factor) in zip(wall, done)]


def layer_metrics(tracer, workload: Workload, untraced, traced) -> dict[str, float]:
    """Per-layer values of a traced run; ``untraced``/``traced`` are as for :func:`rates`.

    Counts and ratios of layers a workload does not reach read 0.
    """
    calls, secs, self_s, ctr = tracer.calls, tracer.seconds, tracer.self_seconds, tracer.counters

    def rate(passes):
        return statistics.median(rates(workload, passes)[1])

    def ratio(num, den):
        return num / den if den else 0.0

    moment = "spatial_stats.cluster_nn_moment"
    distinct = len(tracer.distinct[moment])
    replications = ctr["simulate.replications"]
    s_to_1pct = 0.0
    if isinstance(workload, Oracle):
        s_to_1pct = seconds_to_1pct_se(sum(dt for _, _, dt, _ in untraced), [out for _, out, _, _ in untraced])
    return {
        f"{moment}.s": secs[moment],
        f"{moment}.calls": calls[moment],
        f"{moment}.distinct_inputs": distinct,
        f"{moment}.reuse_ratio": 1.0 - distinct / calls[moment] if calls[moment] else 0.0,
        "spatial_stats.void_probability.calls": calls["spatial_stats.void_probability"],
        "spatial_stats.void_probability.s": secs["spatial_stats.void_probability"],
        "spatial_stats.gaussian_disc_mass.calls": calls["spatial_stats.gaussian_disc_mass"],
        "spatial_stats.gaussian_disc_mass.s": secs["spatial_stats.gaussian_disc_mass"],
        "costs.datacenter_cost.self_s": self_s["costs.datacenter_cost"],
        "costs.datacenter_cost.calls": calls["costs.datacenter_cost"],
        "sweeps.scenario_for_point.s": secs["sweeps.scenario_for_point"],
        "sweeps.scenario_for_point.calls": calls["sweeps.scenario_for_point"],
        "sweeps.run_sweep.self_s": self_s["sweeps.run_sweep"],
        "config.derive.s": secs["config.derive"],
        "dimensioning.invert_for_bs_intensity.s": secs["dimensioning.invert_for_bs_intensity"],
        "geometry.sample.s": secs["geometry.sample"],
        "geometry.sample.points": ctr["geometry.sample.points"],
        "geometry.nearest_assign.s": secs["geometry.nearest_assign"],
        "geometry.nearest_assign.calls": calls["geometry.nearest_assign"],
        "geometry.nearest_assign.query_points": ctr["geometry.nearest_assign.query_points"],
        "geometry.assignment_distances.s": secs["geometry.assignment_distances"],
        "simulate.price_layers.self_s": self_s["simulate.price_layers"],
        "simulate.estimate.self_s": self_s["simulate.estimate"],
        "simulate.replications": replications,
        "simulate.discarded": ctr["simulate.discarded"],
        "simulate.kept_ratio": ratio(replications - ctr["simulate.discarded"], replications),
        "simulate.s_to_1pct_se": s_to_1pct,
        "complexity.outage_demand.s": secs["complexity.outage_demand"],
        "complexity.outage_demand.calls": calls["complexity.outage_demand"],
        "complexity.snr_draws.requested": ctr["complexity.snr_draws.requested"],
        "complexity.sampler.calls": calls["complexity.sampler"],
        "complexity.sampler.samples": ctr["complexity.sampler.samples"],
        "complexity.acceptance_ratio": ratio(
            ctr["complexity.snr_draws.requested"], ctr["complexity.sampler.samples"]
        ),
        "trace.overhead_ratio": rate(traced) / rate(untraced),
        "trace.wall_s": sum(dt for _, _, dt, _ in traced),
    }
