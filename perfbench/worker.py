"""One benchmark process: import the package, build one workload's inputs, run it, check it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (only import and build inputs), ``measure`` (timed loop for
S seconds) or ``trace`` (a fixed untraced pass, then the same amount of work
with the layer wrappers installed). Prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: before numpy, scipy and crancost load

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Put the checkout's sources first on the path and refuse any other copy of the package."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import crancost

    if src not in Path(crancost.__file__).resolve().parents:
        raise SystemExit(f"crancost imported from {crancost.__file__}, not from {src}")


def _timed_reps(workload, reps, kernel):
    """Run each repetition between two passes of the calibration kernel.

    Returns [(inputs, output, seconds, speed factor)] of the repetitions that
    succeeded, the factor coming from the mean kernel time of the passes
    before and after, and the failure messages of the others.
    """
    from crancost.errors import CrancostError

    done, failures = [], []
    before = kernel.seconds()
    for inp in reps:
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except CrancostError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        after = kernel.seconds()
        done.append((inp, out, dt, kernel.rescale((before + after) / 2.0)))
        before = after
    return done, failures


def _measure(workload, seconds: float, kernel):
    """Repetitions 0, 1, ... until ``seconds`` have elapsed."""

    def reps():
        rep, start = 0, time.perf_counter()
        while rep == 0 or time.perf_counter() - start < seconds:
            yield workload.inputs(rep)
            rep += 1

    return _timed_reps(workload, reps(), kernel)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    _import_package()
    from calibrate import Kernel
    from spans import Tracer

    from workloads import WORKLOADS, Oracle, layer_metrics, rates, seconds_to_1pct_se

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    import numpy
    import scipy

    result = {"setup_s": setup_s, "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    kernel = Kernel(workload.kernel)
    if args.mode == "measure":
        done, failures = _measure(workload, args.seconds, kernel)
    else:
        n = workload.traced_reps
        untraced, failures = _timed_reps(workload, [workload.inputs(rep) for rep in range(n)], kernel)
        # inputs are built before the wrappers go in, so only the timed calls are traced
        traced_inputs = [workload.inputs(rep) for rep in range(n, 2 * n)]
        tracer = Tracer()
        with tracer.installed(workload.trace_plan()):
            traced, traced_failures = _timed_reps(workload, traced_inputs, kernel)
        failures += traced_failures
        done = untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # kB on Linux

    n_checks, check_failures = workload.check([(inp, out) for inp, out, _, _ in done]) if done else (0, [])
    seconds = sum(dt for _, _, dt, _ in done)
    wall, rescaled = rates(workload, done)
    result.update(
        {
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": statistics.median(wall) if done else 0.0,
            "items_per_ref_s": statistics.median(rescaled) if done else 0.0,
            "reps": len(done),
            "seconds": seconds,
            "attempted": len(done) + len(failures) + n_checks,
            "failed": len(failures) + len(check_failures),
            "failures": (failures + check_failures)[:20],
        }
    )
    if isinstance(workload, Oracle) and done and args.mode == "measure":
        result["s_to_1pct_se"] = seconds_to_1pct_se(seconds, [out for _, out, _, _ in done])
    if args.mode == "trace" and untraced and traced:
        result["layers"] = layer_metrics(tracer, workload, untraced, traced)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
