"""crancost benchmark: seeded workloads over the closed-form sweeps, the oracle and the pooling table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of sweep_cold, sweep_shared,
oracle, pooling, or ``all`` for each in turn. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports its per-layer
metrics from a traced run. The last line of output is one JSON object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep_cold", "sweep_shared", "oracle", "pooling")
SETUP_PROBES = 4  # fresh interpreters that only set up, besides the measuring one
BUDGET_S = 170.0  # every run ends within this, checks included


def _git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit(f"out of time before the {mode} run of {workload}")
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{mode} run of {workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _provenance(workload: str, seed: int, result: dict) -> str:
    fields = {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(ROOT),
        "python": platform.python_version(),
        **result["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def run_one(workload: str, seed: int, seconds: float, trace: bool, declared) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if trace:
        result = _worker(workload, seed, seconds, "trace", deadline)
        values = result.get("layers", {})  # absent when a pass had no successful repetition
        units = declared["per_layer"]
    else:
        setups = [_worker(workload, seed, seconds, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = _worker(workload, seed, seconds, "measure", deadline)
        setups.append(result["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "items_per_ref_s": result["items_per_ref_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = declared["end_to_end"]
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"no value for declared metrics {sorted(missing)}")

    print(_provenance(workload, seed, result))
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:14.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':48s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    if trace:
        print(f"{'waiting, every layer':48s} {'n/a':>14s} (one serial process: no layer waits on another)")
    else:
        print(f"{'items_per_s':48s} {result['items_per_s']:14.6g} 1/s (wall clock, not rescaled)")
    if "s_to_1pct_se" in result:
        print(f"{'s_to_1pct_se':48s} {result['s_to_1pct_se']:14.6g} s")
    print(f"# {result['reps']} repetitions, {result['seconds']:.3f} s timed")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "crancost" / "__init__.py").is_file():
        raise SystemExit(f"no crancost sources under {ROOT / 'src'}; run from a checkout of the repository")

    declared = _declared_metrics()
    for workload in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        summary = run_one(workload, args.seed, args.seconds, bool(args.trace), declared)
        print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
