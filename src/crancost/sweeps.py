"""Parameter sweeps over the closed-form cost, and the sweep as a plot-ready table.

Every sweep point is re-dimensioned with :func:`crancost.config.redimension`
for its architecture variant, so a base scenario's station intensity and
processing cost never carry over between variants. :func:`tabulate` turns a
sweep into its JSON payload and its CSV columns and rows; the command line
writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import costs
# derive_* are not called here; perfbench's trace plan wraps them as attributes of this module
from .config import derive_bs_intensity, derive_processing_base, redimension, scenario_hash
from .costs import Architecture, CostBreakdown, Scenario
from .dimensioning import OFFSET_PRESETS
from .errors import CrancostError, ParameterError

__all__ = [
    "SWEEP_AXES",
    "ARCHITECTURE_VARIANTS",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "scenario_for_point",
    "run_sweep",
    "tabulate",
]

TOOL_VERSION = "0.1.0"  # also crancost.__version__ and the pyproject.toml version

SWEEP_AXES = ("lambda3", "alpha", "lambda0", "p", "sigma2")

#: architecture variants a sweep can trace: distributed, and centralized at
#: each supported link-adaptation offset
ARCHITECTURE_VARIANTS: dict[str, tuple[Architecture, float]] = {
    "dran": (Architecture.DRAN, 0.0),
    **{f"cloud_ran@{g:g}db": (Architecture.CLOUD_RAN, g) for g in OFFSET_PRESETS},
}


@dataclass(frozen=True)
class SweepSpec:
    """One axis, its values, and the architecture variants to trace."""

    axis: str
    values: tuple[float, ...]
    architectures: tuple[str, ...] = tuple(ARCHITECTURE_VARIANTS)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ParameterError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ParameterError("sweep values must be non-empty")
        if not self.architectures:
            raise ParameterError("sweep architectures must be non-empty")
        if any(not math.isfinite(v) for v in vals):
            raise ParameterError("sweep values must be finite")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ParameterError("sweep values must be sorted ascending")
        object.__setattr__(self, "values", vals)
        for name in self.architectures:
            if name not in ARCHITECTURE_VARIANTS:
                raise ParameterError(
                    f"unknown architecture variant {name!r}; available: {sorted(ARCHITECTURE_VARIANTS)}"
                )


@dataclass(slots=True)
class SweepRow:
    axis: str
    value: float
    architecture: str
    gamma_offset_db: float
    breakdown: CostBreakdown | None
    lambda_3: float = 0.0  # data-center intensity at this point (per-km^2 scale)
    error: str | None = None


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow]
    metadata: dict


def scenario_for_point(base: Scenario, variant: str, axis: str, value: float) -> Scenario:
    """Scenario at one sweep point.

    The lambda0 axis replaces the user intensity before re-dimensioning, so
    the station intensity and the processing cost follow it; the alpha axis
    rewrites the base-station cost scale; sigma2 rescales the cluster spread,
    and a sigma2 <= 0 is a :class:`ParameterError`; lambda3 and p are direct
    substitutions.
    """
    architecture, gamma = ARCHITECTURE_VARIANTS[variant]
    if axis == "lambda0":
        return redimension(replace(base, lambda_0=value), architecture, gamma)
    scen = redimension(base, architecture, gamma)
    if axis == "lambda3":
        return replace(scen, lambda_3=value)
    if axis == "alpha":
        return replace(scen, equipment=replace(scen.equipment, alpha=value))
    if axis == "p":
        return replace(scen, p_mw=value)
    if axis == "sigma2":
        if value <= 0:
            raise ParameterError(f"sigma2 must be > 0, got {value}")
        return replace(scen, sigma=math.sqrt(value))
    raise ParameterError(f"unknown axis {axis!r}")


def run_sweep(spec: SweepSpec, base: Scenario, threads: int = 1) -> SweepResult:
    """Evaluate the total cost at every (value, architecture) point, in one serial loop.

    Rows come out values outer, architectures inner. A row whose evaluation
    fails records the error and the sweep continues. ``threads`` must be 1.
    """
    # only perfbench passes threads (always 1); the next benchmark revision deletes it
    if threads != 1:
        raise ParameterError(f"a sweep runs serially; threads must be 1, got {threads!r}")
    rows = []
    for value in spec.values:
        for variant in spec.architectures:
            _, gamma = ARCHITECTURE_VARIANTS[variant]
            try:
                scen = scenario_for_point(base, variant, spec.axis, value)
                row = SweepRow(spec.axis, value, variant, gamma, costs.datacenter_cost(scen), lambda_3=scen.lambda_3)
            except CrancostError as exc:
                row = SweepRow(
                    spec.axis, value, variant, gamma, None, lambda_3=base.lambda_3,
                    error=f"{exc.category}: {exc}",
                )
            rows.append(row)

    metadata = {
        "tool_version": TOOL_VERSION,
        "axis": spec.axis,
        "architectures": list(spec.architectures),
        "base_scenario_hash": scenario_hash(base),
    }
    return SweepResult(spec=spec, rows=rows, metadata=metadata)


def _round(x: float) -> float:
    """``x`` to 6 significant digits, as the CSV writes it."""
    return float(f"{x:.6g}")


CSV_COLUMNS = (
    "axis",
    "value",
    "architecture",
    "gamma_offset_db",
    "total_per_km2",
    "equipment",
    "capacity",
    "infrastructure",
    "processing",
)


def _row_cells(row: SweepRow) -> list:
    cells = [row.axis, row.value, row.architecture, row.gamma_offset_db]
    if row.breakdown is None:
        return cells + [math.nan] * len(CSV_COLUMNS[4:])
    b = row.breakdown
    scale = row.lambda_3  # per-data-center terms -> per km^2
    return cells + [
        b.total_per_km2,
        # the data-center equipment share is the remainder of the total
        # over the per-data-center terms
        scale * b.equipment + (b.total_per_km2 - scale * b.c_phi3),
        scale * b.capacity,
        scale * b.infrastructure,
        scale * b.processing,
    ]


def tabulate(result: SweepResult) -> tuple[dict, tuple[str, ...], list[list]]:
    """The sweep as a JSON payload, and as CSV columns and rows.

    The CSV columns are fixed; grouped cost columns are per km^2 (so they sum
    to the total). The JSON mirrors the rows, its costs to 6 significant
    digits, and adds the metadata block. Rows that failed evaluate to nan
    cells in CSV and carry an "error" entry in JSON.
    """
    rows = []
    for row in result.rows:
        entry: dict = {
            "axis": row.axis,
            "value": row.value,
            "architecture": row.architecture,
            "gamma_offset_db": row.gamma_offset_db,
        }
        if row.breakdown is None:
            entry["error"] = row.error
        else:
            entry["total_per_km2"] = _round(row.breakdown.total_per_km2)
            entry["breakdown"] = {k: _round(v) for k, v in row.breakdown.as_dict().items()}
        rows.append(entry)
    payload = {"metadata": result.metadata, "rows": rows}
    return payload, CSV_COLUMNS, [_row_cells(row) for row in result.rows]
