"""Closed-form expected deployment cost per data center and network total.

The expected cost of one data center decomposes into equipment, capacity,
infrastructure and processing terms across the layer pairs. Distance-scaled
terms reduce to Gamma-function contact moments against the Poisson layers and
to numeric nearest-distance moments against the clustered base-station layer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ParameterError
from .spatial_stats import ClusterParams, cluster_nn_moment, ppp_contact_moment

__all__ = [
    "USER_BS_DISTANCES",
    "C2_CONVENTIONS",
    "Architecture",
    "EquipmentCosts",
    "LinkCost",
    "LinkCostParams",
    "Scenario",
    "CostBreakdown",
    "COST_TERMS",
    "equipment_cost_bs",
    "equipment_cost_backhaul",
    "datacenter_cost",
]


#: the accepted values of ``Scenario.user_bs_distance`` and ``Scenario.c2_convention``
USER_BS_DISTANCES = ("contact", "palm")
C2_CONVENTIONS = ("literal", "normalized")


class Architecture(enum.Enum):
    DRAN = "dran"
    CLOUD_RAN = "cloud_ran"


@dataclass(frozen=True)
class EquipmentCosts:
    """Per-device equipment prices in $.

    ``alpha`` scales the base-station prices in Cloud-RAN mode (centralized
    stations carry less hardware); distributed stations pay full price.
    ``c_dc`` applies only to Cloud-RAN deployments.
    """

    c_macro: float = 50000.0
    c_micro: float = 20000.0
    c_mw: float = 50000.0
    c_of: float = 5000.0
    c_dc: float = 40000.0
    alpha: float = 0.5

    def __post_init__(self):
        if min(self.c_macro, self.c_micro, self.c_mw, self.c_of, self.c_dc) < 0:
            raise ParameterError("equipment costs must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class LinkCost:
    """Distance-scaled link pricing: base * distance^exponent."""

    a: float  # capacity base, $
    beta: float  # capacity exponent
    b: float  # infrastructure base, $
    theta: float  # infrastructure exponent

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ParameterError("cost bases must be >= 0")
        if self.beta < 0 or self.theta < 0:
            raise ParameterError("cost exponents must be >= 0")


@dataclass(frozen=True)
class LinkCostParams:
    """Capacity/infrastructure pricing for the three adjacent layer pairs.

    The backhaul-facing pairs carry per-technology variants; the
    user/base-station pair does not depend on the backhaul technology.
    ``processing_base`` is the distance-independent per-user data-processing
    component of the backhaul/data-center capacity cost.
    """

    user_bs: LinkCost = LinkCost(a=5000.0, beta=4.0, b=10000.0, theta=2.0)
    bs_backhaul_mw: LinkCost = LinkCost(a=5000.0, beta=2.0, b=5000.0, theta=2.0)
    bs_backhaul_of: LinkCost = LinkCost(a=5000.0, beta=1.0, b=100000.0, theta=1.0)
    backhaul_dc_mw: LinkCost = LinkCost(a=5000.0, beta=2.0, b=10000.0, theta=2.0)
    backhaul_dc_of: LinkCost = LinkCost(a=5000.0, beta=1.0, b=100000.0, theta=1.0)
    processing_base: float = 0.0

    def __post_init__(self):
        if self.processing_base < 0:
            raise ParameterError("processing_base must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """Full parameter record for one cost evaluation.

    Intensities are per km^2. ``user_bs_distance`` picks the distance
    distribution for the user-to-base-station terms: ``"contact"`` measures
    from a random user location (exact for the Thomas process and what the
    deployment simulator reproduces), ``"palm"`` measures from a typical
    base station. ``c2_convention`` keeps the backhaul equipment constant in
    its literal intensity-weighted form (``"literal"``) or normalizes it to a
    per-node average (``"normalized"``).
    """

    lambda_0: float = 170.0
    lambda_1c: float = 10.0
    lambda_1m: float = 4.0
    sigma: float = math.sqrt(0.5)
    p_mw: float = 0.5
    lambda_2_mw: float = 20.0 / 3.0
    lambda_2_of: float = 10.0 / 3.0
    lambda_3: float = 3.0
    equipment: EquipmentCosts = EquipmentCosts()
    links: LinkCostParams = LinkCostParams()
    architecture: Architecture = Architecture.CLOUD_RAN
    gamma_offset_db: float = 0.0
    user_bs_distance: str = "contact"
    c2_convention: str = "literal"

    def __post_init__(self):
        if min(self.lambda_0, self.lambda_1c, self.lambda_1m, self.lambda_2_mw, self.lambda_2_of) < 0:
            raise ParameterError("intensities must be >= 0")
        if self.lambda_3 < 0:
            raise ParameterError("lambda_3 must be >= 0")
        if not 0.0 <= self.p_mw <= 1.0:
            raise ParameterError("p_mw must lie in [0, 1]")
        if self.sigma <= 0:
            raise ParameterError("sigma must be > 0")
        if self.user_bs_distance not in USER_BS_DISTANCES:
            raise ParameterError("user_bs_distance must be 'contact' or 'palm'")
        if self.c2_convention not in C2_CONVENTIONS:
            raise ParameterError("c2_convention must be 'literal' or 'normalized'")

    @property
    def lambda_1(self) -> float:
        return self.lambda_1c * (1.0 + self.lambda_1m)

    @property
    def lambda_2(self) -> float:
        return self.p_mw * self.lambda_2_mw + (1.0 - self.p_mw) * self.lambda_2_of

    @property
    def is_cloud(self) -> bool:
        return self.architecture is Architecture.CLOUD_RAN

    @property
    def c_macro_effective(self) -> float:
        return self.equipment.alpha * self.equipment.c_macro if self.is_cloud else self.equipment.c_macro

    @property
    def c_micro_effective(self) -> float:
        return self.equipment.alpha * self.equipment.c_micro if self.is_cloud else self.equipment.c_micro

    @property
    def c_dc_effective(self) -> float:
        # distributed deployments have no data-center equipment
        return self.equipment.c_dc if self.is_cloud else 0.0

    @property
    def cluster_cost(self) -> float:
        """Cost of one macro plus its expected micros."""
        return self.c_macro_effective + self.lambda_1m * self.c_micro_effective

    @property
    def c1(self) -> float:
        return equipment_cost_bs(self.c_macro_effective, self.c_micro_effective, self.lambda_1m)

    @property
    def c2(self) -> float:
        value = equipment_cost_backhaul(
            self.p_mw, self.lambda_2_mw, self.lambda_2_of, self.equipment.c_mw, self.equipment.c_of
        )
        if self.c2_convention == "normalized":
            return value / self.lambda_2
        return value

    @property
    def cluster_params(self) -> ClusterParams:
        return ClusterParams(self.lambda_1c, self.lambda_1m, self.sigma)


def equipment_cost_bs(c_macro: float, c_micro: float, lambda_1m: float) -> float:
    """Average equipment cost per base-station point.

    (c_macro + lambda_1m * c_micro) / (1 + lambda_1m): a cluster of one macro
    and lambda_1m expected micros, spread over its 1 + lambda_1m points.
    """
    if min(c_macro, c_micro, lambda_1m) < 0:
        raise ParameterError("inputs must be >= 0")
    return (c_macro + lambda_1m * c_micro) / (1.0 + lambda_1m)


def equipment_cost_backhaul(p: float, lambda_mw: float, lambda_of: float, c_mw: float, c_of: float) -> float:
    """Backhaul equipment constant, literal intensity-weighted form.

    p*lambda_mw*c_mw + (1-p)*lambda_of*c_of. The intensity factors make this
    currency times intensity rather than plain currency; the form is kept as
    is (a normalized per-node variant is available through the scenario's
    ``c2_convention``).
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    return p * lambda_mw * c_mw + (1.0 - p) * lambda_of * c_of


COST_TERMS = (
    "equipment_backhaul",
    "processing",
    "capacity_dc",
    "infra_dc",
    "equipment_bs",
    "capacity_bs_backhaul",
    "infra_bs_backhaul",
    "capacity_user_bs",
    "infra_user_bs",
)


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Expected cost of one data center, term by term, in $.

    The nine named terms sum to ``c_phi3``; ``total_per_km2`` is
    lambda_3 * (c_dc + c_phi3).
    """

    equipment_backhaul: float
    processing: float
    capacity_dc: float
    infra_dc: float
    equipment_bs: float
    capacity_bs_backhaul: float
    infra_bs_backhaul: float
    capacity_user_bs: float
    infra_user_bs: float
    c_phi3: float
    total_per_km2: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COST_TERMS}

    @property
    def equipment(self) -> float:
        return self.equipment_backhaul + self.equipment_bs

    @property
    def capacity(self) -> float:
        return self.capacity_dc + self.capacity_bs_backhaul + self.capacity_user_bs

    @property
    def infrastructure(self) -> float:
        return self.infra_dc + self.infra_bs_backhaul + self.infra_user_bs


def _tech_mixture(p: float, mw_value: float, of_value: float) -> float:
    return p * mw_value + (1.0 - p) * of_value


def datacenter_cost(scenario: Scenario) -> CostBreakdown:
    """Expected cost of deploying one data center, decomposed by term.

    Capacity terms between independent layers carry plain technology weights
    (p, 1-p): the per-transmission counts cancel the conditional backhaul
    intensity. The backhaul-to-data-center infrastructure term is charged per
    backhaul node, so its mixture is intensity-weighted
    (p*lambda_mw, (1-p)*lambda_of) / lambda_2, matching the mixed-process
    Palm weights and the per-realization simulation.
    """
    s = scenario
    if s.lambda_3 <= 0:
        raise ParameterError("lambda_3 must be > 0 for cost evaluation")
    if s.lambda_2_mw <= 0 or s.lambda_2_of <= 0:
        raise ParameterError("backhaul intensities must be > 0 for cost evaluation")
    if s.lambda_1c <= 0:
        raise ParameterError("lambda_1c must be > 0 for cost evaluation")
    if s.lambda_0 <= 0:
        raise ParameterError("lambda_0 must be > 0 for cost evaluation")

    links = s.links
    users_per_dc = s.lambda_0 / s.lambda_3
    bs_per_dc = s.lambda_1 / s.lambda_3

    equipment_backhaul = (s.lambda_2 / s.lambda_3) * s.c2
    processing = users_per_dc * links.processing_base

    capacity_dc = users_per_dc * _tech_mixture(
        s.p_mw,
        links.backhaul_dc_mw.a * ppp_contact_moment(links.backhaul_dc_mw.beta, s.lambda_3),
        links.backhaul_dc_of.a * ppp_contact_moment(links.backhaul_dc_of.beta, s.lambda_3),
    )
    # charged once per backhaul node: the realized technology's intensity
    # weights the mixture (Palm weights of the mixed process)
    infra_dc = (
        s.p_mw * s.lambda_2_mw * links.backhaul_dc_mw.b * ppp_contact_moment(links.backhaul_dc_mw.theta, s.lambda_3)
        + (1.0 - s.p_mw)
        * s.lambda_2_of
        * links.backhaul_dc_of.b
        * ppp_contact_moment(links.backhaul_dc_of.theta, s.lambda_3)
    ) / s.lambda_3

    equipment_bs = bs_per_dc * s.c1

    capacity_bs_backhaul = users_per_dc * _tech_mixture(
        s.p_mw,
        links.bs_backhaul_mw.a * ppp_contact_moment(links.bs_backhaul_mw.beta, s.lambda_2_mw),
        links.bs_backhaul_of.a * ppp_contact_moment(links.bs_backhaul_of.beta, s.lambda_2_of),
    )
    infra_bs_backhaul = bs_per_dc * _tech_mixture(
        s.p_mw,
        links.bs_backhaul_mw.b * ppp_contact_moment(links.bs_backhaul_mw.theta, s.lambda_2_mw),
        links.bs_backhaul_of.b * ppp_contact_moment(links.bs_backhaul_of.theta, s.lambda_2_of),
    )

    cluster = s.cluster_params
    capacity_user_bs = (
        users_per_dc
        * links.user_bs.a
        * cluster_nn_moment(links.user_bs.beta, cluster, distance=s.user_bs_distance)
        if links.user_bs.a > 0
        else 0.0
    )
    infra_user_bs = (
        users_per_dc
        * links.user_bs.b
        * cluster_nn_moment(links.user_bs.theta, cluster, distance=s.user_bs_distance)
        if links.user_bs.b > 0
        else 0.0
    )

    terms = (
        equipment_backhaul,
        processing,
        capacity_dc,
        infra_dc,
        equipment_bs,
        capacity_bs_backhaul,
        infra_bs_backhaul,
        capacity_user_bs,
        infra_user_bs,
    )
    # a plain sum is inf or nan where fsum would raise (inf - inf, intermediate overflow)
    c_phi3 = math.fsum(terms) if math.isfinite(sum(terms)) else math.inf
    total_per_km2 = s.lambda_3 * (s.c_dc_effective + c_phi3)
    if not math.isfinite(total_per_km2):
        bad = [name for name, value in zip(COST_TERMS, terms) if not math.isfinite(value)]
        raise ParameterError(f"cost per data center is not finite: {', '.join(bad) or 'the sum of its terms'}")
    return CostBreakdown(*terms, c_phi3=c_phi3, total_per_km2=total_per_km2)
