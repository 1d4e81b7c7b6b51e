"""Tests for the closed-form cost breakdown."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crancost.costs import (
    Architecture,
    CostBreakdown,
    EquipmentCosts,
    LinkCost,
    LinkCostParams,
    Scenario,
    datacenter_cost,
    equipment_cost_backhaul,
    equipment_cost_bs,
)
from crancost.errors import ParameterError

ZERO_LINKS = LinkCostParams(
    user_bs=LinkCost(0.0, 4.0, 0.0, 2.0),
    bs_backhaul_mw=LinkCost(0.0, 2.0, 0.0, 2.0),
    bs_backhaul_of=LinkCost(0.0, 1.0, 0.0, 1.0),
    backhaul_dc_mw=LinkCost(0.0, 2.0, 0.0, 2.0),
    backhaul_dc_of=LinkCost(0.0, 1.0, 0.0, 1.0),
    processing_base=0.0,
)

ZERO_EQUIPMENT = EquipmentCosts(c_macro=0.0, c_micro=0.0, c_mw=0.0, c_of=0.0, c_dc=0.0, alpha=0.5)


class TestEquipmentCostBs:
    def test_reference_distributed_values(self):
        assert equipment_cost_bs(50000.0, 20000.0, 4.0) == pytest.approx(26000.0)

    def test_reference_centralized_values(self):
        assert equipment_cost_bs(25000.0, 10000.0, 4.0) == pytest.approx(13000.0)

    def test_no_micros(self):
        assert equipment_cost_bs(50000.0, 123456.0, 0.0) == 50000.0


class TestEquipmentCostBackhaul:
    def test_degenerate_unit_intensity(self):
        assert equipment_cost_backhaul(1.0, 1.0, 7.0, 50000.0, 999.0) == pytest.approx(50000.0)

    def test_equal_mix(self):
        assert equipment_cost_backhaul(0.5, 5.0, 5.0, 50000.0, 5000.0) == pytest.approx(137500.0)

    def test_fiber_only(self):
        assert equipment_cost_backhaul(0.0, 123.0, 2.0, 50000.0, 5000.0) == pytest.approx(10000.0)


class TestDatacenterCost:
    def test_processing_only_collapse(self):
        # every base cost zero except the distance-free processing term:
        # c_phi3 = (lambda_0/lambda_3) * 653.54
        scen = Scenario(
            lambda_0=170.0,
            lambda_3=1.0,
            equipment=ZERO_EQUIPMENT,
            links=replace(ZERO_LINKS, processing_base=653.54),
        )
        b = datacenter_cost(scen)
        assert b.c_phi3 == pytest.approx(111101.8, abs=0.1)
        assert b.processing == b.c_phi3

    def test_all_costs_zero(self):
        scen = Scenario(equipment=ZERO_EQUIPMENT, links=ZERO_LINKS)
        b = datacenter_cost(scen)
        assert b.c_phi3 == 0.0
        assert b.total_per_km2 == 0.0

    def test_equipment_only_total(self):
        # zero per-data-center terms, data-center hardware only: 3 * 40000
        scen = Scenario(
            lambda_3=3.0,
            equipment=replace(ZERO_EQUIPMENT, c_dc=40000.0),
            links=ZERO_LINKS,
        )
        b = datacenter_cost(scen)
        assert b.c_phi3 == 0.0
        assert b.total_per_km2 == pytest.approx(120000.0)

    def test_breakdown_sums_to_c_phi3(self):
        b = datacenter_cost(Scenario())
        assert b.c_phi3 == pytest.approx(sum(b.as_dict().values()), rel=1e-9)

    def test_total_identity(self):
        scen = Scenario()
        b = datacenter_cost(scen)
        assert b.total_per_km2 == pytest.approx(
            scen.lambda_3 * (scen.equipment.c_dc + b.c_phi3), rel=1e-12
        )

    def test_capacity_with_zero_exponent_reduces_to_base_ratio(self):
        # beta = 0 makes the Gamma factor 1: term = (lambda_0/lambda_3) * A'
        links = replace(
            ZERO_LINKS,
            backhaul_dc_mw=LinkCost(5000.0, 0.0, 0.0, 2.0),
            backhaul_dc_of=LinkCost(5000.0, 0.0, 0.0, 1.0),
        )
        scen = Scenario(equipment=ZERO_EQUIPMENT, links=links)
        b = datacenter_cost(scen)
        assert b.capacity_dc == pytest.approx(scen.lambda_0 / scen.lambda_3 * 5000.0, rel=1e-12)

    def test_requires_positive_intensities(self):
        with pytest.raises(ParameterError):
            datacenter_cost(Scenario(lambda_3=0.0))

    def test_swap_mw_of_with_complementary_p(self):
        scen = Scenario(p_mw=0.3)
        swapped = replace(
            scen,
            p_mw=0.7,
            lambda_2_mw=scen.lambda_2_of,
            lambda_2_of=scen.lambda_2_mw,
            equipment=replace(scen.equipment, c_mw=scen.equipment.c_of, c_of=scen.equipment.c_mw),
            links=replace(
                scen.links,
                bs_backhaul_mw=scen.links.bs_backhaul_of,
                bs_backhaul_of=scen.links.bs_backhaul_mw,
                backhaul_dc_mw=scen.links.backhaul_dc_of,
                backhaul_dc_of=scen.links.backhaul_dc_mw,
            ),
        )
        assert datacenter_cost(scen).c_phi3 == pytest.approx(datacenter_cost(swapped).c_phi3, rel=1e-12)

    def test_dran_forces_zero_datacenter_equipment(self):
        scen = Scenario(architecture=Architecture.DRAN)
        b = datacenter_cost(scen)
        assert scen.c_dc_effective == 0.0
        assert b.total_per_km2 == pytest.approx(scen.lambda_3 * b.c_phi3, rel=1e-12)

    def test_alpha_scales_only_cloud_station_prices(self):
        cloud = Scenario(architecture=Architecture.CLOUD_RAN)
        dran = Scenario(architecture=Architecture.DRAN)
        assert cloud.c_macro_effective == pytest.approx(0.5 * dran.c_macro_effective)
        assert cloud.c_micro_effective == pytest.approx(0.5 * dran.c_micro_effective)

    def test_degree_one_homogeneity_in_currency_inputs(self):
        scen = Scenario(links=replace(LinkCostParams(), processing_base=653.54))
        base = datacenter_cost(scen).total_per_km2
        k = 2.0
        scaled = replace(
            scen,
            equipment=EquipmentCosts(
                c_macro=k * scen.equipment.c_macro,
                c_micro=k * scen.equipment.c_micro,
                c_mw=k * scen.equipment.c_mw,
                c_of=k * scen.equipment.c_of,
                c_dc=k * scen.equipment.c_dc,
                alpha=scen.equipment.alpha,
            ),
            links=LinkCostParams(
                user_bs=replace(scen.links.user_bs, a=k * scen.links.user_bs.a, b=k * scen.links.user_bs.b),
                bs_backhaul_mw=replace(
                    scen.links.bs_backhaul_mw, a=k * scen.links.bs_backhaul_mw.a, b=k * scen.links.bs_backhaul_mw.b
                ),
                bs_backhaul_of=replace(
                    scen.links.bs_backhaul_of, a=k * scen.links.bs_backhaul_of.a, b=k * scen.links.bs_backhaul_of.b
                ),
                backhaul_dc_mw=replace(
                    scen.links.backhaul_dc_mw, a=k * scen.links.backhaul_dc_mw.a, b=k * scen.links.backhaul_dc_mw.b
                ),
                backhaul_dc_of=replace(
                    scen.links.backhaul_dc_of, a=k * scen.links.backhaul_dc_of.a, b=k * scen.links.backhaul_dc_of.b
                ),
                processing_base=k * scen.links.processing_base,
            ),
        )
        assert datacenter_cost(scaled).total_per_km2 == pytest.approx(k * base, rel=1e-9)

    def test_nondecreasing_in_every_currency_input_and_alpha(self):
        scen = Scenario(links=replace(LinkCostParams(), processing_base=653.54))
        base = datacenter_cost(scen).total_per_km2

        bumps = []
        for attr in ("c_macro", "c_micro", "c_mw", "c_of", "c_dc", "alpha"):
            value = getattr(scen.equipment, attr)
            bumped = value * 1.1 if value > 0 else 0.1
            if attr == "alpha":
                bumped = min(1.0, value + 0.1)
            bumps.append(replace(scen, equipment=replace(scen.equipment, **{attr: bumped})))
        for link_field in (
            "user_bs",
            "bs_backhaul_mw",
            "bs_backhaul_of",
            "backhaul_dc_mw",
            "backhaul_dc_of",
        ):
            link = getattr(scen.links, link_field)
            bumps.append(
                replace(scen, links=replace(scen.links, **{link_field: replace(link, a=link.a * 1.1)}))
            )
            bumps.append(
                replace(scen, links=replace(scen.links, **{link_field: replace(link, b=link.b * 1.1)}))
            )
        bumps.append(
            replace(scen, links=replace(scen.links, processing_base=scen.links.processing_base * 1.1))
        )
        for bumped_scen in bumps:
            assert datacenter_cost(bumped_scen).total_per_km2 >= base - 1e-9

    def test_full_configuration_reference_band(self):
        """Cloud deployment at lambda_3 = 3 costs a few million $/km^2 and
        undercuts the distributed deployment."""
        from crancost.config import default_scenario

        cloud = datacenter_cost(default_scenario(architecture=Architecture.CLOUD_RAN)).total_per_km2
        dran = datacenter_cost(default_scenario(architecture=Architecture.DRAN)).total_per_km2
        assert 1e6 < cloud < 1e7
        assert cloud < dran

    def test_c2_convention_flag(self):
        literal = Scenario(c2_convention="literal")
        normalized = Scenario(c2_convention="normalized")
        assert normalized.c2 == pytest.approx(literal.c2 / literal.lambda_2, rel=1e-12)


class TestScenarioDerived:
    def test_layer_intensity_identities(self):
        scen = Scenario(lambda_1c=10.0, lambda_1m=4.0, p_mw=0.5, lambda_2_mw=20 / 3, lambda_2_of=10 / 3)
        assert scen.lambda_1 == pytest.approx(50.0)
        assert scen.lambda_2 == pytest.approx(5.0)

    def test_a_non_finite_cost_is_a_parameter_error(self):
        """At lambda_3 = 1e-300 the data-center contact moments overflow to inf."""
        with pytest.raises(ParameterError, match="capacity_dc, infra_dc"):
            datacenter_cost(Scenario(lambda_3=1e-300))

    def test_p_validation(self):
        with pytest.raises(ParameterError):
            Scenario(p_mw=1.5)

    def test_cluster_cost_charges_expected_micros(self):
        scen = Scenario(architecture=Architecture.DRAN, lambda_1m=4.0)
        assert scen.cluster_cost == pytest.approx(50000.0 + 4.0 * 20000.0)
        assert scen.lambda_1 * scen.c1 == pytest.approx(scen.lambda_1c * scen.cluster_cost, rel=1e-12)


NON_FINITE = (math.nan, math.inf, -math.inf)


def _numeric_fields(record) -> list[str]:
    return [f.name for f in fields(record) if f.type == "float"]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", _numeric_fields(Scenario))
def test_a_non_finite_scenario_field_is_a_parameter_error(name, value):
    with pytest.raises(ParameterError):
        Scenario(**{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", _numeric_fields(EquipmentCosts))
def test_a_non_finite_equipment_cost_is_a_parameter_error(name, value):
    with pytest.raises(ParameterError):
        EquipmentCosts(**{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", _numeric_fields(LinkCost))
def test_a_non_finite_link_cost_is_a_parameter_error(name, value):
    with pytest.raises(ParameterError):
        replace(LinkCost(a=1.0, beta=1.0, b=1.0, theta=1.0), **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", _numeric_fields(LinkCostParams))
def test_a_non_finite_link_cost_params_field_is_a_parameter_error(name, value):
    with pytest.raises(ParameterError):
        LinkCostParams(**{name: value})


def test_the_user_link_distance_is_a_constant_not_a_field():
    """Only the benchmark's reference check reads it; the config test proves it is not a field."""
    assert Scenario.user_bs_distance == "contact"
    with pytest.raises(TypeError):
        Scenario(user_bs_distance="contact")
