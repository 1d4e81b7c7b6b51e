"""Deployment-cost analysis of centralized vs distributed radio access networks.

Layers: users, base stations (macro clusters with Gaussian-scattered micros),
a mixed microwave/fiber backhaul, and data centers. Closed-form expected
costs per data center are validated term by term against a Monte Carlo
deployment simulator on a toroidal window.
"""

from .complexity import (
    DecoderParams,
    McsTable,
    ProcessingDemand,
    decoding_complexity,
    dran_equivalent_demand,
    outage_demand,
    processing_cost_rate,
    servers_required,
    snr_thresholds,
)
from .config import default_scenario, load_scenario, redimension
from .costs import (
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
from .dimensioning import (
    RadioParams,
    invert_for_bs_intensity,
    spatial_avg_rate,
)
from .geometry import (
    BackhaulDraw,
    BackhaulTech,
    MarkedBaseStationSet,
    Window,
    nearest_assign,
    sample_backhaul,
    sample_cluster_bs,
    sample_ppp,
)
from .simulate import (
    CostEstimate,
    DeploymentRealization,
    compare_to_closed_form,
    estimate_mean_dc_cost,
    simulate_realization,
)
from .spatial_stats import (
    ClusterParams,
    cluster_nn_moment,
    gaussian_disc_mass,
    j_function,
    nn_distance_cdf,
    ppp_contact_moment,
    void_probability,
)
from .sweeps import SweepResult, SweepSpec, run_sweep
from .sweeps import TOOL_VERSION as __version__
