"""Energy-aware multi-UAV base station placement with elliptic cells."""

from .baseline import (
    CirclePackingConfig,
    PackingError,
    brute_force_optimum,
    circle_pack_deploy,
)
from .channel import (
    Beam,
    ENVIRONMENTS,
    Environment,
    RadioConfig,
    antenna_gain_db,
    avg_path_loss,
)
from .clustering import (
    AlgorithmTrace,
    Cluster,
    ClusterSet,
    ClusteringConfig,
    NoConvergenceError,
    ellipse_clustering,
    find_intersections,
    grow_to_k,
    select_k,
)
from .deployment import (
    AltitudeBounds,
    DeploymentPlan,
    PlanMetrics,
    UavDeployment,
    deploy,
    evaluate,
    optimal_altitude,
    required_power_dbm,
)
from .geometry import Ellipse, contains, edge_distance, mvee
from .scenario import (
    PcpConfig,
    Region,
    Scenario,
    ScenarioFormatError,
    generate_pcp,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"
