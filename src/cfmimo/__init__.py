"""Cell-free massive MIMO rate and cost-effectiveness simulator.

The package walks one pipeline: a scenario config fixes the deployment, a
drop places sites and users and draws large-scale fading, closed forms (or
Monte-Carlo moments for zero-forcing) turn that into per-user spectral
efficiencies, and a sweep crosses the rates with a deployment cost model.
A brute-force link-level oracle lives alongside to validate every closed
form it relies on.
"""

__version__ = "0.1.0"

from .scenario import ConfigError, ScenarioConfig, drop_seed, load_config
from .cost import CostModelError
from .propagation import fading_profile, place_topology
from .channel import NumericalError
from .uplink import UplinkPowerControl, per_user_rate, uplink_sinr_all
from .experiment import run_drop, sweep, write_metadata, write_records_csv

__all__ = [
    "__version__",
    "ConfigError", "CostModelError", "NumericalError",
    "ScenarioConfig", "drop_seed", "load_config",
    "fading_profile", "place_topology",
    "UplinkPowerControl", "per_user_rate", "uplink_sinr_all",
    "run_drop", "sweep", "write_metadata", "write_records_csv",
]
