"""Cell-free massive MIMO rate and cost-effectiveness simulator.

The package walks one pipeline: a scenario config fixes the deployment, a
drop places sites and users and draws large-scale fading, closed forms
(with zero-forcing moments from a deterministic equivalent, or Monte-Carlo
where it does not hold) turn that into per-user spectral efficiencies, and
a sweep crosses the rates with a deployment cost.
A brute-force link-level oracle lives alongside to validate every closed
form it relies on.

Costs are counted in units of the cost of one site, and a cost ratio is
the price of one antenna in those units: ``n_ap`` sites of ``n_t``
antennas cost ``n_ap * (1 + n_t * ratio)``.  Cost-effectiveness is the sum
rate in bit/s/Hz per cost unit.
"""

__version__ = "0.1.0"

from .scenario import ConfigError, ScenarioConfig, drop_seed, load_config
from .propagation import fading_profile, place_topology
from .channel import NumericalError
from .uplink import UplinkPowerControl, per_user_rate, uplink_sinr_all
from .experiment import run_drop, sweep, write_metadata, write_records_csv

__all__ = [
    "__version__",
    "ConfigError", "NumericalError",
    "ScenarioConfig", "drop_seed", "load_config",
    "fading_profile", "place_topology",
    "UplinkPowerControl", "per_user_rate", "uplink_sinr_all",
    "run_drop", "sweep", "write_metadata", "write_records_csv",
]
