"""Forward/backward power-utility simulation and term-structure engine."""

from .backward import (
    BackwardSpec,
    SyntheticSqrtGamma,
    VasicekGamma,
    backward_log_map,
    backward_optimal_paths,
    horizon_dependency_experiment,
    horizon_map,
    rate_integral_paths,
    solve_backward_vols,
)
from .brownian import BrownianBatch, sample_brownian
from .curves import (
    YieldCurve,
    curve_from_prices,
    gbm_consumption_paths,
    hjm_forward_rates,
    long_rate,
    marginal_zc_mc,
    pathwise_ramsey_report,
    ramsey_curve_mc,
    ramsey_flat_closed,
    zc_price_gaussian,
)
from .errors import ConfigError, ForwardYieldError, NumericalRangeError, SubspaceViolationError
from .forward import (
    ForwardPowerSpec,
    OptimalTriple,
    consistency_drift_test,
    first_order_check,
    hjb_residual,
    perturbed_kappa,
    reading_grid,
    representation_check,
    scaled_consumption,
    simulate_optimal,
)
from .grids import DeterministicFn, TimeGrid
from .market import MarketModel, state_price_paths, wealth_paths
from .rates import ConstantRate, RatePaths, VasicekRate, simulate_short_rate
from .stats import Estimate
from .subspace import SubspaceR
from .utility import PowerUtility

__version__ = "0.1.0"
