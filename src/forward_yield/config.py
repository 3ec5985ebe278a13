"""Experiment configuration: parsing, validation, and object construction.

Configs are nested mappings read from JSON or YAML.  Field names are part of
the output contract: market (dim, rate, eta_r, subspace), spec (forward or
backward parameters), simulation (horizon, n_steps, n_paths, seed,
inner_paths), output (tenors, path, format), ramsey, long_rate and davis.
load_config merges every config over DEFAULT_CONFIG, so the builders read
each key the defaults hold without a fallback of their own.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import yaml

from .backward import BackwardSpec, SyntheticSqrtGamma, VasicekGamma
from .errors import ConfigError
from .forward import ForwardPowerSpec
from .grids import DeterministicFn, TimeGrid
from .market import MarketModel
from .rates import ConstantRate, VasicekRate
from .subspace import SubspaceR

DEFAULT_CONFIG: dict[str, Any] = {
    "market": {
        "dim": 2,
        "rate": {"model": "vasicek", "a": 1.0, "b": 0.03, "sigma_r": 0.02, "r0": 0.03, "w_dir": [0.0, 1.0]},
        "eta_r": [0.15, 0.0],
        "subspace": {"basis": [[1.0, 0.0]]},
    },
    "spec": {
        "alpha": 0.5,
        "kappa_star": [0.3, 0.0],
        "nu_star": [0.0, 0.1],
        "psi_hat": 0.1,
        "t_horizon": 10.0,
        "t_horizons": [10.0, 50.0],
        "t_common": 5.0,
        "gamma": {"model": "vasicek_orthogonal", "a": 1.0, "sigma_r": 0.02},
    },
    "simulation": {
        "horizon": 10.0,
        "n_steps": 40,
        "n_paths": 100_000,
        "seed": 20240901,
        "inner_paths": 1024,
    },
    "output": {"tenors": [1.0, 2.0, 5.0, 10.0], "path": "out", "format": "csv"},
    "ramsey": {"beta": 0.01, "alpha": 0.5, "growth": 0.02, "sigma": 0.1, "tenors": [1.0, 2.0, 5.0, 10.0, 30.0]},
    "long_rate": {"l0": 0.03, "alpha_backward": 0.25, "t_max": 10.0, "probes": [50.0, 100.0, 200.0]},
    "davis": {"payoff": {"kind": "call_on_wealth", "strike": 0.9}, "maturity": 5.0},
}


def _fail(field: str, message: str, value=None) -> ConfigError:
    suffix = f", got {value!r}" if value is not None else ""
    return ConfigError(f"{field}: {message}{suffix}")


class _ConfigLoader(yaml.SafeLoader):
    """Safe YAML loader that also reads exponent floats without a dot, such
    as 1e-9, which the YAML 1.1 resolver leaves as strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"), list("-+0123456789")
)


def load_config(path: str | Path | None) -> dict[str, Any]:
    """Read a JSON/YAML config and merge it over the defaults."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return merged
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    try:
        if path.suffix.lower() == ".json":
            user = json.loads(text)
        else:
            user = yaml.load(text, Loader=_ConfigLoader)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON/YAML: {exc}") from exc
    if not isinstance(user, Mapping):
        raise ConfigError(f"config file {path} must contain a mapping at the top level")
    _deep_merge(merged, user)
    return merged


# keys that a builder reads but DEFAULT_CONFIG leaves out, by block: the rate
# of a constant short rate, the synthetic_sqrt gamma's loadings, and the as-of
# date of a nested forward curve
_OPTIONAL_KEYS = {"market.rate": {"r"}, "spec.gamma": {"c_r", "c_perp"}, "output": {"asof"}}
_TABLE_KEYS = {"times", "values"}


def _deep_merge(base: dict, extra: Mapping, prefix: str = "") -> None:
    """Merge extra into base; where base holds a block, extra must too.  A key
    that neither base nor _OPTIONAL_KEYS knows fails with its dotted path, as
    does a key of a {times, values} table other than those two."""
    for key, value in extra.items():
        field = f"{prefix}{key}"
        if key not in base and key not in _OPTIONAL_KEYS.get(prefix[:-1], ()):
            raise _fail(field, "is not a configuration key")
        if isinstance(base.get(key), dict):
            if not isinstance(value, Mapping):
                raise _fail(field, "must be a mapping", value)
            _deep_merge(base[key], value, f"{field}.")
        elif isinstance(value, Mapping) and not value.keys() <= _TABLE_KEYS:
            unknown = min(str(k) for k in value.keys() - _TABLE_KEYS)
            raise _fail(f"{field}.{unknown}", "is not a table key; a table has 'times' and 'values'")
        else:
            base[key] = copy.deepcopy(value)


def config_hash(cfg: Mapping[str, Any]) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# block validation and object construction


def _require(cfg: Mapping, field: str):
    node: Any = cfg
    for part in field.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise _fail(field, "required field is missing")
        node = node[part]
    return node


def _positive_number(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value < math.inf:
        raise _fail(field, "must be a positive real", value)
    return float(value)


def _nonnegative_number(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 <= value < math.inf:
        raise _fail(field, "must be a nonnegative real", value)
    return float(value)


def _finite_number(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise _fail(field, "must be a finite real", value)
    return float(value)


def _alpha(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 < value < 1.0:
        raise _fail(field, "must lie in the open interval (0, 1)", value)
    return float(value)


def _vector(value, dim: int, field: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise _fail(field, f"must be a vector of {dim} reals", value)
    if v.shape != (dim,) or not np.all(np.isfinite(v)):
        raise _fail(field, f"must be a finite vector of length {dim}", value)
    return v


def time_function(value, dim: int | None, field: str) -> DeterministicFn:
    """Scalar/vector constants or {times, values} tables, per the config contract."""
    if isinstance(value, Mapping):
        if "times" not in value or "values" not in value:
            raise _fail(field, "table form needs 'times' and 'values'")
        try:
            return DeterministicFn.table(np.asarray(value["times"], dtype=float), np.asarray(value["values"], dtype=float))
        except ValueError as exc:
            raise _fail(field, str(exc))
    if dim is None:
        return DeterministicFn.constant(_finite_number(value, field))
    return DeterministicFn.constant(_vector(value, dim, field))


def grid_indices(grid: TimeGrid, times, field: str) -> list[int]:
    """Grid index of each time; an off-grid time fails with the field named."""
    try:
        return [grid.index_of(float(t)) for t in times]
    except (TypeError, ValueError) as exc:
        raise _fail(field, str(exc))


def build_grid(cfg: Mapping[str, Any]) -> TimeGrid:
    horizon = _positive_number(_require(cfg, "simulation.horizon"), "simulation.horizon")
    n_steps = _require(cfg, "simulation.n_steps")
    if not isinstance(n_steps, int) or isinstance(n_steps, bool) or n_steps < 1:
        raise _fail("simulation.n_steps", "must be a positive integer", n_steps)
    return TimeGrid(horizon, n_steps)


def simulation_params(cfg: Mapping[str, Any]) -> tuple[int, int, int]:
    n_paths = _require(cfg, "simulation.n_paths")
    # a standard error needs two paths
    if not isinstance(n_paths, int) or isinstance(n_paths, bool) or n_paths < 2:
        raise _fail("simulation.n_paths", "must be an integer >= 2", n_paths)
    seed = _require(cfg, "simulation.seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise _fail("simulation.seed", "must be an unsigned 64-bit integer", seed)
    inner = _require(cfg, "simulation.inner_paths")
    if not isinstance(inner, int) or isinstance(inner, bool) or inner < 2:
        raise _fail("simulation.inner_paths", "must be an integer >= 2", inner)
    return n_paths, seed, inner


def build_market(cfg: Mapping[str, Any]) -> MarketModel:
    dim = _require(cfg, "market.dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise _fail("market.dim", "must be a positive integer", dim)

    rate_cfg = _require(cfg, "market.rate")
    model = rate_cfg.get("model")
    if model == "constant":
        rate = ConstantRate(rate=_finite_number(_require(cfg, "market.rate.r"), "market.rate.r"))
    elif model == "vasicek":
        params = dict(
            a=_positive_number(_require(cfg, "market.rate.a"), "market.rate.a"),
            b=_finite_number(_require(cfg, "market.rate.b"), "market.rate.b"),
            sigma=_nonnegative_number(_require(cfg, "market.rate.sigma_r"), "market.rate.sigma_r"),
            r0=_finite_number(_require(cfg, "market.rate.r0"), "market.rate.r0"),
            w_dir=_vector(_require(cfg, "market.rate.w_dir"), dim, "market.rate.w_dir"),
        )
        try:
            rate = VasicekRate(**params)
        except ValueError as exc:
            # a and sigma_r are checked above, so the rate's own check can only
            # fail on the unit norm of w_dir
            raise _fail("market.rate.w_dir", str(exc), rate_cfg["w_dir"])
    else:
        raise _fail("market.rate.model", "must be 'constant' or 'vasicek'", model)

    basis = _require(cfg, "market.subspace.basis")
    try:
        # an empty basis is the trivial subspace
        subspace = SubspaceR(np.asarray(basis, dtype=float), dim)
    except ValueError as exc:
        raise _fail("market.subspace.basis", str(exc))

    eta = _subspace_function(_require(cfg, "market.eta_r"), subspace, "market.eta_r")
    return MarketModel(dim=dim, rate=rate, risk_premium=eta, subspace=subspace)


def _subspace_function(value, subspace: SubspaceR, field: str, complement: bool = False) -> DeterministicFn:
    """time_function of a vector coefficient that lies in the subspace, or in
    its orthogonal complement, at each of its knots."""
    fn = time_function(value, subspace.dim, field)
    try:
        values = fn.values(fn.times)
        inside = subspace.orthogonal_to(values) if complement else subspace.contains(values)
    except ValueError as exc:
        raise _fail(field, str(exc))
    if not inside:
        where = "the orthogonal complement of the admissible subspace" if complement else "the admissible subspace"
        raise _fail(field, f"must lie in {where}", value)
    return fn


def build_forward_spec(cfg: Mapping[str, Any], market: MarketModel) -> ForwardPowerSpec:
    alpha = _alpha(_require(cfg, "spec.alpha"), "spec.alpha")
    psi_cfg = _require(cfg, "spec.psi_hat")
    spec = ForwardPowerSpec(
        alpha=alpha,
        kappa_star=_subspace_function(_require(cfg, "spec.kappa_star"), market.subspace, "spec.kappa_star"),
        nu_star=_subspace_function(_require(cfg, "spec.nu_star"), market.subspace, "spec.nu_star", complement=True),
        psi_hat=time_function(psi_cfg, None, "spec.psi_hat"),
    )
    psi = spec.psi_hat(spec.psi_hat.times)
    if psi.ndim > 1 or not np.all((psi >= 0) & (psi < np.inf)):
        raise _fail("spec.psi_hat", "must be finite, nonnegative and scalar-valued", psi_cfg)
    return spec


def build_gamma(cfg: Mapping[str, Any], market: MarketModel):
    gamma_cfg = _require(cfg, "spec.gamma")
    model = gamma_cfg.get("model")
    if model not in ("vasicek_orthogonal", "synthetic_sqrt"):
        raise _fail("spec.gamma.model", "must be 'vasicek_orthogonal' or 'synthetic_sqrt'", model)
    basis = market.subspace.basis
    if model == "synthetic_sqrt" and basis.shape[0] == 0:
        raise _fail("spec.gamma", "synthetic_sqrt needs a nontrivial subspace")
    try:
        direction = market.subspace.complement_direction()
    except ValueError:
        raise _fail("spec.gamma", f"{model} needs a market with an unhedgeable direction")
    if model == "vasicek_orthogonal":
        return VasicekGamma(
            a=_positive_number(gamma_cfg.get("a"), "spec.gamma.a"),
            sigma_r=_nonnegative_number(gamma_cfg.get("sigma_r"), "spec.gamma.sigma_r"),
            direction=direction,
        )
    return SyntheticSqrtGamma(
        c_r=_nonnegative_number(gamma_cfg.get("c_r", 0.0), "spec.gamma.c_r"),
        c_perp=_nonnegative_number(gamma_cfg.get("c_perp", 0.0), "spec.gamma.c_perp"),
        dir_r=basis[0],
        dir_perp=direction,
    )


def build_backward_spec(cfg: Mapping[str, Any], market: MarketModel, t_horizon: float | None = None) -> BackwardSpec:
    alpha = _alpha(_require(cfg, "spec.alpha"), "spec.alpha")
    horizon = t_horizon if t_horizon is not None else _positive_number(_require(cfg, "spec.t_horizon"), "spec.t_horizon")
    return BackwardSpec(t_horizon=horizon, alpha=alpha, gamma=build_gamma(cfg, market), market=market)


def horizon_params(cfg: Mapping[str, Any]) -> tuple[list[float], float]:
    """Horizons of the horizon experiment and the common date they are compared at."""
    horizons = _require(cfg, "spec.t_horizons")
    if not isinstance(horizons, list) or len(horizons) < 2:
        raise _fail("spec.t_horizons", "need at least two horizons for the experiment")
    horizons = [_positive_number(t, "spec.t_horizons") for t in horizons]
    if len(set(horizons)) < len(horizons):
        raise _fail("spec.t_horizons", "must be distinct", horizons)
    t_common = _nonnegative_number(_require(cfg, "spec.t_common"), "spec.t_common")
    if t_common > min(horizons):
        raise _fail("spec.t_common", f"must not exceed the smallest horizon {min(horizons)}", t_common)
    return horizons, t_common


def tenor_list(tenors, field: str) -> list[float]:
    """Strictly increasing finite positive tenors."""
    if not isinstance(tenors, list) or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in tenors):
        raise _fail(field, "must be a list of positive reals", tenors)
    vals = [float(t) for t in tenors]
    if not vals or not all(0 < t < math.inf for t in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
        raise _fail(field, "must be strictly increasing positive reals", tenors)
    return vals


def output_params(cfg: Mapping[str, Any]) -> tuple[list[float], str, str, float]:
    """(tenors, path, format, asof): asof is the date of a nested curve, 0 for none."""
    vals = tenor_list(_require(cfg, "output.tenors"), "output.tenors")
    fmt = _require(cfg, "output.format")
    if fmt not in ("csv", "json"):
        raise _fail("output.format", "must be 'csv' or 'json'", fmt)
    out = str(_require(cfg, "output.path"))
    return vals, out, fmt, _nonnegative_number(cfg["output"].get("asof", 0.0), "output.asof")


def ramsey_params(cfg: Mapping[str, Any]) -> tuple[float, float, float, float, list[float]]:
    """(beta, alpha, growth, sigma, tenors) of the geometric-consumption economy."""
    beta = _finite_number(_require(cfg, "ramsey.beta"), "ramsey.beta")
    alpha = _alpha(_require(cfg, "ramsey.alpha"), "ramsey.alpha")
    growth = _finite_number(_require(cfg, "ramsey.growth"), "ramsey.growth")
    sigma = _nonnegative_number(_require(cfg, "ramsey.sigma"), "ramsey.sigma")
    tenors = tenor_list(_require(cfg, "ramsey.tenors"), "ramsey.tenors")
    return beta, alpha, growth, sigma, tenors


def long_rate_params(cfg: Mapping[str, Any]) -> tuple[float, float, float, float, list[float]]:
    """(l0, spec.alpha, alpha_backward, t_max, probes); every probe tenor lies
    beyond t_max, the last date the long rate is reported at."""
    l0 = _finite_number(_require(cfg, "long_rate.l0"), "long_rate.l0")
    alpha_fwd = _alpha(_require(cfg, "spec.alpha"), "spec.alpha")
    alpha_bwd = _alpha(_require(cfg, "long_rate.alpha_backward"), "long_rate.alpha_backward")
    t_max = _positive_number(_require(cfg, "long_rate.t_max"), "long_rate.t_max")
    probes = tenor_list(_require(cfg, "long_rate.probes"), "long_rate.probes")
    if probes[0] <= t_max:
        raise _fail("long_rate.probes", f"must all exceed long_rate.t_max={t_max:g}", probes)
    return l0, alpha_fwd, alpha_bwd, t_max, probes


def davis_params(cfg: Mapping[str, Any]) -> tuple[str, float, float]:
    """Payoff kind of the davis block, its strike ('unit' ignores it) and the maturity."""
    kind = _require(cfg, "davis.payoff.kind")
    if kind not in ("unit", "call_on_wealth"):
        raise _fail("davis.payoff.kind", "must be 'unit' or 'call_on_wealth'", kind)
    strike = _finite_number(_require(cfg, "davis.payoff.strike"), "davis.payoff.strike")
    return kind, strike, _nonnegative_number(_require(cfg, "davis.maturity"), "davis.maturity")
