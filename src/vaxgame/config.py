"""Plain-text experiment configuration.

One experiment per file, INI-style section blocks:

    [experiment]
    id = fig1-left-fc
    layers = closed_form, ode, monte_carlo
    theta0 = 0.1
    psi0 = 0.01
    output_dir = out

    [params]
    lambda = 8.549
    r = 1.188
    nu = 0.904
    b = 0.322
    d = 0.1
    d_e = 0

    [policy]
    family = FC
    beta = 0.5

    [costs]          ; optional, needed by the ess layer
    c_v1 = 2.88
    c_v2 = 0.65
    c_v2_bar = 1.91
    c_I1 = 4.32/r    ; recovery-scaled form is accepted
    c_I2 = 0

    [sweep]          ; optional
    variable = beta
    values = 0.5:4.0:0.25      ; start:stop:step, or a comma list

    [mc]             ; optional overrides
    n0 = 40000
    max_steps = 2000000
    replications = 3
    seed = 20260809

Accepted keys; any other key, or any other section, is a ConfigError:

    [experiment]  id, layers, output_dir, theta0, psi0
    [params]      lambda, r, nu, b, d, d_e (all required)
    [policy]      family (required) and only the keys that family reads:
                  FC, FR and VFC1 read beta; VFC2 reads beta, gamma
                  (required) and theta_variant (1/0, true/false or yes/no,
                  any case); STATIC reads q; MUTANT reads base, p and eps
                  plus the keys of its base, to which it hands them (a beta
                  or gamma sweep then moves the base)
    [costs]       c_v1, c_v2, c_v2_bar, c_I1 (required), c_I2 (default 0)
    [sweep]       variable (one of beta, lambda, nu, r, b, d, d_e, gamma;
                  beta and gamma only where the policy, or a MUTANT's
                  base, reads them), values (required)
    [mc]          n0, max_steps, replications, seed, stride, tail_fraction
                  (n0 and stride must fit in 64 bits; max_steps and
                  n0 + max_steps, max_steps 50 * n0 by default, must lie
                  below 2**53)
    [ode]         horizon, rtol, atol, eta0 (eta0 > 0; the ode layer
                  records any other start eta as its error)

Layers are closed_form, ode, monte_carlo, ess and stability.  Values the
model does not admit (b <= d + d_e, a negative or non-finite beta, a
negative or non-finite cost, ``/r`` with r = 0, ...) are ConfigErrors as well, at every
sweep value too.

Grid syntax: ``a:b:step`` expands to a, a+step, ... up to b inclusive
(within rounding; finite, at most a million steps); a comma list is taken
verbatim and must not be empty.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import Optional

from .chain import _EXACT, _INT64
from .errors import ConfigError, DomainError, InvalidParams
from .ess import CostParams
from .harness import Experiment, Layer, McSettings, OdeSettings, SweepSpec, apply_sweep
from .params import ModelParams
from .policy import Family, Policy

_PARAM_KEYS = ("lambda", "r", "nu", "b", "d", "d_e")
_SWEEP_VARIABLES = ("beta", "lambda", "nu", "r", "b", "d", "d_e", "gamma")


def _parse_float(section, key, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _parse_int(section, key, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _parse_int64(section, key, raw: str) -> int:
    """An integer the chain kernel counts in: a signed 64-bit one."""
    value = _parse_int(section, key, raw)
    if not -_INT64 <= value < _INT64:
        raise ConfigError(f"[{section}] {key} = {raw!r} does not fit in 64 bits")
    return value


def _parse_count(section, key, raw: str) -> int:
    """An epoch count of the chain: below 2**53, where it is a double."""
    value = _parse_int64(section, key, raw)
    if value >= _EXACT:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not below 2**53")
    return value


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(section, key, raw: str) -> bool:
    try:
        return _BOOLEANS[raw.strip().lower()]
    except KeyError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not one of 1/0, true/false, yes/no"
        ) from exc


_MC_KEYS = {
    "n0": _parse_int64,
    "max_steps": _parse_count,
    "replications": _parse_int,
    "seed": _parse_int,
    "stride": _parse_int64,
    "tail_fraction": _parse_float,
}
_ODE_KEYS = {
    "horizon": _parse_float,
    "rtol": _parse_float,
    "atol": _parse_float,
    "eta0": _parse_float,
}
_START_KEYS = {"theta0": _parse_float, "psi0": _parse_float}
#: the sections and the keys each accepts; anything else is a ConfigError
_SECTION_KEYS = {
    "experiment": ("id", "layers", "output_dir", *_START_KEYS),
    "params": _PARAM_KEYS,
    "policy": ("family", "beta", "gamma", "theta_variant", "q", "base", "p", "eps"),
    "costs": ("c_v1", "c_v2", "c_v2_bar", "c_I1", "c_I2"),
    "sweep": ("variable", "values"),
    "mc": _MC_KEYS,
    "ode": _ODE_KEYS,
}
_MAX_GRID_POINTS = 1_000_000


def _parse_keys(parser, section, parsers) -> dict:
    """Parse the keys of ``parsers`` present in ``section``; absent keys keep their defaults."""
    if section not in parser:
        return {}
    raw = parser[section]
    return {key: parse(section, key, raw[key]) for key, parse in parsers.items() if key in raw}


def parse_grid(raw: str) -> list[float]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {raw!r} must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"could not parse grid {raw!r}") from exc
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(f"grid {raw!r} must be finite")
        if step <= 0 or stop < start:
            raise ConfigError(f"grid {raw!r} must increase")
        if (stop - start) / step > _MAX_GRID_POINTS:
            raise ConfigError(f"grid {raw!r} has more than {_MAX_GRID_POINTS} steps")
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12 * max(1.0, abs(stop)):
                break
            values.append(v)
            k += 1
        return values
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"could not parse grid {raw!r}") from exc
    if not values:
        raise ConfigError("grid has no values")
    return values


#: the [policy] keys each family reads besides ``family``; a MUTANT also
#: reads the keys of its base, and any other key is a ConfigError
_POLICY_KEYS = {
    Family.FC: ("beta",),
    Family.FR: ("beta",),
    Family.VFC1: ("beta",),
    Family.VFC2: ("beta", "gamma", "theta_variant"),
    Family.STATIC: ("q",),
    Family.MUTANT: ("base", "p", "eps"),
}


def _parse_family(raw: str) -> Family:
    try:
        return Family(raw.strip().upper())
    except ValueError as exc:
        raise ConfigError(f"unknown policy family {raw!r}") from exc


def _parse_policy(section: dict[str, str]) -> Policy:
    family_raw = section.get("family")
    if family_raw is None:
        raise ConfigError("[policy] family is required")
    family = _parse_family(family_raw)
    read = _POLICY_KEYS[family]
    if family is Family.MUTANT:
        base_raw = section.get("base")
        base_family = None if base_raw is None else _parse_family(base_raw)
        if base_family in (None, Family.MUTANT):
            raise ConfigError("[policy] MUTANT requires base=FC|FR|VFC1|VFC2|STATIC")
        base_keys = _POLICY_KEYS[base_family]
        read += base_keys
    unread = [key for key in section if key != "family" and key not in read]
    if unread:
        raise ConfigError(
            f"[policy] unknown keys: {', '.join(unread)} (not read by {family.value})"
        )
    if family is Family.STATIC:
        return Policy(Family.STATIC, static_q=_parse_float("policy", "q", section.get("q", "0")))
    beta = _parse_float("policy", "beta", section.get("beta", "0"))
    if family is Family.VFC2:
        if "gamma" not in section:
            raise ConfigError("[policy] VFC2 requires an explicit gamma")
        gamma = _parse_float("policy", "gamma", section["gamma"])
        theta_variant = _parse_bool(
            "policy", "theta_variant", section.get("theta_variant", "false")
        )
        return Policy(Family.VFC2, beta=beta, gamma=gamma, theta_variant=theta_variant)
    if family is Family.MUTANT:
        base = _parse_policy(
            {"family": base_raw, **{key: section[key] for key in base_keys if key in section}}
        )
        return Policy(
            Family.MUTANT,
            mutant_base=base,
            mutant_p=_parse_float("policy", "p", section.get("p", "0")),
            mutant_eps=_parse_float("policy", "eps", section.get("eps", "0")),
        )
    return Policy(family, beta=beta)


def _parse_costs(section: dict[str, str], params: ModelParams) -> CostParams:
    def cost(key: str, default: Optional[str] = None) -> float:
        raw = section.get(key, default)
        if raw is None:
            raise ConfigError(f"[costs] {key} is required")
        raw = raw.strip()
        if raw.endswith("/r"):  # recovery-scaled cost, e.g. 4.32/r
            if params.r == 0.0:
                raise ConfigError(f"[costs] {key} = {raw!r} divides by r = 0")
            return _parse_float("costs", key, raw[:-2]) / params.r
        return _parse_float("costs", key, raw)

    return CostParams(
        c_v1=cost("c_v1"),
        c_v2=cost("c_v2"),
        c_v2_bar=cost("c_v2_bar"),
        c_I1=cost("c_I1"),
        c_I2=cost("c_I2", "0"),
    )


def load_experiment(path) -> Experiment:
    """Parse a config file into an Experiment; raise ConfigError on problems.

    Inadmissible parameter, policy or cost values are ConfigErrors too.
    """
    try:
        return _load_experiment(Path(path))
    except (InvalidParams, DomainError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_experiment(path: Path) -> Experiment:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = [k for k in parser[section] if k not in _SECTION_KEYS[section]]
        if unknown:
            raise ConfigError(f"[{section}] unknown keys: {', '.join(unknown)}")

    if "params" not in parser:
        raise ConfigError("[params] section is required")
    raw_params = dict(parser["params"])
    missing = [k for k in _PARAM_KEYS if k not in raw_params]
    if missing:
        raise ConfigError(f"[params] missing keys: {', '.join(missing)}")
    params = ModelParams(
        lam=_parse_float("params", "lambda", raw_params["lambda"]),
        r=_parse_float("params", "r", raw_params["r"]),
        nu=_parse_float("params", "nu", raw_params["nu"]),
        b=_parse_float("params", "b", raw_params["b"]),
        d=_parse_float("params", "d", raw_params["d"]),
        d_e=_parse_float("params", "d_e", raw_params["d_e"]),
    )

    if "policy" not in parser:
        raise ConfigError("[policy] section is required")
    policy = _parse_policy(dict(parser["policy"]))

    exp_section = dict(parser["experiment"]) if "experiment" in parser else {}
    exp_id = exp_section.get("id", path.stem)
    layer_raw = exp_section.get("layers", "closed_form")
    layers = set()
    for token in layer_raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            layers.add(Layer(token.lower()))
        except ValueError as exc:
            raise ConfigError(f"unknown layer {token!r}") from exc

    costs = None
    if "costs" in parser:
        costs = _parse_costs(dict(parser["costs"]), params)
    if Layer.ESS in layers and costs is None:
        raise ConfigError("the ess layer requires a [costs] section")

    sweep = None
    if "sweep" in parser:
        sw = dict(parser["sweep"])
        variable = sw.get("variable", "").strip()
        if variable not in _SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep variable must be one of {_SWEEP_VARIABLES}, got {variable!r}"
            )
        base = policy.mutant_base or policy  # a mutant hands beta and gamma to its base
        if variable in ("beta", "gamma") and variable not in _POLICY_KEYS[base.family]:
            raise ConfigError(f"[sweep] variable = {variable} is not read by {base.family.value}")
        if "values" not in sw:
            raise ConfigError("[sweep] values is required")
        sweep = SweepSpec(variable=variable, values=tuple(parse_grid(sw["values"])))
        for value in sweep.values:  # every point must be admissible, like the base values
            apply_sweep(params, policy, variable, value)

    mc = McSettings(**_parse_keys(parser, "mc", _MC_KEYS))
    if mc.n0 + mc.resolved_max_steps >= _EXACT:  # the chain's counts are doubles
        raise ConfigError(
            f"[mc] n0 + max_steps = {mc.n0 + mc.resolved_max_steps} is not below 2**53"
        )
    return Experiment(
        id=exp_id,
        params=params,
        policy=policy,
        costs=costs,
        sweep=sweep,
        layers=frozenset(layers),
        mc=mc,
        ode=OdeSettings(**_parse_keys(parser, "ode", _ODE_KEYS)),
        **_parse_keys(parser, "experiment", _START_KEYS),
        output_dir=Path(exp_section.get("output_dir", "out")),
    )
