"""Random parameter draws targeting each closed-form catalogue row.

Each sampler rejects until the drawn rates land strictly inside the row's
dispatch region (relative margin away from every boundary), so the
catalogue never reports MarginalRegime on these draws.  ``POLICIES`` is
the hypothesis strategy over policies of all six families, mutants of
every base family included, and ``PARAMS`` the one over admissible rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from vaxgame import Family, ModelParams, Policy, fc, fr, mutant, static, vfc1, vfc2

MARGIN = 0.05


@dataclass(frozen=True)
class RowDraw:
    params: ModelParams
    policy: Policy


def _base_params(rng: np.random.Generator, endemic: bool) -> ModelParams:
    for _ in range(1000):
        lam = float(np.exp(rng.uniform(np.log(0.5), np.log(20.0))))
        r = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        nu = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        b = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        d = float(rng.uniform(0.0, 0.8)) * b
        rho = lam / (r + b)
        if endemic and rho > 1.0 + MARGIN:
            return ModelParams(lam=lam, r=r, nu=nu, b=b, d=d)
        if not endemic and rho < 1.0 - MARGIN:
            return ModelParams(lam=lam, r=r, nu=nu, b=b, d=d)
    raise RuntimeError("rejection sampling failed for base parameters")


def _ratios(p: ModelParams) -> tuple[float, float]:
    return p.lam / (p.r + p.b), p.b / p.nu


def _inside(lo: float, hi: float, rng: np.random.Generator) -> float:
    # a point in (lo, hi) keeping MARGIN-relative distance from both ends
    span = hi - lo
    return lo + span * rng.uniform(MARGIN, 1.0 - MARGIN)


def _sample(
    rng: np.random.Generator,
    family: Family,
    endemic: bool,
    window: Callable[[float, float], tuple[float, float] | None],
    extra_ok: Callable[[float, float], bool] = lambda rho, mu: True,
) -> RowDraw:
    for _ in range(2000):
        params = _base_params(rng, endemic)
        rho, mu = _ratios(params)
        if not extra_ok(rho, mu):
            continue
        win = window(rho, mu)
        if win is None:
            continue
        lo, hi = win
        if not (hi > lo * (1.0 + 2 * MARGIN) or (lo == 0.0 and hi > 0.0)):
            continue
        beta = _inside(lo, hi, rng)
        return RowDraw(params=params, policy=Policy(family, beta=beta))
    raise RuntimeError(f"rejection sampling failed for {family}")


def sample_fc_nvdf(rng):
    return _sample(rng, Family.FC, True, lambda rho, mu: (1e-3, mu * rho))


def sample_fc_disease_free(rng):
    return _sample(
        rng,
        Family.FC,
        True,
        lambda rho, mu: (mu * rho, mu + 1.0) if mu * rho < (mu + 1.0) * (1 - 2 * MARGIN) else None,
    )


def sample_fc_disease_free_saturated(rng):
    return _sample(
        rng,
        Family.FC,
        True,
        lambda rho, mu: ((mu + 1.0) * 1.1, (mu + 1.0) * 4.0)
        if mu * rho < (mu + 1.0) * (1 - 2 * MARGIN)
        else None,
    )


def sample_fc_coexistence(rng):
    return _sample(
        rng,
        Family.FC,
        True,
        lambda rho, mu: (mu * rho * 1.1, mu * rho * 5.0)
        if mu * rho > (mu + 1.0) * (1 + 2 * MARGIN)
        else None,
    )


def sample_fc_origin(rng):
    return _sample(rng, Family.FC, False, lambda rho, mu: (1e-3, mu))


def sample_fr_nvdf(rng):
    return _sample(rng, Family.FR, True, lambda rho, mu: (1e-3, mu * rho))


def sample_fr_interior(rng):
    def window(rho, mu):
        hi = rho * rho * mu
        if mu * rho > 1.0:
            hi = min(hi, (mu * rho) ** 2 / (mu * rho - 1.0))
        if hi <= mu * rho * (1 + 2 * MARGIN):
            return None
        return (mu * rho, hi)

    return _sample(rng, Family.FR, True, window)


def sample_fr_disease_free(rng):
    def window(rho, mu):
        lo = rho * rho * mu
        hi = (mu + 1.0) ** 2 / mu  # acceptance at the candidate below 1
        if hi <= lo * (1 + 2 * MARGIN):
            return None
        return (lo, hi)

    return _sample(rng, Family.FR, True, window)


def sample_fr_disease_free_saturated(rng):
    def window(rho, mu):
        if mu * rho > (mu + 1.0) * (1 - 2 * MARGIN):
            return None
        lo = max(rho * rho * mu, (mu + 1.0) ** 2 / mu) * 1.1
        return (lo, lo * 4.0)

    return _sample(rng, Family.FR, True, window)


def sample_fr_coexistence(rng):
    def window(rho, mu):
        if mu * rho < (mu + 1.0) * (1 + 2 * MARGIN):
            return None
        lo = (mu * rho) ** 2 / (mu * rho - 1.0) * 1.1
        return (lo, lo * 4.0)

    return _sample(rng, Family.FR, True, window)


def sample_fr_origin(rng):
    return _sample(rng, Family.FR, False, lambda rho, mu: (1e-3, mu))


def sample_vfc1_nvdf(rng):
    return _sample(
        rng, Family.VFC1, True, lambda rho, mu: (1e-3, mu * rho * rho / (rho - 1.0))
    )


def sample_vfc1_interior(rng):
    def window(rho, mu):
        if rho < 1.5 * (1 + 2 * MARGIN):  # proven region needs the pivot below 2*mu*rho^2
            return None
        lo = mu * rho * rho / (rho - 1.0)
        hi = 2.0 * mu * rho * rho
        if mu * rho > 1.0 + mu:
            hi = min(hi, (mu * rho) ** 2 / (mu * rho - mu - 1.0))
        if hi <= lo * (1 + 2 * MARGIN):
            return None
        return (lo, hi)

    return _sample(rng, Family.VFC1, True, window)


def sample_vfc1_coexistence(rng):
    def window(rho, mu):
        if mu * rho < (mu + 1.0) * (1 + 2 * MARGIN):
            return None
        lo = (mu * rho) ** 2 / (mu * rho - mu - 1.0) * 1.1
        return (lo, lo * 4.0)

    return _sample(rng, Family.VFC1, True, window)


def sample_vfc1_origin(rng):
    # the origin row has no beta restriction for vigilant agents
    return _sample(rng, Family.VFC1, False, lambda rho, mu: (1e-3, 10.0 * mu))


#: row id -> (sampler, expected table_row tag); the three origin samplers
#: exercise the single self-eradicating row shared by every family, so the
#: catalogue spans 13 distinct rows.
ROW_SAMPLERS = {
    "fc/nvdf": (sample_fc_nvdf, "fc/nvdf"),
    "fc/disease-free": (sample_fc_disease_free, "fc/disease-free"),
    "fc/disease-free-saturated": (
        sample_fc_disease_free_saturated,
        "fc/disease-free-saturated",
    ),
    "fc/coexistence": (sample_fc_coexistence, "fc/coexistence"),
    "fc/origin": (sample_fc_origin, "fc/origin"),
    "fr/nvdf": (sample_fr_nvdf, "fr/nvdf"),
    "fr/interior": (sample_fr_interior, "fr/interior"),
    "fr/disease-free": (sample_fr_disease_free, "fr/disease-free"),
    "fr/disease-free-saturated": (
        sample_fr_disease_free_saturated,
        "fr/disease-free-saturated",
    ),
    "fr/coexistence": (sample_fr_coexistence, "fr/coexistence"),
    "fr/origin": (sample_fr_origin, "fr/origin"),
    "vfc1/nvdf": (sample_vfc1_nvdf, "vfc1/nvdf"),
    "vfc1/interior": (sample_vfc1_interior, "vfc1/interior"),
    "vfc1/coexistence": (sample_vfc1_coexistence, "vfc1/coexistence"),
    "vfc1/origin": (sample_vfc1_origin, "vfc1/origin"),
}


_BETA = st.floats(min_value=0.0, max_value=50.0)
UNIT = st.floats(min_value=0.0, max_value=1.0)
_BASE_POLICIES = st.one_of(
    st.builds(fc, _BETA),
    st.builds(fr, _BETA),
    st.builds(vfc1, _BETA),
    st.builds(vfc2, _BETA, UNIT, st.booleans()),
    st.builds(static, UNIT),
)
POLICIES = st.one_of(_BASE_POLICIES, st.builds(mutant, _BASE_POLICIES, UNIT, UNIT))


@st.composite
def _params(draw):
    b = draw(st.floats(0.05, 3.0))
    d = draw(UNIT) * 0.5 * b
    return ModelParams(
        lam=draw(st.floats(0.05, 20.0)),
        r=draw(st.floats(0.0, 5.0)),
        nu=draw(st.floats(0.0, 5.0)),
        b=b,
        d=d,
        d_e=draw(UNIT) * 0.9 * (b - d),
    )


PARAMS = _params()
