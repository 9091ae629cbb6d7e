"""Evolutionary stability of vaccination responses against static mutants.

A user weighing vaccination at a decision epoch, with the system settled at
(theta_hat, psi_hat), anticipates

  vaccination cost  c_v1 + min(c_v2_bar, c_v2 / psi_hat)
  infection cost    p_I(theta_hat) * (c_I1 + c_I2 * d_e * theta_hat)

where p_I(theta) = lam*theta / (lam*theta + nu) is the chance of catching
the disease before the next opportunity.  The utility of choosing
vaccination probability q is linear in q,

  u(q) = q * h + infection cost,
  h(theta_hat, psi_hat) = vaccination cost - infection cost,

so the static best response is always {1} (h < 0), {0} (h > 0) or the whole
interval (h = 0, reported Indifferent).  A dynamic policy is evolutionary
stable against static mutations when the acceptance probability it induces
at its own equilibrium is the unique static best response there, and stays
so under small static-mutant invasions.

:func:`classify_ess` walks one case split and stops at the first case that
applies; a quantity within tolerance of its boundary makes the verdict
Marginal.  The no-vaccination level is (1 - 1/rho_e, 0), exact for d_e >= 0.

  1. rho vs 1.  Below 1 the disease eradicates itself and the origin is a
     non-vaccinating ESS for every policy.
  2. h_m, h at the no-vaccination level.  Positive: never vaccinating is the
     ESS there.
  3. h_m < 0 leaves saturated acceptance as the only candidate.  Its point
     (theta_E, psi_E) must exist: never without a vaccine (nu = 0, so
     mu = inf); without excess deaths mu*rho > mu + 1 (the co-existence
     point); with d_e > 0 the deadly quadratic root with theta_E > 0 and
     mu + o < mu*rho_e.  Otherwise no ESS exists.
  4. h(theta_E, psi_E) < 0: saturated acceptance is the vaccinating ESS,
     reached once the family parameter pushes the raw propensity strictly
     above 1 there (beta* = 1 / per-unit-beta propensity).  h > 0: no ESS.

With d_e > 0 every verdict is flagged conjectured.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .attractor import (
    REGIME_TOL, _eta_at, coexistence_point, deadly_coexistence_exact, nvdf_point
)
from .errors import EquilibriumNotFound, InvalidParams, RegimeMismatch
from .ode import OdeState, find_equilibrium
from .params import ModelParams, Ratios, derive_ratios
from .policy import Family, Policy, accept_prob, mutant, propensity


@dataclass(frozen=True)
class CostParams:
    """Perceived cost components of the user utility."""

    c_v1: float  # monetary vaccine cost
    c_v2: float  # hesitancy scale (divided by the vaccinated share)
    c_v2_bar: float  # hesitancy cap
    c_I1: float  # infection suffering cost
    c_I2: float = 0.0  # death-scare multiplier (enters via d_e * theta)

    def __post_init__(self) -> None:
        for name in ("c_v1", "c_v2", "c_v2_bar", "c_I1", "c_I2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise InvalidParams(f"{name} must be non-negative")

    @property
    def indifference_tol(self) -> float:
        return 1e-9 * (self.c_v1 + self.c_v2_bar + 1.0)


def p_infection(theta: float, params: ModelParams) -> float:
    """Probability of infection before the next decision epoch."""
    rate = params.lam * theta
    total = rate + params.nu
    if total == 0.0:
        warnings.warn("lam*theta + nu = 0; returning 0 by convention", RuntimeWarning)
        return 0.0
    return rate / total


def _anticipated_costs(
    theta_hat: float, psi_hat: float, params: ModelParams, costs: CostParams
) -> tuple[float, float]:
    """(vaccination cost, infection cost) anticipated at the equilibrium."""
    if psi_hat > 0.0:
        hesitancy = min(costs.c_v2_bar, costs.c_v2 / psi_hat)
    else:
        hesitancy = costs.c_v2_bar
    infection = p_infection(theta_hat, params) * (
        costs.c_I1 + costs.c_I2 * params.d_e * theta_hat
    )
    return costs.c_v1 + hesitancy, infection


def h_value(
    theta_hat: float, psi_hat: float, params: ModelParams, costs: CostParams
) -> float:
    """Signed gap between anticipated vaccination and infection costs."""
    vaccination, infection = _anticipated_costs(theta_hat, psi_hat, params, costs)
    return vaccination - infection


def utility(
    q: float,
    theta_hat: float,
    psi_hat: float,
    params: ModelParams,
    costs: CostParams,
) -> float:
    """Anticipated cost of vaccinating with probability q at equilibrium."""
    vaccination, infection = _anticipated_costs(theta_hat, psi_hat, params, costs)
    return q * vaccination + (1.0 - q) * infection


def h_m(params: ModelParams, costs: CostParams) -> float:
    """h at the no-vaccination endemic level (the maximum over the family)."""
    theta_n, psi_n = nvdf_point(params)
    return h_value(theta_n, psi_n, params, costs)


class BestResponse(Enum):
    NEVER = "0"
    ALWAYS = "1"
    INDIFFERENT = "indifferent"


def static_best_response(
    point: tuple[float, float], params: ModelParams, costs: CostParams
) -> BestResponse:
    """argmin over static q of the linear utility at (theta, psi): {0}, {1} or the interval."""
    h = h_value(*point, params, costs)
    tol = costs.indifference_tol
    if h < -tol:
        return BestResponse.ALWAYS
    if h > tol:
        return BestResponse.NEVER
    return BestResponse.INDIFFERENT


class VerdictKind(Enum):
    NON_VACCINATING_ESS = "non-vaccinating-ess"
    VACCINATING_ESS = "vaccinating-ess"
    NO_ESS = "no-ess"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class EssVerdict:
    kind: VerdictKind
    equilibrium: tuple[float, float]
    h_value: float
    h_m: Optional[float] = None
    beta_star_threshold: Optional[float] = None
    conjectured: bool = False
    detail: str = ""


def _beta_star_threshold(
    family: Family, theta: float, psi: float
) -> float:
    """Smallest beta pushing the raw propensity above 1 at (theta, psi)."""
    probe = Policy(family, beta=1.0)
    slope = propensity(probe, theta, psi)
    if slope <= 0.0:
        return math.inf
    return 1.0 / slope


#: What one case of the split decides: (kind, equilibrium, h, detail).
_Case = tuple[VerdictKind, tuple[float, float], float, str]


def _saturated_case(
    params: ModelParams, ratios: Ratios, costs: CostParams, nvdf: tuple[float, float], hm: float
) -> _Case:
    """The case of saturated acceptance, the only candidate once h_m < 0."""
    mu, no_coexistence = ratios.mu, "mu*rho <= mu+1: co-existence point does not exist"
    if math.isinf(mu):  # nu = 0: no vaccine, so nothing to saturate
        return VerdictKind.NO_ESS, nvdf, hm, no_coexistence
    if params.d_e > 0.0:
        eq = deadly_es_equilibrium(params, costs)
        theta_e, psi_e = eq.theta_exact, eq.psi_exact
        if abs(theta_e) <= REGIME_TOL:
            detail = "deadly saturated equilibrium on the theta = 0 boundary"
            return VerdictKind.MARGINAL, (theta_e, psi_e), math.nan, detail
        if eq.no_ess or theta_e < 0.0:
            detail = "mu + o >= mu*rho_e: saturated infection share not positive"
            return VerdictKind.NO_ESS, nvdf, hm, detail
        h_e = eq.h_exact
    else:
        band = REGIME_TOL * (mu + 1.0)
        if abs(mu * ratios.rho - (mu + 1.0)) <= band:
            return VerdictKind.MARGINAL, nvdf, hm, "mu*rho on the mu+1 boundary"
        if mu * ratios.rho <= mu + 1.0 + band:
            return VerdictKind.NO_ESS, nvdf, hm, no_coexistence
        theta_e, psi_e = coexistence_point(params)
        h_e = h_value(theta_e, psi_e, params, costs)
    if abs(h_e) <= costs.indifference_tol:
        detail = "h at the saturated equilibrium is on its sign boundary"
        return VerdictKind.MARGINAL, (theta_e, psi_e), h_e, detail
    if h_e < 0.0:
        detail = "saturated acceptance is the unique best response"
        return VerdictKind.VACCINATING_ESS, (theta_e, psi_e), h_e, detail
    return VerdictKind.NO_ESS, (theta_e, psi_e), h_e, "h >= 0 at the saturated equilibrium"


def _endemic_case(
    params: ModelParams, ratios: Ratios, costs: CostParams, nvdf: tuple[float, float], hm: float
) -> _Case:
    """The case for an endemic disease (rho > 1), split on the sign of h_m."""
    if abs(hm) <= costs.indifference_tol:
        detail = "h at the no-vaccination level is on its sign boundary"
        return VerdictKind.MARGINAL, nvdf, hm, detail
    if hm > 0.0:
        detail = "never vaccinating is the unique best response at the endemic level"
        return VerdictKind.NON_VACCINATING_ESS, nvdf, hm, detail
    return _saturated_case(params, ratios, costs, nvdf, hm)


def classify_ess(
    family: Family,
    params: ModelParams,
    costs: CostParams,
) -> EssVerdict:
    """Evolutionary-stability verdict for one response family.

    Walks the case split of the module docstring and stops at the first case
    that applies; any quantity within tolerance of its boundary yields
    Marginal.  Deadly verdicts are conjectured.
    """
    if family not in (Family.FC, Family.FR, Family.VFC1):
        raise RegimeMismatch(f"ESS classification covers FC/FR/VFC1, got {family}")
    ratios = derive_ratios(params)
    hm = None
    if abs(ratios.rho - 1.0) <= REGIME_TOL:
        case = VerdictKind.MARGINAL, (0.0, 0.0), math.nan, "rho on the endemic boundary"
    elif ratios.rho < 1.0:
        detail = "self-eradicating disease; origin is stable for every policy"
        h0 = h_value(0.0, 0.0, params, costs)
        case = VerdictKind.NON_VACCINATING_ESS, (0.0, 0.0), h0, detail
    else:
        nvdf = nvdf_point(params)
        hm = h_value(*nvdf, params, costs)
        case = _endemic_case(params, ratios, costs, nvdf, hm)
    kind, point, h, detail = case
    beta_star = None
    if kind is VerdictKind.VACCINATING_ESS:
        beta_star = _beta_star_threshold(family, *point)
    return EssVerdict(
        kind=kind,
        equilibrium=point,
        h_value=h,
        h_m=hm,
        beta_star_threshold=beta_star,
        conjectured=params.d_e > 0.0,
        detail=detail,
    )


@dataclass(frozen=True)
class DeadlyEsEquilibrium:
    """Saturated-acceptance equilibrium with excess deaths.

    ``(theta_exact, psi_exact)`` from the quadratic; ``(theta_approx,
    psi_approx)`` from the small-d_e expansion with its o-factor; ``no_ess``
    set when mu + o >= mu*rho_e (the infection share loses positivity).
    """

    theta_exact: float
    psi_exact: float
    theta_approx: float
    psi_approx: float
    o_factor: float
    no_ess: bool
    h_exact: float


def deadly_es_equilibrium(params: ModelParams, costs: CostParams) -> DeadlyEsEquilibrium:
    """Exact quadratic root and its small-d_e approximation (d_e > 0, q = 1)."""
    p = params
    if p.d_e <= 0.0:
        raise RegimeMismatch("requires d_e > 0")
    theta_exact, psi_exact = deadly_coexistence_exact(params)

    ratios = derive_ratios(params)
    mu, rho_e = ratios.mu, ratios.rho_e
    correction = p.d_e * (p.r + p.d_e - p.lam - p.nu) / (mu * p.lam * p.nu)
    o_factor = 1.0 / (1.0 + correction)
    theta_approx = 1.0 - 1.0 / rho_e - o_factor / (mu * rho_e)
    psi_approx = (o_factor / (mu * rho_e)) * (p.lam - p.d_e) / p.lam
    no_ess = mu + o_factor >= mu * rho_e

    return DeadlyEsEquilibrium(
        theta_exact=theta_exact,
        psi_exact=psi_exact,
        theta_approx=theta_approx,
        psi_approx=psi_approx,
        o_factor=o_factor,
        no_ess=no_ess,
        h_exact=h_value(theta_exact, psi_exact, params, costs),
    )


#: Static mutant probabilities and invading fractions probed by
#: :func:`mutation_stability`.
_P_GRID = (0.0, 0.5, 1.0)
_EPS_GRID = (0.001, 0.01, 0.05)


@dataclass(frozen=True)
class MutationProbe:
    p: float
    eps: float
    theta: float
    psi: float
    h: float
    best_response: BestResponse
    ok: bool


@dataclass(frozen=True)
class MutationReport:
    incumbent_q: float
    base_point: tuple[float, float]
    probes: tuple[MutationProbe, ...]

    @property
    def passed(self) -> bool:
        return all(probe.ok for probe in self.probes)

    @property
    def violations(self) -> list[MutationProbe]:
        return [probe for probe in self.probes if not probe.ok]


def mutation_stability(
    family: Family,
    beta_incumbent: float,
    params: ModelParams,
    costs: CostParams,
    base_point: Optional[tuple[float, float]] = None,
) -> MutationReport:
    """Check the incumbent's best response survives static-mutant invasions.

    For each static mutant probability p in ``_P_GRID`` and invading
    fraction eps in ``_EPS_GRID``, the perturbed mean-field equilibrium
    under the eps-mixture policy is root-found from the incumbent's
    equilibrium, h is evaluated there, and the static best response must
    still uniquely equal the incumbent's equilibrium acceptance probability.
    """
    base_policy = Policy(family, beta=beta_incumbent)
    if base_point is None:
        verdict = classify_ess(family, params, costs)
        if verdict.kind not in (
            VerdictKind.VACCINATING_ESS,
            VerdictKind.NON_VACCINATING_ESS,
        ):
            raise RegimeMismatch(f"no ESS verdict to probe: {verdict.kind}")
        base_point = verdict.equilibrium
    theta0, psi0 = base_point
    q_star = accept_prob(base_policy, theta0, psi0)
    if q_star not in (0.0, 1.0):
        raise RegimeMismatch(
            f"incumbent acceptance at equilibrium must be 0 or 1, got {q_star!r}"
        )
    target = BestResponse.NEVER if q_star == 0.0 else BestResponse.ALWAYS

    eta0 = _eta_at(theta0, psi0, params)
    probes: list[MutationProbe] = []
    for p in _P_GRID:
        for eps in _EPS_GRID:
            perturbed = mutant(base_policy, p=p, eps=eps)
            result = find_equilibrium(
                OdeState(theta0, psi0, eta0), params, perturbed
            )
            if not result.converged:
                raise EquilibriumNotFound(
                    f"perturbed equilibrium not found for p={p}, eps={eps}: "
                    f"residual {result.residual:.3e}"
                )
            th_e, ps_e = result.state.theta, result.state.psi
            h_e = h_value(th_e, ps_e, params, costs)
            br = static_best_response((th_e, ps_e), params, costs)
            probes.append(
                MutationProbe(
                    p=p,
                    eps=eps,
                    theta=th_e,
                    psi=ps_e,
                    h=h_e,
                    best_response=br,
                    ok=br is target,
                )
            )
    return MutationReport(
        incumbent_q=q_star, base_point=(theta0, psi0), probes=tuple(probes)
    )
