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

so the static best response (:func:`_best_response`, the one reader of the
sign of h) is {1} (h < 0), {0} (h > 0) or, for h = 0, the whole interval
(Indifferent, a Marginal verdict).  A dynamic policy is evolutionary
stable against static mutations when the acceptance probability it induces
at its own equilibrium is the unique static best response there, and stays
so under small static-mutant invasions.

:func:`classify_ess` walks one case split and stops at the first case that
applies; a quantity within tolerance of its boundary (the catalogue's own
test, :func:`vaxgame.attractor._near`) makes the verdict Marginal.  The
no-vaccination level is (1 - 1/rho_e, 0), :attr:`Ratios.nvdf_level`.

  1. rho vs 1.  Below 1 the disease eradicates itself and the origin is a
     non-vaccinating ESS for every policy.
  2. h_m, h at the no-vaccination level.  Positive: never vaccinating is the
     ESS there.
  3. h_m < 0 leaves saturated acceptance as the only candidate, at the
     catalogue's saturated row (:data:`vaxgame.attractor._SATURATED`): the
     co-existence point (theta_E, psi_E), the exact root with d_e > 0, where
     theta_E > 0.  At the saturated disease-free point, or with no vaccine
     (nu = 0), no ESS exists; on a guard of that row the verdict is Marginal.
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

from .attractor import _SATURATED, _eta_at, _near, deadly_coexistence_exact
from .errors import EquilibriumNotFound, InvalidParams, MarginalRegime, RegimeMismatch
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
    """h at the no-vaccination endemic level (the maximum over the family); rho > 1 only.

    Raises RegimeMismatch where rho <= 1, which has no endemic level.
    """
    ratios = derive_ratios(params)
    if ratios.rho <= 1.0:
        raise RegimeMismatch("no endemic level: rho <= 1")
    return h_value(ratios.nvdf_level, 0.0, params, costs)


class BestResponse(Enum):
    NEVER = "0"
    ALWAYS = "1"
    INDIFFERENT = "indifferent"


def _best_response(h: float, costs: CostParams) -> BestResponse:
    """The static best response at cost gap h: {1}, {0} or, for h within tolerance, the interval."""
    tol = costs.indifference_tol
    if h < -tol:
        return BestResponse.ALWAYS
    if h > tol:
        return BestResponse.NEVER
    return BestResponse.INDIFFERENT


def static_best_response(
    point: tuple[float, float], params: ModelParams, costs: CostParams
) -> BestResponse:
    """argmin over static q of the linear utility at (theta, psi): {0}, {1} or the interval."""
    return _best_response(h_value(*point, params, costs), costs)


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

#: (kind, detail) by the static best response at the no-vaccination level;
#: where it is {1}, the saturated point is the candidate.
_AT_NVDF = {
    BestResponse.NEVER: (
        VerdictKind.NON_VACCINATING_ESS,
        "never vaccinating is the unique best response at the endemic level",
    ),
    BestResponse.INDIFFERENT: (
        VerdictKind.MARGINAL, "h at the no-vaccination level is on its sign boundary"
    ),
}
#: (kind, detail) by the static best response at the catalogue's co-existence point.
_AT_SATURATED = {
    BestResponse.ALWAYS: (
        VerdictKind.VACCINATING_ESS, "saturated acceptance is the unique best response"
    ),
    BestResponse.NEVER: (VerdictKind.NO_ESS, "h >= 0 at the saturated equilibrium"),
    BestResponse.INDIFFERENT: (
        VerdictKind.MARGINAL, "h at the saturated equilibrium is on its sign boundary"
    ),
}


def _endemic_case(params: ModelParams, ratios: Ratios, costs: CostParams, hm: float) -> _Case:
    """The case for an endemic disease (rho > 1): the no-vaccination level, else saturation."""
    nvdf = (ratios.nvdf_level, 0.0)
    response = _best_response(hm, costs)
    if response is not BestResponse.ALWAYS:
        kind, detail = _AT_NVDF[response]
        return kind, nvdf, hm, detail
    no_coexistence = "mu*rho <= mu+1: co-existence point does not exist"
    # nu = 0: no vaccine, so nothing to saturate (the row's guard would read inf vs inf)
    if math.isinf(ratios.mu):
        return VerdictKind.NO_ESS, nvdf, hm, no_coexistence
    try:
        theta_e, psi_e, row = _SATURATED[params.d_e > 0.0](params, ratios)
    except MarginalRegime as exc:
        return VerdictKind.MARGINAL, nvdf, hm, str(exc)
    if row != "coexistence":
        return VerdictKind.NO_ESS, nvdf, hm, no_coexistence
    h_e = h_value(theta_e, psi_e, params, costs)
    kind, detail = _AT_SATURATED[_best_response(h_e, costs)]
    return kind, (theta_e, psi_e), h_e, detail


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
    if _near(ratios.rho, 1.0):
        case = VerdictKind.MARGINAL, (0.0, 0.0), math.nan, "rho on the endemic boundary"
    elif ratios.rho < 1.0:
        detail = "self-eradicating disease; origin is stable for every policy"
        h0 = h_value(0.0, 0.0, params, costs)
        case = VerdictKind.NON_VACCINATING_ESS, (0.0, 0.0), h0, detail
    else:
        hm = h_m(params, costs)
        case = _endemic_case(params, ratios, costs, hm)
    kind, point, h, detail = case
    vaccinating = kind is VerdictKind.VACCINATING_ESS
    return EssVerdict(
        kind=kind,
        equilibrium=point,
        h_value=h,
        h_m=hm,
        beta_star_threshold=_beta_star_threshold(family, *point) if vaccinating else None,
        conjectured=params.d_e > 0.0,
        detail=detail,
    )


@dataclass(frozen=True)
class DeadlyEsEquilibrium:
    """Saturated-acceptance equilibrium with excess deaths.

    ``(theta_exact, psi_exact)`` from the quadratic; ``(theta_approx,
    psi_approx)`` from the small-d_e expansion with its o-factor; ``no_ess``
    set when mu + o >= mu*rho_e (the approximate infection share loses
    positivity).  :func:`classify_ess` reads neither the approximation nor
    ``no_ess``: its saturated point is the catalogue's exact root.
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
    theta_approx = ratios.nvdf_level - o_factor / (mu * rho_e)
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
            br = _best_response(h_e, costs)
            probes.append(MutationProbe(p, eps, th_e, ps_e, h_e, br, ok=br is target))
    return MutationReport(
        incumbent_q=q_star, base_point=(theta0, psi0), probes=tuple(probes)
    )
