import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from vaxgame import (
    BestResponse,
    CostParams,
    Family,
    ModelParams,
    Policy,
    VerdictKind,
    accept_prob,
    classify_ess,
    closed_form,
    coexistence_point,
    deadly_coexistence_exact,
    deadly_es_equilibrium,
    fc,
    h_m,
    h_value,
    mutation_stability,
    p_infection,
    propensity,
    static_best_response,
    utility,
)
from vaxgame.errors import MarginalRegime, RegimeMismatch


def ratios(p):
    return p.lam / (p.r + p.b + p.d_e), p.b / p.nu


# --------------------------------------------------------------------------
# infection probability and the h-function
# --------------------------------------------------------------------------


def test_p_infection_basics(right_params):
    assert p_infection(0.0, right_params) == 0.0
    no_vax = ModelParams(lam=2.0, r=1.0, nu=0.0, b=1.0, d=0.1)
    assert p_infection(0.3, no_vax) == 1.0


def test_p_infection_reference(right_params):
    rho, _ = ratios(right_params)
    theta_n = 1.0 - 1.0 / rho
    value = p_infection(theta_n, right_params)
    assert value == pytest.approx(
        right_params.lam * theta_n / (right_params.lam * theta_n + right_params.nu),
        abs=1e-15,
    )
    assert p_infection(0.24403, right_params) == pytest.approx(0.51373, abs=5e-6)


def test_h_positive_without_infection_risk(costs_for, right_params):
    costs = costs_for(right_params)
    assert h_value(0.0, 0.25, right_params, costs) > 0.0


def test_h_m_reference(costs_for, right_params):
    costs = costs_for(right_params)
    value = h_m(right_params, costs)
    # oracle: c_v1 + c_v2_bar - p_I(theta_N) * c_I1
    rho, _ = ratios(right_params)
    theta_n = 1.0 - 1.0 / rho
    expected = 2.88 + 1.91 - p_infection(theta_n, right_params) * (4.32 / right_params.r)
    assert value == pytest.approx(expected, abs=1e-14)
    assert value == pytest.approx(2.571, abs=5e-4)


def test_h_m_requires_endemic(costs_for):
    params = ModelParams(lam=1.0, r=1.0, nu=1.0, b=0.5, d=0.2)
    with pytest.raises(RegimeMismatch):
        h_m(params, costs_for(params))


def test_hesitancy_kink_location(costs_for, right_params):
    costs = costs_for(right_params)
    kink = costs.c_v2 / costs.c_v2_bar
    assert kink == pytest.approx(0.34031, abs=5e-6)
    # just below the kink the cap binds; just above the 1/psi branch binds
    below = h_value(0.0, kink * 0.99, right_params, costs)
    above = h_value(0.0, kink * 1.01, right_params, costs)
    assert below == pytest.approx(costs.c_v1 + costs.c_v2_bar)
    assert above == pytest.approx(costs.c_v1 + costs.c_v2 / (kink * 1.01))


def test_cap_binds_at_zero_crowd(costs_for, right_params):
    costs = costs_for(right_params)
    assert h_value(0.2, 0.0, right_params, costs) == pytest.approx(
        costs.c_v1 + costs.c_v2_bar - p_infection(0.2, right_params) * costs.c_I1
    )


_PROP_PARAMS = ModelParams(lam=1.749, r=1.0002, nu=0.404, b=0.322, d=0.1)
_PROP_COSTS = CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=4.32 / 1.0002)


@given(
    q=st.floats(0, 1),
    theta=st.floats(0, 1),
    psi_fr=st.floats(0, 1),
)
def test_utility_linear_in_q(q, theta, psi_fr):
    psi = psi_fr * (1.0 - theta)
    u_q = utility(q, theta, psi, _PROP_PARAMS, _PROP_COSTS)
    u_0 = utility(0.0, theta, psi, _PROP_PARAMS, _PROP_COSTS)
    h = h_value(theta, psi, _PROP_PARAMS, _PROP_COSTS)
    assert u_q - u_0 == pytest.approx(q * h, abs=1e-12 * (1 + abs(h)))


@given(
    theta=st.floats(0, 1),
    psi_fr=st.floats(0, 1),
    bump=st.floats(0, 0.5),
)
def test_h_non_increasing_in_both_arguments(theta, psi_fr, bump):
    psi = psi_fr * (1.0 - theta)
    base = h_value(theta, psi, _PROP_PARAMS, _PROP_COSTS)
    hi_psi = max(psi, min(psi + bump, 1.0 - theta))
    hi_theta = max(theta, min(theta + bump, 1.0 - psi))
    assert h_value(theta, hi_psi, _PROP_PARAMS, _PROP_COSTS) <= base + 1e-12
    assert h_value(hi_theta, psi, _PROP_PARAMS, _PROP_COSTS) <= base + 1e-12


# --------------------------------------------------------------------------
# best responses and classification
# --------------------------------------------------------------------------


def test_static_best_response_signs(right_params):
    costs = CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=4.32 / right_params.r)
    assert static_best_response((0.244, 0.0), right_params, costs) is BestResponse.NEVER
    generous = CostParams(c_v1=0.1, c_v2=0.0, c_v2_bar=0.0, c_I1=50.0)
    assert static_best_response((0.244, 0.0), right_params, generous) is BestResponse.ALWAYS
    # costs tuned so the gap vanishes identically
    p_i = p_infection(0.244, right_params)
    balanced = CostParams(c_v1=p_i * 10.0, c_v2=0.0, c_v2_bar=0.0, c_I1=10.0)
    assert (
        static_best_response((0.244, 0.0), right_params, balanced)
        is BestResponse.INDIFFERENT
    )


def test_classify_non_vaccinating_at_endemic_level(right_params, costs_for):
    verdict = classify_ess(Family.FC, right_params, costs_for(right_params))
    assert verdict.kind is VerdictKind.NON_VACCINATING_ESS
    rho, _ = ratios(right_params)
    assert verdict.equilibrium[0] == pytest.approx(1.0 - 1.0 / rho, abs=1e-12)
    assert verdict.equilibrium[1] == 0.0
    assert verdict.h_m > 0


def test_classify_non_vaccinating_self_eradicating(costs_for):
    params = ModelParams(lam=0.9, r=0.6, nu=1.0, b=0.4, d=0.1)  # rho = 0.9
    verdict = classify_ess(Family.FR, params, costs_for(params))
    assert verdict.kind is VerdictKind.NON_VACCINATING_ESS
    assert verdict.equilibrium == (0.0, 0.0)


def scare_costs() -> CostParams:
    # infection perceived expensive enough to flip the endemic-level gap
    return CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=40.0)


def test_classify_vaccinating_with_thresholds(left_params):
    costs = scare_costs()
    rho, mu = ratios(left_params)
    for family, threshold in [
        (Family.FC, mu * rho),
        (Family.FR, (mu * rho) ** 2 / (mu * rho - 1.0)),
        (Family.VFC1, (mu * rho) ** 2 / (mu * rho - mu - 1.0)),
    ]:
        verdict = classify_ess(family, left_params, costs)
        assert verdict.kind is VerdictKind.VACCINATING_ESS
        assert verdict.h_value < 0 and verdict.h_m < 0
        assert verdict.beta_star_threshold == pytest.approx(threshold, rel=1e-12)
        assert verdict.equilibrium == pytest.approx(coexistence_point(left_params))
    # frozen reference values for the family thresholds
    assert mu * rho == pytest.approx(2.01663, abs=5e-6)
    assert (mu * rho) ** 2 / (mu * rho - 1.0) == pytest.approx(4.00027, abs=5e-6)
    assert (mu * rho) ** 2 / (mu * rho - mu - 1.0) == pytest.approx(6.15776, abs=5e-6)


def test_classify_no_ess_when_coexistence_missing(costs_for):
    # endemic but mu*rho < mu+1, with infection costly: no stable response
    params = ModelParams(lam=1.749, r=1.0002, nu=0.404, b=0.322, d=0.1)
    costs = CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=40.0)
    assert h_m(params, costs) < 0
    verdict = classify_ess(Family.FC, params, costs)
    assert verdict.kind is VerdictKind.NO_ESS


def test_classify_marginal_on_sign_boundary(right_params):
    # costs tuned so h at the endemic level vanishes identically
    rho, _ = ratios(right_params)
    theta_n = 1.0 - 1.0 / rho
    p_n = p_infection(theta_n, right_params)
    costs = CostParams(c_v1=p_n * 10.0 - 1.91, c_v2=0.65, c_v2_bar=1.91, c_I1=10.0)
    verdict = classify_ess(Family.FC, right_params, costs)
    assert verdict.kind is VerdictKind.MARGINAL


def test_classify_no_ess_when_coexistence_too_cheap(left_params):
    # h_m < 0 but h at the saturated point back above zero
    rho, mu = ratios(left_params)
    theta_e, psi_e = coexistence_point(left_params)
    p_n = p_infection(1.0 - 1.0 / rho, left_params)
    p_e = p_infection(theta_e, left_params)
    # pick c_I1 between the two sign-flip levels
    hes_e = min(1.91, 0.65 / psi_e)
    c_lo = (2.88 + hes_e) / p_e  # h_E = 0 at this cost
    c_hi = (2.88 + 1.91) / p_n  # h_m = 0 at this cost
    assert c_hi < c_lo
    costs = CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=0.5 * (c_lo + c_hi))
    verdict = classify_ess(Family.FC, left_params, costs)
    assert verdict.h_m < 0 < verdict.h_value
    assert verdict.kind is VerdictKind.NO_ESS


_LEFT = dict(lam=8.549, r=1.188, b=0.322, d=0.1)


def _nvdf(p):
    return (1.0 - 1.0 / ((p.lam - p.d_e) / (p.r + p.b)), 0.0)


def _saturated(p):
    return deadly_coexistence_exact(p) if p.d_e > 0.0 else coexistence_point(p)


def _h_m_marginal():
    p = ModelParams(lam=1.749, r=1.0002, nu=0.404, b=0.322, d=0.1)
    p_n = p_infection(_nvdf(p)[0], p)
    return p, CostParams(c_v1=p_n * 10.0 - 1.91, c_v2=0.65, c_v2_bar=1.91, c_I1=10.0)


def _mu_rho_marginal():
    # mu*rho = mu + 1 exactly when nu = b*(rho - 1)
    rho = _LEFT["lam"] / (_LEFT["r"] + _LEFT["b"])
    return ModelParams(nu=_LEFT["b"] * (rho - 1.0), **_LEFT), scare_costs()


def _deadly_theta_zero():
    def theta_e(nu):
        return deadly_coexistence_exact(ModelParams(nu=nu, d_e=0.02, **_LEFT))[0]

    nu = brentq(theta_e, 1.0, 2.0, xtol=1e-15)
    return ModelParams(nu=nu, d_e=0.02, **_LEFT), scare_costs()


def _saturated_h(share):
    # c_I1 a share of the way from h_m = 0 (share 0) to h_E = 0 (share 1)
    def make():
        p = ModelParams(nu=0.904, **_LEFT)
        theta_e, psi_e = coexistence_point(p)
        c_lo = (2.88 + 1.91) / p_infection(_nvdf(p)[0], p)
        c_hi = (2.88 + min(1.91, 0.65 / psi_e)) / p_infection(theta_e, p)
        c_I1 = c_lo + share * (c_hi - c_lo)
        return p, CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=c_I1)

    return make


def _fixed(params, costs=None):
    return lambda: (params, costs or scare_costs())


# (exit, inputs, kind, equilibrium, h: NaN or h at the named point, h_m set,
#  beta* set, detail); points are "origin", "nvdf" or "saturated"
_BRANCHES = [
    ("rho-marginal", _fixed(ModelParams(lam=2.0, r=1.0, nu=1.0, b=1.0, d=0.1)),
     VerdictKind.MARGINAL, "origin", "nan", False, False,
     "rho on the endemic boundary"),
    ("rho-marginal-below", _fixed(ModelParams(lam=2.0 - 1e-9, r=1.0, nu=1.0, b=1.0, d=0.1)),
     VerdictKind.MARGINAL, "origin", "nan", False, False,
     "rho on the endemic boundary"),
    ("rho-marginal-above", _fixed(ModelParams(lam=2.0 + 1e-9, r=1.0, nu=1.0, b=1.0, d=0.1)),
     VerdictKind.MARGINAL, "origin", "nan", False, False,
     "rho on the endemic boundary"),
    ("rho-below-one", _fixed(ModelParams(lam=0.9, r=0.6, nu=1.0, b=0.4, d=0.1)),
     VerdictKind.NON_VACCINATING_ESS, "origin", "origin", False, False,
     "self-eradicating disease; origin is stable for every policy"),
    ("h_m-marginal", _h_m_marginal,
     VerdictKind.MARGINAL, "nvdf", "nvdf", True, False,
     "h at the no-vaccination level is on its sign boundary"),
    ("h_m-positive", _fixed(ModelParams(nu=0.904, **_LEFT), CostParams(2.88, 0.65, 1.91, 4.32)),
     VerdictKind.NON_VACCINATING_ESS, "nvdf", "nvdf", True, False,
     "never vaccinating is the unique best response at the endemic level"),
    ("deadly-theta-zero", _deadly_theta_zero,
     VerdictKind.MARGINAL, "saturated", "nan", True, False,
     "deadly saturated equilibrium on the theta = 0 boundary"),
    ("deadly-no-coexistence", _fixed(ModelParams(nu=5.0, d_e=0.02, **_LEFT)),
     VerdictKind.NO_ESS, "nvdf", "nvdf", True, False,
     "mu + o >= mu*rho_e: saturated infection share not positive"),
    ("mu-rho-marginal", _mu_rho_marginal,
     VerdictKind.MARGINAL, "nvdf", "nvdf", True, False,
     "mu*rho on the mu+1 boundary"),
    ("mu-rho-below", _fixed(ModelParams(lam=1.749, r=1.0002, nu=0.404, b=0.322, d=0.1)),
     VerdictKind.NO_ESS, "nvdf", "nvdf", True, False,
     "mu*rho <= mu+1: co-existence point does not exist"),
    ("no-vaccine", _fixed(ModelParams(nu=0.0, **_LEFT)),
     VerdictKind.NO_ESS, "nvdf", "nvdf", True, False,
     "mu*rho <= mu+1: co-existence point does not exist"),
    ("deadly-no-vaccine", _fixed(ModelParams(nu=0.0, d_e=0.02, **_LEFT)),
     VerdictKind.NO_ESS, "nvdf", "nvdf", True, False,
     "mu*rho <= mu+1: co-existence point does not exist"),
    ("saturated-h-marginal", _saturated_h(1.0),
     VerdictKind.MARGINAL, "saturated", "saturated", True, False,
     "h at the saturated equilibrium is on its sign boundary"),
    ("vaccinating", _fixed(ModelParams(nu=0.904, **_LEFT)),
     VerdictKind.VACCINATING_ESS, "saturated", "saturated", True, True,
     "saturated acceptance is the unique best response"),
    ("deadly-vaccinating", _fixed(ModelParams(nu=0.904, d_e=0.02, **_LEFT)),
     VerdictKind.VACCINATING_ESS, "saturated", "saturated", True, True,
     "saturated acceptance is the unique best response"),
    ("saturated-h-positive", _saturated_h(0.5),
     VerdictKind.NO_ESS, "saturated", "saturated", True, False,
     "h >= 0 at the saturated equilibrium"),
]


@pytest.mark.parametrize(
    "make, kind, where, h_at, has_h_m, has_beta_star, detail",
    [case[1:] for case in _BRANCHES],
    ids=[case[0] for case in _BRANCHES],
)
def test_classify_ess_branch_table(make, kind, where, h_at, has_h_m, has_beta_star, detail):
    params, costs = make()
    points = {"origin": (0.0, 0.0), "nvdf": _nvdf(params)}
    if where == "saturated":
        points["saturated"] = _saturated(params)
    verdict = classify_ess(Family.FC, params, costs)
    assert verdict.kind is kind
    assert verdict.detail == detail
    assert verdict.equilibrium == points[where]
    if h_at == "nan":
        assert math.isnan(verdict.h_value)
    else:
        assert verdict.h_value == h_value(*points[h_at], params, costs)
    assert verdict.h_m == (h_value(*points["nvdf"], params, costs) if has_h_m else None)
    assert verdict.conjectured is (params.d_e > 0.0)
    if has_beta_star:
        theta_e, psi_e = verdict.equilibrium
        slope = propensity(Policy(Family.FC, beta=1.0), theta_e, psi_e)
        assert verdict.beta_star_threshold == 1.0 / slope
    else:
        assert verdict.beta_star_threshold is None


def test_vaccinating_clamp_strictly_active(left_params):
    verdict = classify_ess(Family.FC, left_params, scare_costs())
    beta = verdict.beta_star_threshold * (1.0 + 1e-6)
    theta_e, psi_e = verdict.equilibrium
    assert accept_prob(fc(beta), theta_e, psi_e) == 1.0
    assert propensity(fc(beta), theta_e, psi_e) > 1.0


def test_h_maximal_at_no_vaccination_level(left_params, costs_for):
    # holds for the reference cost scale, where the hesitancy drop along the
    # equilibrium family outweighs the infection-probability drop; a large
    # enough infection cost would reverse it
    costs = costs_for(left_params)
    top = h_m(left_params, costs)
    for beta in np.linspace(0.1, 8.0, 40):
        try:
            att = closed_form(left_params, fc(float(beta)))
        except MarginalRegime:
            continue
        assert h_value(att.theta_hat, att.psi_hat, left_params, costs) <= top + 1e-12


# --------------------------------------------------------------------------
# deadly saturated equilibrium
# --------------------------------------------------------------------------


def test_deadly_equilibrium_continuity(left_params, costs_for):
    deadly = ModelParams(
        lam=left_params.lam, r=left_params.r, nu=left_params.nu,
        b=left_params.b, d=left_params.d, d_e=1e-8,
    )
    eq = deadly_es_equilibrium(deadly, costs_for(deadly))
    theta_e, psi_e = coexistence_point(left_params)
    assert eq.theta_exact == pytest.approx(theta_e, abs=1e-5)
    assert eq.psi_exact == pytest.approx(psi_e, abs=1e-5)
    assert eq.o_factor == pytest.approx(1.0, abs=1e-6)
    assert not eq.no_ess


def test_deadly_equilibrium_small_excess_accuracy(left_params, costs_for):
    deadly = ModelParams(
        lam=left_params.lam, r=left_params.r, nu=left_params.nu,
        b=left_params.b, d=left_params.d, d_e=0.01 * left_params.b,
    )
    eq = deadly_es_equilibrium(deadly, costs_for(deadly))
    assert abs(eq.psi_approx - eq.psi_exact) / eq.psi_exact <= 0.02
    assert abs(eq.theta_approx - eq.theta_exact) / eq.theta_exact <= 0.02


def test_deadly_requires_excess_deaths(left_params, costs_for):
    with pytest.raises(RegimeMismatch):
        deadly_es_equilibrium(left_params, costs_for(left_params))


def test_deadly_verdict_conjectured(costs_for):
    params = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1, d_e=0.02)
    costs = CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=40.0, c_I2=5.0)
    verdict = classify_ess(Family.FC, params, costs)
    assert verdict.conjectured
    assert verdict.kind in (VerdictKind.VACCINATING_ESS, VerdictKind.NO_ESS)


# --------------------------------------------------------------------------
# mutation stability
# --------------------------------------------------------------------------


def test_mutation_stability_vaccinating(left_params):
    report = mutation_stability(
        Family.FC, beta_incumbent=2.5, params=left_params, costs=scare_costs()
    )
    assert report.incumbent_q == 1.0
    assert report.passed, report.violations
    for probe in report.probes:
        if probe.eps == 0.0:
            assert probe.theta == pytest.approx(report.base_point[0], abs=1e-10)
            assert probe.psi == pytest.approx(report.base_point[1], abs=1e-10)


def test_mutation_stability_non_vaccinating_endemic(right_params, costs_for):
    report = mutation_stability(
        Family.FC, beta_incumbent=0.0, params=right_params, costs=costs_for(right_params)
    )
    assert report.incumbent_q == 0.0
    assert report.passed, report.violations


def test_mutation_stability_self_eradicating(costs_for):
    params = ModelParams(lam=0.9, r=0.6, nu=1.0, b=0.4, d=0.1)
    report = mutation_stability(
        Family.FC, beta_incumbent=0.0, params=params, costs=costs_for(params)
    )
    assert report.passed
    for probe in report.probes:
        assert probe.theta == pytest.approx(0.0, abs=1e-9)
        assert probe.best_response is BestResponse.NEVER


def test_theta_e_concave_in_birth_rate():
    # second differences of the saturated infected share along a birth grid
    lam, r, nu, d = 4.0, 0.15, 0.5, 0.05
    grid = np.linspace(0.2, 3.0, 57)
    values = []
    for b in grid:
        params = ModelParams(lam=lam, r=r, nu=nu, b=float(b), d=d)
        try:
            theta_e, _ = coexistence_point(params)
        except Exception:
            theta_e = math.nan
        values.append(theta_e)
    values = np.array(values)
    ok = ~np.isnan(values) & (values > 0)
    segment = values[ok]
    assert len(segment) > 10
    second = segment[2:] - 2 * segment[1:-1] + segment[:-2]
    assert np.all(second <= 1e-10)
