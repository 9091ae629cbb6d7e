import math
import sys
import threading
import zlib
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rowgen import PARAMS, POLICIES, ROW_SAMPLERS
from vaxgame import (
    Attractor,
    AttractorKind,
    Family,
    ModelParams,
    OdeState,
    Policy,
    certify_stability,
    closed_form,
    coexistence_point,
    deadly_coexistence_exact,
    fc,
    fr,
    integrate,
    mutant,
    static,
    verify_attractor,
    vfc1,
    vfc2,
    vfc2_limit_set,
)
from vaxgame import _native, attractor
from vaxgame.attractor import DeadlyQuadratic, _eta_at, _sample_lyapunov
from vaxgame.errors import (
    DegenerateState,
    MarginalRegime,
    NoCoexistence,
    RegimeMismatch,
)
from vaxgame.ode import field, field_rows
from vaxgame.policy import propensity_fn


def ratios(p):
    return p.lam / (p.r + p.b + p.d_e), p.b / p.nu


# --------------------------------------------------------------------------
# closed-form dispatch
# --------------------------------------------------------------------------


def test_fc_below_transition_is_nvdf(left_params):
    att = closed_form(left_params, fc(1.0))
    rho, _ = ratios(left_params)
    assert att.kind is AttractorKind.BOUNDARY_NVDF
    assert att.theta_hat == pytest.approx(1.0 - 1.0 / rho, abs=1e-12)
    assert att.theta_hat == pytest.approx(0.8234, abs=5e-5)
    assert att.psi_hat == 0.0
    assert not att.clamp_active


def test_fc_large_beta_reaches_coexistence(left_params):
    att = closed_form(left_params, fc(3.0))
    rho, mu = ratios(left_params)
    assert att.kind is AttractorKind.INTERIOR and att.clamp_active
    assert att.theta_hat == pytest.approx(1.0 - 1.0 / rho - 1.0 / (mu * rho), abs=1e-14)
    assert att.psi_hat == pytest.approx(1.0 / (mu * rho), abs=1e-14)
    # four significant decimals of the arithmetic oracle
    assert att.theta_hat == pytest.approx(0.32749, abs=5e-6)
    assert att.psi_hat == pytest.approx(0.49588, abs=5e-6)


def test_fr_disease_free_value(right_params):
    att = closed_form(right_params, fr(1.5))
    _, mu = ratios(right_params)
    assert att.kind is AttractorKind.DISEASE_FREE
    assert att.psi_hat == pytest.approx(1.0 - math.sqrt(mu / 1.5), abs=1e-14)
    assert att.psi_hat == pytest.approx(0.27106, abs=5e-6)


def test_origin_for_self_eradicating():
    params = ModelParams(lam=1.0, r=1.0, nu=1.0, b=0.5, d=0.2)
    for pol in (fc(0.3), fr(0.3), vfc1(5.0)):
        att = closed_form(params, pol)
        assert att.kind is AttractorKind.ORIGIN
        assert att.point() == (0.0, 0.0)


def test_vfc1_interior_and_unproven_flag(left_params, right_params):
    att = closed_form(left_params, vfc1(4.0))
    rho, mu = ratios(left_params)
    assert att.kind is AttractorKind.INTERIOR and att.proven
    assert att.theta_hat == pytest.approx(mu * rho / 4.0, abs=1e-14)
    # weakly endemic setting: the whole interior branch sits past 2*mu*rho^2
    att2 = closed_form(right_params, vfc1(6.0))
    assert att2.kind is AttractorKind.INTERIOR
    assert not att2.proven
    rho2, mu2 = ratios(right_params)
    assert att2.theta_hat == pytest.approx(mu2 * rho2 / 6.0, abs=1e-14)


def test_marginal_regimes_raise(left_params):
    rho, mu = ratios(left_params)
    with pytest.raises(MarginalRegime):
        closed_form(left_params, fc(mu * rho))
    marginal_rho = ModelParams(lam=2.0, r=1.0, nu=1.0, b=1.0, d=0.1)
    with pytest.raises(MarginalRegime):
        closed_form(marginal_rho, fc(0.5))


def _plain(lam):
    # r + b = 2 and mu = 1/2: rho = lam/2, mu*rho = lam/4, rho^2*mu = lam^2/8
    return ModelParams(lam=lam, r=1.0, nu=2.0, b=1.0, d=0.5)


def _deadly(lam):
    # r + b + d_e = 2 and mu = 1/2 as in _plain, with rho_e = (lam - 1/2)/(3/2)
    return ModelParams(lam=lam, r=0.5, nu=2.0, b=1.0, d=0.1, d_e=0.5)


_WINDOW_EDGE = ModelParams(
    lam=7.556402457320558, r=2.1423884508336077, nu=0.3598932457614841,
    b=2.7790762692348485, d=0.5488167116373418, d_e=1.768571188069958,
)


@pytest.mark.parametrize(
    "params,policy,message",
    [
        (_plain(8.0), fc(2.0), "beta vs mu*rho: 2.0 sits on the boundary 2.0"),
        (_plain(8.0), fr(2.0), "beta vs mu*rho: 2.0 sits on the boundary 2.0"),
        (_plain(8.0), fr(8.0), "beta vs rho^2*mu: 8.0 sits on the boundary 8.0"),
        (_plain(8.0), fr(4.0), "interior acceptance vs clamp: 1.0 sits on the boundary 1.0"),
        (_plain(1.0), fc(0.5), "beta vs mu: 0.5 sits on the boundary 0.5"),
        (_plain(1.0), fr(0.5), "beta vs mu: 0.5 sits on the boundary 0.5"),
        # FC tests its disease-free acceptance as beta vs mu + 1, FR as sqrt(mu*beta) - mu vs 1
        (_plain(1.0), fc(1.5), "disease-free acceptance vs clamp: 1.5 sits on the boundary 1.5"),
        (_plain(1.0), fr(4.5), "disease-free acceptance vs clamp: 1.0 sits on the boundary 1.0"),
        (_plain(6.0), fc(2.0), "mu*rho vs mu+1: 1.5 sits on the boundary 1.5"),
        (_plain(6.0), fr(8.0), "mu*rho vs mu+1: 1.5 sits on the boundary 1.5"),
        (_deadly(8.0), fc(2.0), "beta vs mu*rho: 2.0 sits on the boundary 2.0"),
        (_deadly(8.0), fr(2.0), "beta vs mu*rho: 2.0 sits on the boundary 2.0"),
        (_deadly(8.0), fr(8.0), "beta vs rho^2*mu: 8.0 sits on the boundary 8.0"),
        (_deadly(1.0), fc(0.5), "beta vs mu: 0.5 sits on the boundary 0.5"),
        (_deadly(1.0), fr(0.5), "beta vs mu: 0.5 sits on the boundary 0.5"),
        # with excess deaths FC tests beta - mu vs 1
        (_deadly(1.0), fc(1.5), "disease-free acceptance vs clamp: 1.0 sits on the boundary 1.0"),
        (_deadly(1.0), fr(4.5), "disease-free acceptance vs clamp: 1.0 sits on the boundary 1.0"),
        (_deadly(8.0), fc(1.5), "deadly nvdf transverse margin: 0.0 sits on the boundary 0.0"),
        (_deadly(8.0), fr(1.5), "deadly nvdf transverse margin: 0.0 sits on the boundary 0.0"),
        (_deadly(8.0), fc(1.8770145580216686),
         "deadly interior acceptance vs clamp: 0.9999999999999998 sits on the boundary 1.0"),
        (_deadly(8.0), fr(4.017246485591669),
         "deadly interior acceptance vs clamp: 0.9999999999999999 sits on the boundary 1.0"),
        # past the clamp at mu*rho = mu + 1 the deadly theta_E is 0 as well,
        # and its guard comes first
        (_deadly(6.0), fc(3.0), "deadly coexistence theta_E vs 0: 0.0 sits on the boundary 0.0"),
        (_deadly(6.0), fr(20.0), "deadly coexistence theta_E vs 0: 0.0 sits on the boundary 0.0"),
        # just outside the theta_E window (theta_E = -1.17e-9) the deadly
        # "mu*rho vs mu+1" is reached, and mu*rho is still within its own window
        (_WINDOW_EDGE, fc(21.44389232347886),
         "mu*rho vs mu+1: 8.721946157596506 sits on the boundary 8.721946165882354"),
        (_WINDOW_EDGE, fr(21.44389232347886),
         "mu*rho vs mu+1: 8.721946157596506 sits on the boundary 8.721946165882354"),
    ],
)
def test_every_catalogue_guard_raises(params, policy, message):
    # each FC/FR guard, with and without excess deaths, on its boundary
    with pytest.raises(MarginalRegime) as raised:
        closed_form(params, policy)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "params,policy",
    [
        (ModelParams(lam=1e-300, r=1.188, nu=1e-300, b=0.322, d=0, d_e=1e-300), fc(1e300)),
        (ModelParams(lam=1e300, r=1e-300, nu=1e300, b=5e-324, d=0), fc(0)),
        (ModelParams(lam=1e300, r=0, nu=1e-300, b=1e-300, d=0), vfc1(0)),
        (ModelParams(lam=1e300, r=1.188, nu=0.904, b=0.322, d=0.1), fr(1e300)),  # overflows
        (ModelParams(lam=1e300, r=0, nu=1e300, b=5e-324, d=0), fr(0)),
    ],
)
def test_rates_at_the_ends_of_the_double_range_are_degenerate(params, policy):
    # admissible rates whose formulas divide by zero or overflow raise a
    # typed error, which the harness records, not a bare ArithmeticError
    with pytest.raises(DegenerateState, match="closed form left the double range"):
        closed_form(params, policy)


def test_vfc2_has_no_point_catalogue(left_params):
    from vaxgame import vfc2

    with pytest.raises(RegimeMismatch):
        closed_form(left_params, vfc2(3.0, 0.2))


# --------------------------------------------------------------------------
# co-existence point
# --------------------------------------------------------------------------


def test_coexistence_reference(left_params):
    theta_e, psi_e = coexistence_point(left_params)
    assert theta_e == pytest.approx(0.32749, abs=5e-6)
    assert psi_e == pytest.approx(0.49588, abs=5e-6)


def test_coexistence_boundary_rejected():
    # tune nu so that mu*rho == mu + 1 exactly within rounding
    lam, r, b = 4.0, 1.0, 0.5
    rho = lam / (r + b)
    mu = 1.0 / (rho - 1.0)  # solves mu*rho = mu + 1
    params = ModelParams(lam=lam, r=r, nu=b / mu, b=b, d=0.1)
    with pytest.raises(NoCoexistence):
        coexistence_point(params)


def test_coexistence_no_vaccine_limit():
    params = ModelParams(lam=4.0, r=1.0, nu=0.0, b=0.5, d=0.1)
    theta_e, psi_e = coexistence_point(params)
    assert psi_e == 0.0
    assert theta_e == pytest.approx(1.0 - 1.5 / 4.0)


@pytest.mark.parametrize("nu", [2.0, 0.0])
def test_coexistence_point_requires_no_excess_deaths(nu):
    # its formula is no zero of the deadly field; deadly_coexistence_exact is
    params = ModelParams(lam=8.0, r=0.5, nu=nu, b=1.0, d=0.1, d_e=0.5)
    with pytest.raises(RegimeMismatch, match="requires d_e = 0"):
        coexistence_point(params)


# --------------------------------------------------------------------------
# deadly rows
# --------------------------------------------------------------------------


def test_deadly_quadratic_coefficients():
    params = ModelParams(lam=2.0, r=0.5, nu=1.0, b=0.5, d=0.1, d_e=0.1)
    quad = DeadlyQuadratic.from_params(params, 0.4)
    assert quad.a == pytest.approx(0.04, abs=1e-15)
    assert quad.b == pytest.approx(-0.64, abs=1e-15)
    assert quad.c == pytest.approx(1.06, abs=1e-15)
    # these rates keep the no-vaccination level stable: no interior row
    att = closed_form(params, fr(0.4))
    rho_e = (2.0 - 0.1) / (0.5 + 0.5)
    assert att.table_row == "fr-deadly/nvdf"
    assert att.theta_hat == pytest.approx(1.0 - 1.0 / rho_e, abs=1e-12)
    assert att.conjectured


def test_deadly_interior_verified_point():
    params = ModelParams(lam=2.0, r=0.3, nu=1.0, b=0.6, d=0.2, d_e=0.15)
    att = closed_form(params, fc(1.1))
    assert att.table_row == "fc-deadly/interior"
    assert att.kind is AttractorKind.INTERIOR and not att.clamp_active
    assert att.conjectured
    assert att.theta_hat == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert att.psi_hat == pytest.approx(1.0 / 6.0, abs=1e-12)
    ok, msg = verify_attractor(att, params, fc(1.1), tol=1e-10)
    assert ok, msg


def test_deadly_interior_matches_nondeadly_limit():
    # the deadly interior formulas collapse to the plain ones as d_e -> 0
    base = dict(lam=4.0, r=0.5, nu=0.8, b=0.6, d=0.1)
    tiny = ModelParams(**base, d_e=1e-6)
    flat = ModelParams(**base, d_e=0.0)
    beta = 3.5  # between mu*rho and rho^2*mu, acceptance below the clamp
    att_tiny = closed_form(tiny, fr(beta))
    att_flat = closed_form(flat, fr(beta))
    assert att_tiny.table_row == "fr-deadly/interior"
    assert att_flat.table_row == "fr/interior"
    assert att_tiny.theta_hat == pytest.approx(att_flat.theta_hat, abs=1e-4)
    assert att_tiny.psi_hat == pytest.approx(att_flat.psi_hat, abs=1e-4)


def test_deadly_coexistence_continuity(left_params):
    theta_e, psi_e = coexistence_point(left_params)
    deadly = ModelParams(
        lam=left_params.lam, r=left_params.r, nu=left_params.nu,
        b=left_params.b, d=left_params.d, d_e=1e-8,
    )
    theta_d, psi_d = deadly_coexistence_exact(deadly)
    assert theta_d == pytest.approx(theta_e, abs=1e-5)
    assert psi_d == pytest.approx(psi_e, abs=1e-5)


#: kind and clamp of every catalogue row, shared by all family labels, deadly or not
ROW_SHAPES = {
    "nvdf": (AttractorKind.BOUNDARY_NVDF, False),
    "origin": (AttractorKind.ORIGIN, False),
    "interior": (AttractorKind.INTERIOR, False),
    "disease-free": (AttractorKind.DISEASE_FREE, False),
    "disease-free-saturated": (AttractorKind.DISEASE_FREE, True),
    "coexistence": (AttractorKind.INTERIOR, True),
}

#: hand-picked points for the deadly rows the random draws below miss
DEADLY_ROW_TARGETS = [
    (ModelParams(lam=1.0, r=1.5, nu=1.9, b=0.9, d=0.2, d_e=0.35), fc(0.4)),  # origin
    (ModelParams(lam=9.0, r=1.1, nu=0.5, b=0.3, d=0.1, d_e=0.1), fc(2.8)),  # interior
    (ModelParams(lam=1.0, r=0.9, nu=0.7, b=0.8, d=0.3, d_e=0.1), fc(1.2)),  # disease-free
    (ModelParams(lam=0.5, r=1.6, nu=2.7, b=1.0, d=0.15, d_e=0.05), fr(7.3)),  # saturated
    (ModelParams(lam=9.5, r=1.0, nu=1.3, b=1.0, d=0.45, d_e=0.2), fr(7.5)),  # coexistence
]


def _deadly_draws():
    rng = np.random.default_rng(12)
    for _ in range(40):
        b = rng.uniform(0.3, 1.5)
        params = ModelParams(
            lam=rng.uniform(1.5, 8.0),
            r=rng.uniform(0.1, 1.5),
            nu=rng.uniform(0.3, 2.0),
            b=b,
            d=rng.uniform(0.0, 0.5) * b,
            d_e=rng.uniform(0.02, 0.3) * b,
        )
        if params.b <= params.d + params.d_e:
            continue
        for pol in (fc(rng.uniform(0.05, 4.0)), fr(rng.uniform(0.05, 4.0))):
            yield params, pol
    yield from DEADLY_ROW_TARGETS


def test_deadly_rows_always_field_verified():
    seen = set()
    for params, pol in _deadly_draws():
        try:
            att = closed_form(params, pol)
        except (MarginalRegime, RegimeMismatch):
            continue
        seen.add(att.table_row)
        ok, msg = verify_attractor(att, params, pol, tol=1e-8)
        assert ok, f"{att.table_row}: {msg}"
        prefix, row = att.table_row.split("/")
        assert prefix == f"{pol.family.value.lower()}-deadly"
        assert (att.kind, att.clamp_active) == ROW_SHAPES[row], att.table_row
        assert att.conjectured and att.proven
    assert seen == {
        f"{fam}-deadly/{row}" for fam in ("fc", "fr") for row in ROW_SHAPES
    }


# --------------------------------------------------------------------------
# limit-set prediction
# --------------------------------------------------------------------------


def test_vfc2_limit_set_center():
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.5)  # rho = 2
    pred = vfc2_limit_set(params, 0.2)
    assert pred.center_theta == pytest.approx(0.2)
    assert pred.center_psi == pytest.approx(0.3)
    assert not pred.degenerate_fc


def test_vfc2_limit_set_unreachable_threshold():
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.5)
    with pytest.raises(RegimeMismatch):
        vfc2_limit_set(params, 0.9)
    with pytest.raises(RegimeMismatch):
        vfc2_limit_set(ModelParams(lam=1.0, r=1.0, nu=1.0, b=0.5, d=0.1), 0.1)


def test_vfc2_limit_set_degenerate_gamma():
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.5)
    pred = vfc2_limit_set(params, 0.0)
    assert pred.degenerate_fc


@pytest.mark.parametrize("d_e,psi", [(0.1, 0.28), (0.3, 0.24)])
def test_vfc2_centre_with_excess_deaths_is_where_the_ode_slides(d_e, psi):
    # g_theta = 0 on theta = Gamma: psi = 1 - 1/rho - Gamma + d_e*Gamma/lam;
    # without the last term the centre would read 0.275 and 0.225
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.5, d_e=d_e)
    pred = vfc2_limit_set(params, 0.2)
    assert (pred.center_theta, pred.center_psi) == pytest.approx((0.2, psi), abs=1e-15)
    path = integrate(
        OdeState(0.3, 0.1, 1.0), params, vfc2(6.0, 0.2), horizon=50.0,
        rtol=1e-9, atol=1e-11, stop_at_equilibrium=False,
    )
    t = path.t
    tail = t >= 0.5 * (t[0] + t[-1])
    tail_psi = np.trapezoid(path.states[tail, 1], t[tail]) / (t[-1] - t[tail][0])
    assert tail_psi == pytest.approx(psi, abs=1e-3)


def test_vfc2_threshold_below_the_deadly_level_is_reachable():
    # 1 - 1/rho = 0.75 but the no-vaccination level 1 - 1/rho_e is 0.8
    params = ModelParams(lam=8.0, r=0.5, nu=2.0, b=1.0, d=0.1, d_e=0.5)
    pred = vfc2_limit_set(params, 0.77)
    assert (pred.center_theta, pred.center_psi) == pytest.approx((0.77, 0.028125), abs=1e-15)
    with pytest.raises(RegimeMismatch, match="no-vaccination level is 0.8$"):
        vfc2_limit_set(params, 0.8)


@given(params=PARAMS, share=st.floats(0.0, 1.0, exclude_max=True))
@example(params=ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.5), share=0.0)
def test_vfc2_centre_without_excess_deaths_keeps_its_bits(params, share):
    params = ModelParams(lam=params.lam, r=params.r, nu=params.nu, b=params.b, d=params.d)
    rho = params.lam / (params.r + params.b)
    assume(rho > 1.0)
    gamma = share * (1.0 - 1.0 / rho)
    pred = vfc2_limit_set(params, gamma)
    assert pred.center_theta == gamma
    assert pred.center_psi == 1.0 - 1.0 / rho - gamma
    assert pred.degenerate_fc is (gamma == 0.0)


# --------------------------------------------------------------------------
# residual and regime properties over random draws
# --------------------------------------------------------------------------


@pytest.mark.parametrize("row_id", sorted(ROW_SAMPLERS))
def test_rows_have_zero_field_residual(row_id):
    sampler, expected_row = ROW_SAMPLERS[row_id]
    rng = np.random.default_rng(zlib.crc32(row_id.encode()))
    for _ in range(10):
        draw = sampler(rng)
        att = closed_form(draw.params, draw.policy)
        assert att.table_row == expected_row
        assert (att.kind, att.clamp_active) == ROW_SHAPES[expected_row.split("/")[1]]
        assert att.conjectured is False
        assert att.proven
        ok, msg = verify_attractor(att, draw.params, draw.policy, tol=1e-10)
        assert ok, f"{row_id}: {msg}"


def test_catalogue_agrees_with_generic_integration():
    # random draws across families (deadly included): whenever the
    # integrator settles within the horizon, its endpoint must be the
    # catalogue point
    from vaxgame.errors import ComplexRoot

    rng = np.random.default_rng(321)
    families = [Family.FC, Family.FR, Family.VFC1]
    checked = 0
    trial = 0
    while checked < 25 and trial < 400:
        trial += 1
        b = rng.uniform(0.05, 3.0)
        d_e = rng.uniform(0.01, 0.4) * b if trial % 3 == 0 else 0.0
        try:
            params = ModelParams(
                lam=float(np.exp(rng.uniform(np.log(0.3), np.log(25)))),
                r=float(np.exp(rng.uniform(np.log(0.02), np.log(6)))),
                nu=float(np.exp(rng.uniform(np.log(0.02), np.log(6)))),
                b=b,
                d=rng.uniform(0, 0.55) * b,
                d_e=d_e,
            )
        except Exception:
            continue
        family = families[trial % 3]
        if d_e > 0 and family is Family.VFC1:
            family = Family.FC
        policy = Policy(family, beta=float(np.exp(rng.uniform(np.log(0.02), np.log(30)))))
        try:
            att = closed_form(params, policy)
        except (MarginalRegime, RegimeMismatch, ComplexRoot):
            continue
        start = OdeState(0.2 + 0.3 * rng.random(), 0.05 + 0.3 * rng.random(), 1.0)
        path = integrate(start, params, policy, horizon=300.0)
        if not path.settled:
            continue
        checked += 1
        err = max(
            abs(path.endpoint.theta - att.theta_hat),
            abs(path.endpoint.psi - att.psi_hat),
        )
        assert err <= 1e-3, (att.table_row, params, policy.beta, err)
    assert checked >= 25


def test_clamped_rows_coincide_across_families(left_params):
    points = {
        closed_form(left_params, fc(7.0)).point(),
        closed_form(left_params, fr(7.0)).point(),
        closed_form(left_params, vfc1(7.0)).point(),
    }
    assert len(points) == 1


@pytest.mark.parametrize("family", [Family.FC, Family.FR, Family.VFC1])
def test_equilibria_monotone_in_behaviour(left_params, family):
    prev_theta, prev_psi = 1.0, -1.0
    for beta in np.linspace(0.1, 8.0, 60):
        try:
            att = closed_form(left_params, Policy(family, beta=float(beta)))
        except MarginalRegime:
            continue
        assert att.theta_hat <= prev_theta + 1e-12
        assert att.psi_hat >= prev_psi - 1e-12
        prev_theta, prev_psi = att.theta_hat, att.psi_hat


# --------------------------------------------------------------------------
# stability certification
# --------------------------------------------------------------------------


def test_certificate_at_coexistence(left_params):
    att = closed_form(left_params, fc(3.0))
    cert = certify_stability(att, left_params, fc(3.0))
    assert cert.eigen_max_real < -1e-8
    assert cert.lyapunov_pass_fraction >= 0.99
    assert cert.passed


def test_certificate_at_origin():
    params = ModelParams(lam=1.0, r=1.0, nu=1.0, b=0.5, d=0.2)
    att = closed_form(params, fc(0.3))
    cert = certify_stability(att, params, fc(0.3))
    assert cert.eigen_max_real < -1e-8
    assert cert.passed


def test_certificate_marginal_at_transition(left_params):
    rho, mu = ratios(left_params)
    theta_n = 1.0 - 1.0 / rho
    att = Attractor(
        theta_hat=theta_n,
        psi_hat=0.0,
        eta_hat=_eta_at(theta_n, 0.0, left_params),
        kind=AttractorKind.BOUNDARY_NVDF,
        table_row="fc/nvdf",
        clamp_active=False,
    )
    cert = certify_stability(att, left_params, fc(mu * rho))
    assert cert.marginal
    assert not cert.passed


def test_certificate_non_normal_stable_case():
    # strongly non-normal coexistence Jacobian: plain distance would fail
    params = ModelParams(lam=20.0, r=1.0, nu=1.0, b=0.5, d=0.1)
    att = closed_form(params, fc(12.0))
    assert att.table_row == "fc/coexistence"
    cert = certify_stability(att, params, fc(12.0))
    assert cert.eigen_max_real < -1e-8
    assert cert.lyapunov_pass_fraction >= 0.99
    assert cert.euclidean_pass_fraction < 0.99  # the motivating counterexample


def test_certificate_of_nan_eta_is_degenerate(left_params):
    # an infinite eta too, with the C kernels and without them
    att = closed_form(left_params, fc(3.0))
    for eta in (math.nan, math.inf):
        bad = Attractor(att.theta_hat, att.psi_hat, eta, att.kind, att.table_row, True)
        for kernels in (nullcontext(), python_kernels()):
            with kernels, pytest.raises(DegenerateState, match="non-finite Jacobian"):
                certify_stability(bad, left_params, fc(3.0))


def _reference_sample(attr, policy, g, x_hat, p_form, radius, n_samples):
    """The per-sample loop the batched pass replaced: one scalar field call per sample."""
    q_tilde = propensity_fn(policy)
    rng = np.random.default_rng(0)
    kept = lyap_neg = eucl_neg = attempts = 0
    on_disc = False
    q_sign_ref = None
    while kept < n_samples and attempts < 50 * n_samples:
        attempts += 1
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        offset = direction / norm * radius * rng.random() ** (1.0 / 3.0)
        x = x_hat + offset
        if not (x[0] >= 0.0 and x[1] >= 0.0 and x[0] + x[1] <= 1.0 and x[2] > 0.0):
            continue
        kept += 1
        z = x - x_hat
        gx = g(x)
        if 2.0 * float(z @ (p_form @ gx)) < 0.0:
            lyap_neg += 1
        if 2.0 * float(z @ gx) < 0.0:
            eucl_neg += 1
        side = q_tilde(x[0], x[1]) > 1.0
        if q_sign_ref is None:
            q_sign_ref = side
        elif side != q_sign_ref:
            on_disc = True
        base = policy.mutant_base or policy  # a mutant jumps where its VFC2 base does
        if base.family is Family.VFC2 and (x[0] > base.gamma) != (attr.theta_hat > base.gamma):
            on_disc = True
    if kept == 0:
        raise RegimeMismatch("no feasible samples near the attractor")
    return lyap_neg / kept, eucl_neg / kept, on_disc, kept


def python_kernels():
    """Run the Python code, as on a machine where the C kernels do not load."""
    return mock.patch.object(_native, "library", return_value=None)


def _row_case(row_id, seed=3):
    draw = ROW_SAMPLERS[row_id][0](np.random.default_rng(seed))
    return closed_form(draw.params, draw.policy), draw.params, draw.policy


_RETRY_PARAMS = ModelParams(lam=13.6, r=0.06, nu=2.0, b=0.11, d=0.01)
_DEADLY_PARAMS = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1, d_e=0.15)


@pytest.mark.parametrize(
    "case,radius,n_samples",
    [
        *((row_id, 1e-3, 1000) for row_id in sorted(ROW_SAMPLERS)),
        ("fc/origin", 0.1, 1000),  # a quarter of the ball is feasible
        ("fr/disease-free", 0.1, 1),
        ("retry", 1e-3, 1000),  # two radius retries, down to 1e-5
        ("fc-deadly", 1e-3, 1000),
        ("fr-deadly", 1e-3, 400),
    ],
)
def test_certificate_matches_scalar_sampling(monkeypatch, case, radius, n_samples):
    def certificate():
        monkeypatch.setattr(attractor, "_RADIUS", radius)
        monkeypatch.setattr(attractor, "_N_SAMPLES", n_samples)
        monkeypatch.setattr(attractor, "_draws", {})
        return certify_stability(att, params, policy)

    if case == "retry":
        att, params, policy = closed_form(_RETRY_PARAMS, vfc1(4.5)), _RETRY_PARAMS, vfc1(4.5)
    elif case.endswith("-deadly"):
        policy = Policy(Family(case[:2].upper()), beta=3.0)
        att, params = closed_form(_DEADLY_PARAMS, policy), _DEADLY_PARAMS
    else:
        att, params, policy = _row_case(case)
    batched = certificate()
    if case == "retry":
        assert batched.radius_used < 1e-4
    g = field(params, policy)

    def reference_sample(prm, pol, *rest):
        return _reference_sample(att, pol, g, *rest)

    with mock.patch.object(attractor, "_sample_lyapunov", reference_sample):
        reference = certificate()
    assert repr(batched) == repr(reference)
    with python_kernels():
        python = certificate()
    assert repr(python) == repr(reference)


@pytest.mark.parametrize("seed,radius", [(0, 1e-3), (1, 0.3), (7, 1e-5)])
def test_draw_offsets_follow_the_scalar_stream(seed, radius):
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(500):
        direction = rng.normal(size=3)
        unit = direction / np.linalg.norm(direction)
        expected.append(unit * radius * rng.random() ** (1.0 / 3.0))
    rng = np.random.default_rng(seed)
    drawn = np.concatenate([attractor._draw_offsets(rng, n, radius) for n in (1, 199, 300)])
    assert np.array_equal(drawn, np.array(expected))


_POINTS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda tp: (tp[0], tp[1] * (1.0 - tp[0]))
    ),
    st.sampled_from([(0.0, 0.0), (0.0, 0.4), (0.3, 0.0), (0.6, 0.4), (0.0, 1.0), (1.0, 0.0)]),
)


@settings(deadline=None)
@given(
    policy=POLICIES,
    point=_POINTS,
    params=st.sampled_from([ModelParams(4.0, 1.0, 2.0, 1.0, 0.8), _DEADLY_PARAMS]),
    radius=st.sampled_from([1e-3, 0.05, 0.3]),
    n_samples=st.sampled_from([1, 2, 37, 300]),
    lyapunov=st.booleans(),
)
def test_sample_lyapunov_matches_scalar_loop(policy, point, params, radius, n_samples, lyapunov):
    theta, psi = point
    att = Attractor(theta, psi, _eta_at(theta, psi, params), AttractorKind.INTERIOR, "x", False)
    x_hat = np.array([theta, psi, att.eta_hat])
    p_form = np.eye(3)
    if lyapunov:
        p_form = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]])
    args = (x_hat, p_form, radius, n_samples)
    with mock.patch.dict(attractor._draws):  # drop the streams of radii no certificate tries
        batched = _sample_lyapunov(params, policy, *args)
        assert repr(batched) == repr(_reference_sample(att, policy, field(params, policy), *args))
        with python_kernels():
            assert repr(_sample_lyapunov(params, policy, *args)) == repr(batched)


@pytest.mark.parametrize(
    "policy,point",
    [
        (fc(2.0), (0.2, 0.5)),  # the clamp beta * psi = 1 crosses the ball
        (vfc2(4.0, 0.3), (0.3, 0.2)),  # the threshold crosses the ball
        (vfc2(4.0, 0.3, theta_variant=True), (0.3, 0.2)),
    ],
)
def test_sample_lyapunov_flags_discontinuity(monkeypatch, policy, point):
    monkeypatch.setattr(attractor, "_draws", {})
    params = ModelParams(4.0, 1.0, 2.0, 1.0, 0.8)
    att = Attractor(*point, _eta_at(*point, params), AttractorKind.INTERIOR, "x", False)
    args = (np.array([*point, att.eta_hat]), np.eye(3), 1e-2, 200)
    batched = _sample_lyapunov(params, policy, *args)
    assert batched[2] is True
    assert repr(batched) == repr(_reference_sample(att, policy, field(params, policy), *args))


_FORM = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]])
_FACES = st.one_of(
    _POINTS,
    st.sampled_from([(1e-9, 0.5), (0.3, 1.0 - 0.3 - 1e-12), (1.0 - 1e-9, 0.0), (0.0, 1.0 - 1e-9)]),
)


def _onto_zero_form(params, policy, x_hat, p_form, offsets, steps):
    # fixed-point steps that move each offset z onto z.(P g) = 0, g the field
    # at x_hat + z: six leave |z.(P g)| within a few ulps of the sum of its terms
    g_rows = field_rows(params, policy)
    for _ in range(steps):
        pg = g_rows(x_hat + offsets) @ p_form.T
        offsets = offsets - (np.sum(offsets * pg, axis=1) / np.sum(pg * pg, axis=1))[:, None] * pg
    return offsets


@settings(deadline=None, max_examples=150)
@given(
    policy=POLICIES,
    params=PARAMS,
    point=_FACES,
    radius=st.sampled_from([1e-9, 1e-3, 0.05, 0.3]),
    seed=st.integers(0, 3),
    attempts=st.integers(1, 300),
    missing=st.integers(1, 300),
    lyapunov=st.booleans(),
    steps=st.just(0),  # the examples below move their offsets onto a zero of the form
)
# theta == Gamma: half the samples lie across the threshold
@example(vfc2(4.0, 0.3), _DEADLY_PARAMS, (0.3, 0.2), 1e-3, 0, 200, 200, True, 0)
@example(vfc2(4.0, 0.3, theta_variant=True), _DEADLY_PARAMS, (0.3, 0.2), 1e-3, 1, 200, 150,
         False, 0)
@example(mutant(vfc2(4.0, 0.3), p=0.5, eps=0.1), _DEADLY_PARAMS, (0.3, 0.2), 0.05, 2, 300, 40,
         True, 0)
# a mutant over every base family, with a base q~ > 1 where it can have one
@example(mutant(fc(3.0), p=0.2, eps=0.1), _DEADLY_PARAMS, (0.2, 0.3), 0.3, 0, 300, 300, True, 0)
@example(mutant(fr(50.0), p=0.7, eps=0.04), _DEADLY_PARAMS, (0.2, 0.5), 0.05, 1, 300, 100, True, 0)
@example(mutant(vfc1(9.0), p=0.0, eps=0.5), _DEADLY_PARAMS, (0.4, 0.4), 0.05, 2, 300, 300,
         False, 0)
@example(mutant(vfc2(9.0, 0.1, theta_variant=True), p=1.0, eps=0.2), _DEADLY_PARAMS, (0.1, 0.6),
         0.3, 3, 300, 300, True, 0)
@example(mutant(static(0.4), p=0.9, eps=0.3), _DEADLY_PARAMS, (0.2, 0.3), 0.05, 0, 50, 10, True, 0)
# vertices: a quarter, a half or less of the ball is feasible
@example(fc(2.0), _DEADLY_PARAMS, (0.0, 0.0), 0.3, 0, 300, 300, True, 0)
@example(fc(2.0), _DEADLY_PARAMS, (0.0, 1.0), 0.3, 1, 300, 300, False, 0)
@example(fr(3.0), _DEADLY_PARAMS, (1.0, 0.0), 0.05, 2, 300, 300, True, 0)
# forms within a few ulps of 0 (_onto_zero_form): their signs hang on the
# last bit, so the two passes agree only where they sum alike
@example(fc(2.0), _DEADLY_PARAMS, (0.2, 0.3), 1e-3, 1, 300, 300, False, 6)
@example(fc(2.0), _DEADLY_PARAMS, (0.2, 0.3), 1e-3, 0, 300, 300, True, 6)
@example(fr(3.0), _DEADLY_PARAMS, (0.3, 0.4), 1e-3, 2, 300, 300, True, 6)
@example(vfc1(4.0), _DEADLY_PARAMS, (0.4, 0.2), 1e-3, 3, 300, 300, False, 6)
def test_certify_pass_counts_as_numpy(policy, params, point, radius, seed, attempts, missing,
                                      lyapunov, steps):
    # the C pass against the numpy pass, all five counts: kept, the two form
    # signs, the side test and the threshold crossings
    if _native.library() is None:
        pytest.skip("the C kernels cannot be built here")
    theta, psi = point
    x_hat = np.array([theta, psi, _eta_at(theta, psi, params)])
    p_form = _FORM if lyapunov else np.eye(3)
    offsets = attractor._draw_offsets(np.random.default_rng(seed), attempts, radius)
    offsets = _onto_zero_form(params, policy, x_hat, p_form, offsets, steps)
    native = attractor._tally(params, policy, x_hat, p_form)(offsets, missing)
    numpy_pass = attractor._numpy_tally(params, policy, x_hat, p_form)(offsets, missing)
    assert native == [int(count) for count in numpy_pass]


def test_certify_pass_skips_the_attempts_the_stream_skips(monkeypatch):
    # a stream whose all-zero directions give rows of NaN: the rounds of the
    # C pass and of the numpy pass take the same samples
    def offsets(rng, attempts, radius):
        u = rng.random(attempts)
        rows = np.column_stack([np.cos(7e3 * u), np.sin(1e4 * u), np.cos(3e4 * u)]) * radius
        rows[(u * 1e6).astype(np.int64) % 4 == 1] = np.nan
        return rows

    monkeypatch.setattr(attractor, "_draw_offsets", offsets)
    params = ModelParams(4.0, 1.0, 2.0, 1.0, 0.8)
    x_hat = np.array([0.02, 0.3, _eta_at(0.02, 0.3, params)])
    args = (params, vfc2(4.0, 0.02), x_hat, _FORM, 0.05, 300)
    monkeypatch.setattr(attractor, "_draws", {})
    native = _sample_lyapunov(*args)
    assert np.isnan(attractor._draws[0.05].offsets).any()  # an attempt had an all-zero direction
    monkeypatch.setattr(attractor, "_draws", {})
    with python_kernels():
        assert repr(_sample_lyapunov(*args)) == repr(native)
    assert native[3] == 300 and native[2] is True


_ENTRIES = st.one_of(
    st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, -1.0, 1.0, -2.5, -1e-300])
)


@given(st.lists(_ENTRIES, min_size=9, max_size=9))
@example([-1.0, 0.0, -0.0, 2.0, -3.0, 0.5, -0.0, 0.0, -1e-300])
def test_kronecker_system_matches_np_kron(entries):
    # bit for bit, the signed zeros of 0.0 * a[k, l] included; a is the
    # transposed view certify_stability passes
    a = np.array(entries).reshape(3, 3).T
    eye = np.eye(3)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0.0, inf - inf
        expected = np.kron(eye, a) + np.kron(a, eye)
        built = attractor._kronecker_system(a)
    assert repr(built.tolist()) == repr(expected.tolist())


@pytest.mark.parametrize("row_id", ["fc/coexistence", "fr/disease-free", "fc/origin"])
def test_cached_draws_give_the_fresh_certificate(monkeypatch, row_id):
    att, params, policy = _row_case(row_id)
    monkeypatch.setattr(attractor, "_draws", {})
    fresh = repr(certify_stability(att, params, policy))
    assert list(attractor._draws) == [1e-3]
    assert repr(certify_stability(att, params, policy)) == fresh
    # a stream already drawn past every attempt the certificate reads
    monkeypatch.setattr(attractor, "_draws", {1e-3: attractor._Draws(1e-3)})
    attractor._draws[1e-3].between(0, 50 * attractor._N_SAMPLES)
    assert repr(certify_stability(att, params, policy)) == fresh


def test_cached_draws_skip_the_attempts_the_stream_skips(monkeypatch):
    # an all-zero direction gives a row of NaN; the cache keeps one row per
    # attempt, so each round gets its attempts' rows wherever it starts
    def offsets(rng, attempts, radius):
        u = rng.random(attempts)
        rows = np.column_stack([u * radius] * 3)
        rows[(u * 1e6).astype(np.int64) % 3 == 2] = np.nan
        return rows

    monkeypatch.setattr(attractor, "_draw_offsets", offsets)
    expected = offsets(np.random.default_rng(0), 400, 0.1)
    assert np.isnan(expected).any()
    draws = attractor._Draws(0.1)
    for start, stop in [(0, 7), (7, 7), (7, 100), (3, 50), (100, 400), (0, 400)]:
        assert np.array_equal(draws.between(start, stop), expected[start:stop], equal_nan=True)


def test_draw_cache_keeps_a_bounded_number_of_streams(monkeypatch):
    # certificates over every row of the catalogue keep streams of the retry
    # ladder's radii only, none longer than one certificate's budget
    monkeypatch.setattr(attractor, "_draws", {})
    for row_id in sorted(ROW_SAMPLERS):
        for seed in range(3):
            certify_stability(*_row_case(row_id, seed))
    assert 1e-3 in attractor._draws and set(attractor._draws) <= {1e-3, 1e-3 / 10, 1e-3 / 10 / 10}
    assert all(len(d.offsets) <= 50 * attractor._N_SAMPLES for d in attractor._draws.values())


def test_retry_certificate_keeps_a_stream_per_radius(monkeypatch):
    # the two-retry case draws at 1e-3, 1e-4 and 1e-5; certifying it again
    # reads the kept streams, draws nothing and gives the same certificate
    monkeypatch.setattr(attractor, "_draws", {})
    att = closed_form(_RETRY_PARAMS, vfc1(4.5))
    first = certify_stability(att, _RETRY_PARAMS, vfc1(4.5))
    assert first.radius_used == 1e-3 / 10 / 10
    assert list(attractor._draws) == [1e-3, 1e-3 / 10, 1e-3 / 10 / 10]
    lengths = [len(d.offsets) for d in attractor._draws.values()]
    assert all(lengths)
    assert repr(certify_stability(att, _RETRY_PARAMS, vfc1(4.5))) == repr(first)
    assert [len(d.offsets) for d in attractor._draws.values()] == lengths


def test_draw_stream_is_shared_safely_between_threads():
    # threads extending one stream at once must each see the stream's
    # offsets: an extension lost or drawn twice would shift them
    reference = attractor._draw_offsets(np.random.default_rng(0), 4000, 1e-3)
    draws = attractor._Draws(1e-3)
    results, errors = [], []

    def take(step):
        try:
            got = [draws.between(a, min(a + step, 4000)) for a in range(0, 4000, step)]
            results.append(np.concatenate(got))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        steps = (7, 13, 50, 333, 4000, 1)
        threads = [threading.Thread(target=take, args=(step,)) for step in steps]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(results) == len(threads)
    assert all(np.array_equal(got, reference) for got in results)
