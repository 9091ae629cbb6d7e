import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowgen import POLICIES, ROW_SAMPLERS
from vaxgame import (
    Attractor,
    AttractorKind,
    Family,
    ModelParams,
    Policy,
    certify_stability,
    closed_form,
    coexistence_point,
    deadly_coexistence_exact,
    fc,
    fr,
    verify_attractor,
    vfc1,
    vfc2,
    vfc2_limit_set,
)
from vaxgame import attractor
from vaxgame.attractor import DeadlyQuadratic, _eta_at, _propensity_rows, _sample_lyapunov
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
    from vaxgame import OdeState, integrate
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
    att = closed_form(left_params, fc(3.0))
    bad = Attractor(att.theta_hat, att.psi_hat, math.nan, att.kind, att.table_row, True)
    with pytest.raises(DegenerateState, match="non-finite Jacobian"):
        certify_stability(bad, left_params, fc(3.0))


def _reference_sample(attr, policy, g, x_hat, p_form, radius, n_samples, seed):
    """The per-sample loop the batched pass replaced: one scalar field call per sample."""
    q_tilde = propensity_fn(policy)
    rng = np.random.default_rng(seed)
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
    if case == "retry":
        att, params, policy = closed_form(_RETRY_PARAMS, vfc1(4.5)), _RETRY_PARAMS, vfc1(4.5)
    elif case.endswith("-deadly"):
        policy = Policy(Family(case[:2].upper()), beta=3.0)
        att, params = closed_form(_DEADLY_PARAMS, policy), _DEADLY_PARAMS
    else:
        att, params, policy = _row_case(case)
    batched = certify_stability(att, params, policy, radius=radius, n_samples=n_samples)
    if case == "retry":
        assert batched.radius_used < 1e-4
    g = field(params, policy)
    monkeypatch.setattr(
        attractor,
        "_sample_lyapunov",
        lambda attr, pol, g_rows, q_rows, *rest: _reference_sample(attr, pol, g, *rest),
    )
    reference = certify_stability(att, params, policy, radius=radius, n_samples=n_samples)
    assert repr(batched) == repr(reference)


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
    seed=st.integers(0, 3),
    lyapunov=st.booleans(),
)
def test_sample_lyapunov_matches_scalar_loop(policy, point, params, radius, n_samples, seed,
                                             lyapunov):
    theta, psi = point
    att = Attractor(theta, psi, _eta_at(theta, psi, params), AttractorKind.INTERIOR, "x", False)
    x_hat = np.array([theta, psi, att.eta_hat])
    p_form = np.eye(3)
    if lyapunov:
        p_form = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]])
    args = (x_hat, p_form, radius, n_samples, seed)
    rows = (field_rows(params, policy), _propensity_rows(params, policy))
    batched = _sample_lyapunov(att, policy, *rows, *args)
    assert repr(batched) == repr(_reference_sample(att, policy, field(params, policy), *args))


@pytest.mark.parametrize(
    "policy,point",
    [
        (fc(2.0), (0.2, 0.5)),  # the clamp beta * psi = 1 crosses the ball
        (vfc2(4.0, 0.3), (0.3, 0.2)),  # the threshold crosses the ball
        (vfc2(4.0, 0.3, theta_variant=True), (0.3, 0.2)),
    ],
)
def test_sample_lyapunov_flags_discontinuity(policy, point):
    params = ModelParams(4.0, 1.0, 2.0, 1.0, 0.8)
    att = Attractor(*point, _eta_at(*point, params), AttractorKind.INTERIOR, "x", False)
    args = (np.array([*point, att.eta_hat]), np.eye(3), 1e-2, 200, 0)
    rows = (field_rows(params, policy), _propensity_rows(params, policy))
    batched = _sample_lyapunov(att, policy, *rows, *args)
    assert batched[2] is True
    assert repr(batched) == repr(_reference_sample(att, policy, field(params, policy), *args))
