import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vaxgame import accept_prob, fc, fr, mutant, propensity, static, vfc1, vfc2
from vaxgame.errors import DomainError

simplex = st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(lambda p: p[0] + p[1] <= 1)


def test_propensity_reference_values():
    assert propensity(fc(2.0), 0.1, 0.3) == pytest.approx(0.6)
    assert propensity(fr(2.0), 0.1, 0.5) == pytest.approx(0.5)
    assert propensity(vfc1(5.0), 0.2, 0.4) == pytest.approx(0.4)


@pytest.mark.parametrize("policy", [fc(3.0), fr(3.0), vfc1(3.0)])
def test_no_crowd_no_propensity(policy):
    assert propensity(policy, 0.4, 0.0) == 0.0


def test_accept_prob_clamps():
    assert accept_prob(fc(10.0), 0.1, 0.5) == 1.0


def test_static_ignores_state():
    pol = static(0.37)
    for theta, psi in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)]:
        assert accept_prob(pol, theta, psi) == 0.37


def test_mutant_mixes_clamped_base_with_static():
    pol = mutant(fc(2.0), p=1.0, eps=0.5)
    # base q = min(1, 2*0.2) = 0.4; mixture 0.5*0.4 + 0.5*1
    assert accept_prob(pol, 0.0, 0.2) == pytest.approx(0.7)
    # a saturated base mixes at the probability level, not the propensity level
    strong = mutant(fc(10.0), p=0.0, eps=0.5)
    assert accept_prob(strong, 0.0, 0.5) == pytest.approx(0.5)
    assert propensity(strong, 0.0, 0.5) == pytest.approx(2.5)


def test_mutant_degenerate_mixtures():
    base = fr(2.5)
    assert accept_prob(mutant(base, p=0.9, eps=0.0), 0.2, 0.3) == accept_prob(base, 0.2, 0.3)
    assert accept_prob(mutant(base, p=0.9, eps=1.0), 0.2, 0.3) == 0.9


def test_mutant_nesting_rejected():
    with pytest.raises(DomainError):
        mutant(mutant(fc(1.0), p=0.5, eps=0.1), p=0.5, eps=0.1)


def test_vfc2_strict_threshold():
    pol = vfc2(4.0, gamma=0.2)
    assert propensity(pol, 0.2, 0.5) == 0.0  # at the threshold: off
    assert propensity(pol, 0.2 + 1e-12, 0.5) == pytest.approx(2.0)
    variant = vfc2(4.0, gamma=0.2, theta_variant=True)
    assert propensity(variant, 0.3, 0.5) == pytest.approx(1.2)
    assert propensity(variant, 0.1, 0.5) == 0.0


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_non_finite_beta_rejected(beta):
    with pytest.raises(DomainError, match="beta must be finite"):
        fc(beta)


def test_domain_error_outside_simplex():
    with pytest.raises(DomainError):
        propensity(fc(1.0), -0.1, 0.2)
    with pytest.raises(DomainError):
        accept_prob(fc(1.0), 0.2, 1.1)


@given(point=simplex, beta=st.floats(0, 50))
def test_accept_prob_in_unit_interval(point, beta):
    theta, psi = point
    for pol in (fc(beta), fr(beta), vfc1(beta), vfc2(beta, 0.3), static(0.5),
                mutant(fc(beta), p=1.0, eps=0.25)):
        q = accept_prob(pol, theta, psi)
        assert 0.0 <= q <= 1.0


@given(point=simplex, bump=st.floats(0.0, 0.5), beta=st.floats(0, 20))
def test_fc_monotone_in_crowd(point, bump, beta):
    theta, psi = point
    hi = max(psi, min(psi + bump, 1.0 - theta))
    assert accept_prob(fc(beta), theta, hi) >= accept_prob(fc(beta), theta, psi)
    assert propensity(fc(beta), theta, hi) >= propensity(fc(beta), theta, psi)


@given(point=simplex, bump=st.floats(0.0, 0.5), beta=st.floats(0, 20))
def test_vfc1_monotone_in_both(point, bump, beta):
    theta, psi = point
    hi_psi = max(psi, min(psi + bump, 1.0 - theta))
    hi_theta = max(theta, min(theta + bump, 1.0 - psi))
    assert accept_prob(vfc1(beta), theta, hi_psi) >= accept_prob(vfc1(beta), theta, psi)
    assert accept_prob(vfc1(beta), hi_theta, psi) >= accept_prob(vfc1(beta), theta, psi)


@given(psi=st.floats(0, 1), beta=st.floats(0.01, 20))
def test_fr_peaks_at_half_crowd(psi, beta):
    assert propensity(fr(beta), 0.0, psi) <= propensity(fr(beta), 0.0, 0.5) + 1e-12
