import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vaxgame import ModelParams, derive_ratios, validate
from vaxgame.errors import InvalidParams


def test_validate_accepts_growing_population():
    validate(ModelParams(lam=1, r=1, nu=1, b=1, d=0.5))


def test_validate_rejects_shrinking_population():
    with pytest.raises(InvalidParams, match="b > d"):
        ModelParams(lam=1, r=1, nu=1, b=0.5, d=0.5, d_e=0.1)


def test_validate_accepts_reference_setting(left_params):
    validate(left_params)


@pytest.mark.parametrize(
    "field,value",
    [("lam", 0.0), ("lam", -1.0), ("b", 0.0), ("r", -0.1), ("nu", math.inf)],
)
def test_validate_rejects_bad_rates(field, value):
    kwargs = dict(lam=1.0, r=1.0, nu=1.0, b=1.0, d=0.1)
    kwargs[field] = value
    with pytest.raises(InvalidParams):
        ModelParams(**kwargs)


def test_ratios_reference_values(left_params, right_params):
    # oracle: direct arithmetic on the defining formulas
    ratios = derive_ratios(left_params)
    assert ratios.rho == pytest.approx(8.549 / (1.188 + 0.322), abs=1e-15)
    assert ratios.rho == pytest.approx(5.66159, abs=5e-6)
    assert ratios.mu == pytest.approx(0.322 / 0.904, abs=1e-15)
    assert ratios.mu == pytest.approx(0.35619, abs=5e-6)

    ratios = derive_ratios(right_params)
    assert ratios.rho == pytest.approx(1.3228, abs=5e-5)
    assert ratios.mu == pytest.approx(0.79703, abs=5e-6)


def test_ratios_marginal_boundary():
    ratios = derive_ratios(ModelParams(lam=2, r=1, nu=1, b=1, d=0.5))
    assert ratios.rho == 1.0


def test_rho_e_equals_rho_without_excess_deaths(left_params):
    ratios = derive_ratios(left_params)
    assert ratios.rho_e == ratios.rho


def test_mu_infinite_when_no_vaccine():
    ratios = derive_ratios(ModelParams(lam=2, r=1, nu=0, b=1, d=0.2))
    assert math.isinf(ratios.mu)


@given(
    lam=st.floats(0.1, 50),
    r=st.floats(0, 5),
    nu=st.floats(0.01, 5),
    b=st.floats(0.05, 5),
    d_frac=st.floats(0, 0.9),
    d_e_frac=st.floats(0, 0.05),
    scale=st.floats(0.01, 100),
)
def test_ratios_scale_free_in_population(lam, r, nu, b, d_frac, d_e_frac, scale):
    # rates-only: multiplying every rate by one factor leaves ratios unchanged
    d = d_frac * b * 0.5
    d_e = d_e_frac * b * 0.5
    p1 = ModelParams(lam=lam, r=r, nu=nu, b=b, d=d, d_e=d_e)
    p2 = ModelParams(
        lam=lam * scale, r=r * scale, nu=nu * scale, b=b * scale, d=d * scale, d_e=d_e * scale
    )
    r1, r2 = derive_ratios(p1), derive_ratios(p2)
    assert r1.rho == pytest.approx(r2.rho, rel=1e-12)
    assert r1.mu == pytest.approx(r2.mu, rel=1e-12)
    assert r1.rho_e == pytest.approx(r2.rho_e, rel=1e-12)
    if d_e == 0:
        assert r1.rho_e == r1.rho
