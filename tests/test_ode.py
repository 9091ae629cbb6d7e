import math
import types
import warnings

import numpy as np
import pytest
import scipy.integrate._ivp.common as scipy_common
import scipy.integrate._ivp.rk as scipy_rk
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from vaxgame import (
    ModelParams,
    OdeState,
    accept_prob,
    closed_form,
    fc,
    find_equilibrium,
    fr,
    integrate,
    mutant,
    rhs,
    varrho,
    vfc1,
    vfc2,
)
from vaxgame import _native, ode
from vaxgame.errors import (
    DegenerateState,
    DomainError,
    IndicatorNonstationary,
    InvalidParams,
    VaxGameError,
)
from vaxgame.ode import field, field_rows
from vaxgame.policy import threshold

from rowgen import PARAMS, POLICIES, UNIT


def ratios(params):
    return params.lam / (params.r + params.b + params.d_e), params.b / params.nu


def test_disease_free_face_invariant(left_params):
    g = rhs(OdeState(0.0, 0.3, 0.5), left_params, fc(2.0))
    assert g[0] == 0.0


def test_field_vanishes_at_no_vaccination_level(left_params):
    rho, _ = ratios(left_params)
    point = OdeState(1.0 - 1.0 / rho, 0.0, 0.1)
    g = rhs(point, left_params, fc(0.5))
    assert abs(g[0]) < 1e-14
    assert abs(g[1]) < 1e-14


def test_field_vanishes_at_coexistence(left_params):
    # saturated acceptance: q = 1 at the point, by a large behaviour parameter
    rho, mu = ratios(left_params)
    theta_e = 1.0 - 1.0 / rho - 1.0 / (mu * rho)
    psi_e = 1.0 / (mu * rho)
    eta_hat = (left_params.b - left_params.d) / varrho(theta_e, psi_e, left_params)
    g = rhs(OdeState(theta_e, psi_e, eta_hat), left_params, fc(3.0))
    assert np.linalg.norm(g[:2]) < 1e-6
    assert abs(g[2]) < 1e-12


def _docstring_field(theta, psi, eta, params, policy):
    """g as the vaxgame.ode docstring writes it, and the size of each component's terms."""
    p = params
    phi = 1.0 - theta - psi
    varrho = p.b + p.d + p.d_e * theta + p.lam * theta * phi + p.nu * phi + p.r * theta
    q = accept_prob(policy, theta, psi)
    net_birth = p.b - p.d_e * theta
    g = (
        theta / (eta * varrho) * (phi * p.lam - p.r - p.d_e - net_birth),
        (q * phi * p.nu - net_birth * psi) / (eta * varrho),
        (p.b - p.d - p.d_e * theta) / varrho - eta,
    )
    size = (
        theta / (eta * varrho) * (phi * p.lam + p.r + p.d_e + net_birth),
        (q * phi * p.nu + net_birth * psi) / (eta * varrho),
        abs(p.b - p.d - p.d_e * theta) / varrho + eta,
    )
    return np.array(g), np.array(size)


@given(
    params=PARAMS,
    policy=POLICIES,
    theta=st.one_of(st.just(0.0), UNIT),
    psi_share=st.one_of(st.sampled_from([0.0, 1.0]), UNIT),  # 1.0: theta + psi = 1
    eta=st.floats(0.01, 5.0),
)
@example(params=ModelParams(4.0, 1.0, 2.0, 1.0, 0.8), policy=vfc2(6.0, 0.25),
         theta=0.25, psi_share=0.4, eta=0.5)  # on the threshold: vaccination off
@example(params=ModelParams(4.0, 1.0, 2.0, 1.0, 0.8), policy=vfc2(6.0, 0.25, theta_variant=True),
         theta=0.25, psi_share=0.4, eta=0.5)
def test_rhs_matches_docstring_field(params, policy, theta, psi_share, eta):
    psi = psi_share * (1.0 - theta)
    g = rhs(OdeState(theta, psi, eta), params, policy)
    expected, size = _docstring_field(theta, psi, eta, params, policy)
    assert np.all(np.abs(g - expected) <= 1e-12 * size)


def _threshold(policy):
    return (policy.mutant_base or policy).gamma


def _strided(ys):
    """``ys`` as the strided view ``rows[:, 1:]`` that integrate's settle scan passes."""
    return np.column_stack((np.arange(len(ys), dtype=float), ys))[:, 1:]


@st.composite
def _policy_and_states(draw):
    """A policy and a batch of states: faces, vertices, off-simplex, -0.0, NaN, eta <= 0, none."""
    policy = draw(POLICIES)
    coord = st.one_of(
        UNIT,
        st.sampled_from([0.0, -0.0, 1.0, math.nan, _threshold(policy)]),
        st.floats(-0.2, 1.2),
    )
    eta = st.one_of(st.floats(0.01, 5.0), st.sampled_from([0.0, -0.0, -1.0, math.nan]))

    @st.composite
    def state(draw):
        theta, psi = draw(coord), draw(coord)
        if draw(st.booleans()):  # onto the face theta + psi = 1
            psi = 1.0 - theta
        return theta, psi, draw(eta)

    ys = np.array(draw(st.lists(state(), max_size=40)), dtype=float).reshape(-1, 3)
    return policy, _strided(ys) if draw(st.booleans()) else ys


def _threshold_rows(gamma):
    rows = [(gamma, 0.4, 0.5), (gamma, 1.0 - gamma, 0.5), (gamma, -0.0, 0.5), (gamma, 0.0, -0.0)]
    return np.array(rows)


def _rows_or_error(rows_fn):
    try:
        rows = rows_fn()
        return rows.shape, repr(rows.tolist())
    except DegenerateState as exc:
        return repr(exc)


# rates of 1e-300 and a projection rounding theta + psi above 1 give phi < 0
# and a varrho that vanishes: at a live row, and at a dead one (eta <= 0)
_VANISHING = ModelParams(lam=1e-300, r=0.0, nu=1.0, b=1e-300, d=0.0)


@given(params=PARAMS, case=_policy_and_states())
@example(params=ModelParams(4.0, 1.0, 2.0, 1.0, 0.8),
         case=(vfc2(6.0, 0.25), _threshold_rows(0.25)))  # on the threshold: vaccination off
@example(params=ModelParams(4.0, 1.0, 2.0, 1.0, 0.8),
         case=(vfc2(6.0, 0.25, theta_variant=True), _threshold_rows(0.25)))
@example(params=_VANISHING,
         case=(fc(1.0), np.array([(0.2, 0.1, 1.0), (0.7, 0.95, 1.0), (0.7, 0.95, 0.5)])))
@example(params=_VANISHING,
         case=(fc(1.0), _strided(np.array([(0.2, 0.1, 1.0), (0.7, 0.95, 0.0), (0.7, 0.95, -1.0)]))))
@example(params=ModelParams(4.0, 1.0, 2.0, 1.0, 0.8),
         case=(vfc2(4.0, 0.2), _strided(np.array([(0.2, 0.4, 0.5), (1.3, -0.2, math.nan)]))))
def test_field_rows_equal_scalar_field(params, case):
    # every bit and signed zero of g row by row, or g's DegenerateState
    policy, ys = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _rows_or_error(lambda: field_rows(params, policy)(ys))
    g = field(params, policy)
    assert rows == _rows_or_error(lambda: np.array([g(y) for y in ys]).reshape(ys.shape))


def test_eta_nullcline_at_equilibria(left_params):
    for pol in (fc(0.5), fc(3.0), vfc1(4.0)):
        att = closed_form(left_params, pol)
        assert att.eta_hat == pytest.approx(
            (left_params.b - left_params.d - left_params.d_e * att.theta_hat)
            / varrho(att.theta_hat, att.psi_hat, left_params),
            rel=1e-12,
        )


def test_integrate_reaches_no_vaccination_level(left_params):
    att = closed_form(left_params, fc(0.5))
    path = integrate(OdeState(0.21, 0.001, 1.0), left_params, fc(0.5), horizon=1e4)
    assert abs(path.endpoint.theta - att.theta_hat) <= 1e-4
    assert abs(path.endpoint.psi - att.psi_hat) <= 1e-4
    assert path.settled


def test_integrate_reaches_disease_free(right_params):
    # acceptance at the endpoint stays below 1 for this behaviour parameter
    rho, mu = ratios(right_params)
    assert mu * rho < 1.5 < mu + 1.0
    path = integrate(OdeState(0.3, 0.01, 1.0), right_params, fc(1.5), horizon=1e4)
    assert abs(path.endpoint.theta - 0.0) <= 1e-4
    assert abs(path.endpoint.psi - (1.0 - mu / 1.5)) <= 1e-4


def test_integrate_saturated_disease_free(right_params):
    # beyond the clamp the vaccinated share settles at 1/(mu+1) instead
    _, mu = ratios(right_params)
    path = integrate(OdeState(0.3, 0.01, 1.0), right_params, fc(2.0), horizon=1e4)
    assert abs(path.endpoint.psi - 1.0 / (mu + 1.0)) <= 1e-4


def test_disease_free_face_stays_invariant(left_params):
    path = integrate(OdeState(0.0, 0.25, 1.0), left_params, fc(2.5), horizon=50.0)
    assert np.all(path.states[:, 0] == 0.0)


@pytest.mark.parametrize("theta,psi", [(0.3, 0.9), (-0.01, 0.5), (0.5, -2e-9), (1.0 + 2e-9, 0.0)])
def test_integrate_rejects_a_start_outside_the_simplex(left_params, theta, psi):
    # bad input, not the "integrator bug" of a state that left the simplex
    with pytest.raises(DomainError, match="start fractions must lie in the simplex"):
        integrate(OdeState(theta, psi, 1.0), left_params, fc(2.5), horizon=1.0)


@pytest.mark.parametrize("theta,psi", [(0.3, 0.9), (-0.01, 0.5), (0.5, -2e-9), (1.0 + 2e-9, 0.0)])
def test_find_equilibrium_rejects_a_guess_outside_the_simplex(left_params, theta, psi):
    # (0.3, 0.9) used to raise StepFailure ("state left the simplex")
    with pytest.raises(DomainError, match="guess fractions must lie in the simplex"):
        find_equilibrium(OdeState(theta, psi, 1.0), left_params, fc(1.0))


@pytest.mark.parametrize(
    "guess,match",
    [
        # a NaN ran a full Newton and then failed in the integration fallback
        (OdeState(math.nan, 0.1, 1.0), "guess state must be finite"),
        (OdeState(0.3, math.inf, 1.0), "guess state must be finite"),
        # an infinite eta warned "invalid value encountered in subtract"
        (OdeState(0.3, 0.1, math.inf), "guess state must be finite"),
        (OdeState(0.3, 0.1, 1.0, t=math.nan), "guess state must be finite"),
        # eta <= 0 was floored to 1e-300 and reported as converged
        (OdeState(0.3, 0.1, 0.0), "guess eta must be positive"),
        (OdeState(0.0, 0.0, -1.0), "guess eta must be positive"),
    ],
)
def test_find_equilibrium_rejects_a_bad_guess(left_params, guess, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=match):
            find_equilibrium(guess, left_params, fc(1.0))


@pytest.mark.parametrize("native", [True, False])
@pytest.mark.parametrize("t,horizon", [(1e10, 1e-7), (1.0, 1e-16), (1e300, 1e280)])
def test_integrate_rejects_a_horizon_that_does_not_move_t(monkeypatch, left_params, native, t,
                                                          horizon):
    # t + horizon == t (at 1e300, t + 1e6, the cap, too): the C loop returned
    # a path of 0 rows, the Python loop numpy's bare "need at least one array
    # to concatenate"
    if not native:
        monkeypatch.setattr(_native, "library", lambda: None)
    with pytest.raises(InvalidParams, match="does not move t"):
        integrate(OdeState(0.2, 0.1, 1.0, t=t), left_params, fc(1.0), horizon=horizon)
    if t == 1.0:  # one ulp of t does move it
        path = integrate(OdeState(0.2, 0.1, 1.0, t=t), left_params, fc(1.0), horizon=2.3e-16)
        assert path.t.tolist() == [1.0, 1.0000000000000002]


@pytest.mark.parametrize("theta,psi", [(-1e-9, 0.5), (0.5, 0.5 + 5e-10), (0.0, 1.0)])
def test_integrate_clips_a_start_within_rounding_of_the_simplex(left_params, theta, psi):
    path = integrate(OdeState(theta, psi, 1.0), left_params, fc(2.5), horizon=1.0)
    assert path.states[0, 0] >= 0.0 and path.states[0, 0] + path.states[0, 1] <= 1.0


def test_simplex_forward_invariance(left_params):
    rng = np.random.default_rng(8)
    for _ in range(5):
        theta = rng.uniform(0, 1)
        psi = rng.uniform(0, 1 - theta)
        path = integrate(
            OdeState(theta, psi, rng.uniform(0.05, 2.0)),
            left_params,
            fr(rng.uniform(0, 6)),
            horizon=200.0,
        )
        assert path.states[:, 0].min() >= -1e-10
        assert path.states[:, 1].min() >= -1e-10
        assert (path.states[:, 0] + path.states[:, 1]).max() <= 1.0 + 1e-10


def test_find_equilibrium_coexistence(left_params):
    att = closed_form(left_params, fc(3.0))
    res = find_equilibrium(OdeState(0.3, 0.45, 0.1), left_params, fc(3.0))
    assert res.converged and res.residual < 1e-10
    assert res.state.theta == pytest.approx(att.theta_hat, abs=1e-9)
    assert res.state.psi == pytest.approx(att.psi_hat, abs=1e-9)


def test_find_equilibrium_origin_fixed():
    params = ModelParams(lam=1.0, r=1.0, nu=1.0, b=0.5, d=0.2)
    res = find_equilibrium(OdeState(0.0, 0.0, 0.3), params, fc(0.3))
    assert res.converged
    assert res.state.theta == 0.0 and res.state.psi == 0.0


def test_find_equilibrium_rejects_reachable_threshold():
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
    with pytest.raises(IndicatorNonstationary):
        find_equilibrium(OdeState(0.3, 0.2, 0.1), params, vfc2(6.0, 0.2))


def test_find_equilibrium_unreachable_threshold_is_fine():
    # Gamma above the endemic level: vigilance never triggers
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
    rho = 4.0 / 2.0
    res = find_equilibrium(OdeState(0.4, 0.05, 0.1), params, vfc2(6.0, 0.9))
    assert res.converged
    assert res.state.theta == pytest.approx(1.0 - 1.0 / rho, abs=1e-9)


def test_mutant_over_vfc2_arms_the_threshold_event():
    # a mutant with eps = 0 responds as its VFC2 base and must integrate
    # the same way: the threshold event and the hop read the base's Gamma
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
    paths = [
        integrate(OdeState(0.25, 0.1, 1.0), params, pol, horizon=2.5,
                  stop_at_equilibrium=False, rtol=1e-9, atol=1e-11)
        for pol in (vfc2(6.0, 0.2), mutant(vfc2(6.0, 0.2), p=0.0, eps=0.0))
    ]
    assert paths[1].n_segments == paths[0].n_segments > 1
    assert np.array_equal(paths[1].t, paths[0].t)
    assert np.array_equal(paths[1].states, paths[0].states)


def test_vfc2_integration_oscillates_then_slides():
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
    pol = vfc2(6.0, 0.2)
    path = integrate(
        OdeState(0.25, 0.1, 0.1), params, pol, horizon=30.0, stop_at_equilibrium=False,
        rtol=1e-9, atol=1e-11,
    )
    assert path.zeno_truncated
    # crossings accumulate toward the sliding centre (Gamma, 1-1/rho-Gamma)
    from vaxgame import count_crossings

    assert count_crossings(path.states[:, 0], 0.2) >= 10
    assert path.endpoint.theta == pytest.approx(0.2, abs=1e-6)
    assert path.endpoint.psi == pytest.approx(0.3, abs=0.01)


def test_tableau_is_scipys():
    # ode.py holds the one copy of the tableau: _python_segment reads its
    # rows and the C kernel _TABLEAU, the flat array built from them
    c = dop853_coefficients
    assert ode._N_STAGES == c.N_STAGES
    expected = [*c.A.ravel(), *c.B, *c.E3, *c.E5, *c.D.ravel()]
    assert repr(ode._TABLEAU.tolist()) == repr([float(v) for v in expected])


def _crossing_event(gamma):
    def crossing(t, y):
        return y[0] - gamma

    crossing.terminal = True
    return [crossing]


def _scipy_segments(params, policy, rtol, atol, settle):
    """integrate's segment solver over scipy's solve_ivp(method="DOP853"): the oracle.

    With ``settle`` set, the segment is cut at its first row after the start
    where max|g| is below EQUILIBRIUM_TOL.
    """
    g = field(params, policy)
    gamma = threshold(policy)

    def segment(t, t_bound, y):
        events = None if gamma is None else _crossing_event(gamma)
        sol = solve_ivp(
            lambda t, y: g(y), (t, t_bound), y, method="DOP853", rtol=rtol, atol=atol,
            events=events,
        )
        assert sol.status in (0, 1), sol.message
        rows = np.column_stack((sol.t, sol.y.T))
        res = [np.max(np.abs(g(row[1:]))) for row in rows[1:]]
        quiet = [i for i, r in enumerate(res, 1) if r < ode.EQUILIBRIUM_TOL]
        if settle and quiet:
            return rows[: quiet[0] + 1], _native.ODE_SETTLED
        return rows, _native.ODE_EVENT if sol.status == 1 else _native.ODE_DONE

    return segment


_LEFT = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1)
_DEADLY = ModelParams(lam=3.0, r=0.8, nu=1.2, b=0.9, d=0.3, d_e=0.15)


# the small-eta VFC1 orbit (eta * varrho = 0.013), whose stiff field keeps
# chattering at the rounding floor, and the first point of atlas-fr-deadly,
# whose orbit lands exactly on g == 0
_SMALL_ETA = (
    vfc1(0.29064836322973253),
    ModelParams(
        lam=7.712682861231661, r=0.7231240520924253, nu=0.054900193501863453,
        b=0.12211948428163746, d=0.08477374817391488, d_e=0.02722291124369868,
    ),
    OdeState(0.620290372097154, 0.0, 0.11358443905066375),
)
_EXACT_LANDING = (
    fr(0.2), ModelParams(lam=2.0, r=0.3, nu=1.0, b=0.6, d=0.2, d_e=0.15), OdeState(0.3, 0.2, 1.0)
)


def test_integrate_settles_at_its_first_quiet_row():
    # under a count of 100 quiet steps in a row, the first never settled and
    # took 815,451 rows to t = 1e4, and the second ran on to t = 2046 over
    # 14 segments
    policy, params, start = _SMALL_ETA
    path = integrate(start, params, policy, horizon=1e4)
    assert path.settled and path.t[-1] <= 62
    policy, params, start = _EXACT_LANDING
    path = integrate(start, params, policy, horizon=1e4)
    assert path.settled and path.n_segments <= 4


@pytest.mark.parametrize(
    "policy,params,start",
    [
        (fc(3.0), _LEFT, OdeState(0.2, 0.1, 1.0)),
        (fc(0.5), _LEFT, OdeState(0.21, 0.001, 1.0)),
        (fr(3.0), _LEFT, OdeState(0.2, 0.1, 1.0)),
        (vfc1(5.0), _LEFT, OdeState(0.2, 0.1, 1.0)),
        (fc(3.0), _DEADLY, OdeState(0.2, 0.1, 1.0)),
        (fr(4.0), _DEADLY, OdeState(0.3, 0.05, 0.5)),
    ],
)
def test_integrate_agrees_with_scipys_dop853(monkeypatch, policy, params, start):
    # the stepper is a transcription of scipy's DOP853 that sums each stage
    # in order, where numpy hands the sums to BLAS: the runs differ at
    # rounding level only
    ours = integrate(start, params, policy, horizon=1e4)
    # the Python chunk loop, which takes its segments from _segment_solver
    monkeypatch.setattr(_native, "library", lambda: None)
    monkeypatch.setattr(ode, "_segment_solver", _scipy_segments)
    theirs = integrate(start, params, policy, horizon=1e4)
    assert np.max(np.abs(ours.endpoint.as_array() - theirs.endpoint.as_array())) <= 1e-10
    assert ours.settled and (ours.settled, ours.n_segments) == (theirs.settled, theirs.n_segments)
    assert abs(len(ours.t) - len(theirs.t)) <= 0.02 * len(theirs.t)


def _dot_in_order(a, b):
    """np.dot for a matrix and a vector or matrix, each sum in index order."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    columns = b[:, None] if b.ndim == 1 else b
    out = np.empty((a.shape[0], columns.shape[1]))
    for m, row in enumerate(a.tolist()):
        for j, column in enumerate(columns.T.tolist()):
            acc = row[0] * column[0]
            for x, y in zip(row[1:], column[1:]):
                acc += x * y
            out[m, j] = acc
    return out[:, 0] if b.ndim == 1 else out


def _norm_in_order(x):
    x = np.ravel(x).tolist()
    acc = x[0] * x[0]
    for v in x[1:]:
        acc += v * v
    return np.float64(math.sqrt(acc))


class _NumpyInOrder(types.ModuleType):
    """numpy, but with np.dot and np.linalg.norm summing in index order."""

    dot = staticmethod(_dot_in_order)
    linalg = types.SimpleNamespace(norm=_norm_in_order)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize(
    "policy,params,start,t_bound",
    [
        (fc(3.0), _LEFT, (0.2, 0.1, 1.0), 30.0),
        (fr(3.0), _DEADLY, (0.2, 0.1, 1.0), 6.0),
        (vfc2(6.0, 0.2), ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8), (0.25, 0.1, 1.0), 6.0),
    ],
)
def test_python_segment_is_scipys_dop853_summed_in_order(monkeypatch, policy, params, start, t_bound):
    # scipy's own DOP853, with the sums it hands to BLAS taken in index
    # order, reproduces the transcription bit for bit, threshold event included
    in_order = _NumpyInOrder("numpy_in_order")
    monkeypatch.setattr(scipy_rk, "np", in_order)
    monkeypatch.setattr(scipy_common, "np", in_order)
    gamma = threshold(policy)
    g = field(params, policy)
    sol = solve_ivp(
        lambda t, y: g(y), (0.0, t_bound), np.array(start), method="DOP853", rtol=1e-10,
        atol=1e-12, events=None if gamma is None else _crossing_event(gamma),
    )
    rows, status = ode._python_segment(
        ode._scalar_field(params, policy), 0.0, t_bound, start, 1e-10, 1e-12, gamma
    )
    assert status == (_native.ODE_EVENT if sol.status == 1 else _native.ODE_DONE)
    assert repr(np.column_stack((sol.t, sol.y.T)).tolist()) == repr([list(r) for r in rows])



@pytest.mark.parametrize("y", [[0.2, 0.1], [[0.2, 0.1, 1.0]], 0.5])
def test_field_jacobian_rejects_a_state_of_the_wrong_shape(y):
    params = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1)
    with pytest.raises(VaxGameError, match="3 components"):
        ode.field_jacobian(params, fc(1.0), y)
