"""The C kernels of vaxgame._native against the Python loops they replace."""

import ctypes
import math
import os
import re
import struct
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vaxgame
from vaxgame import (
    ModelParams,
    OdeState,
    PopState,
    attractor,
    chain,
    fc,
    fr,
    integrate,
    make_initial,
    mutant,
    ode,
    simulate,
    static,
    vfc1,
    vfc2,
)
from vaxgame import _native
from vaxgame.chain import _RNG_BLOCK
from vaxgame.errors import DegenerateState, InvalidParams, StepFailure
from vaxgame.cli import main as cli_main
from vaxgame.policy import accept_fn, propensity_fn

from rowgen import PARAMS, POLICIES, UNIT

SRC = Path(vaxgame.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module", autouse=True)
def native_library():
    if _native.library() is None:
        pytest.skip("the C kernels cannot be built here")


def python_kernels():
    """Run the Python loops, as on a machine where the kernels do not load."""
    return mock.patch.object(_native, "library", return_value=None)


def _chain_run(initial, params, policy, max_steps, delta, stride, seed):
    gen = np.random.default_rng(seed)
    try:
        traj = simulate(initial, params, policy, max_steps, delta, stride, gen)
    except DegenerateState as exc:
        return repr(exc), gen.bit_generator.state
    arrays = (traj.epochs, traj.theta, traj.psi, traj.eta)
    return (
        repr([(a.dtype, a.tolist()) for a in arrays]),
        repr((traj.final, traj.frozen, traj.freeze_epoch, traj.diagnostics, traj.stride)),
        gen.bit_generator.state,
    )


_LEFT = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1)
# births barely outweigh deaths: a small population can die out
_DYING = ModelParams(lam=1.0, r=1.0, nu=0.5, b=0.31, d=0.3)
_PARAMS = st.sampled_from(
    [
        ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1),
        ModelParams(lam=3.0, r=0.8, nu=1.2, b=0.9, d=0.3, d_e=0.1),
        ModelParams(lam=1.749, r=1.0002, nu=0.404, b=0.322, d=0.1),
        ModelParams(lam=2.0, r=1.0, nu=1.0, b=1.0, d=0.5),
        _DYING,
    ]
)
# every rate zero at theta = 0: the first epoch has no event to draw
_DEAD = SimpleNamespace(lam=1.0, r=0.0, nu=0.0, b=0.0, d=0.0, d_e=0.0)


@settings(deadline=None, max_examples=60)
@given(
    policy=POLICIES,
    params=_PARAMS,
    n0=st.integers(2, 3000),
    theta0=UNIT,
    psi_share=UNIT,
    step0=st.integers(0, 40),
    n_steps=st.integers(0, 3000),
    delta=st.none() | st.floats(1e-3, 1.0),
    stride=st.integers(1, 400),
    seed=st.integers(0, 2**32),
)
@example(fc(3.0), _LEFT, 400, 0.2, 0.1, 0, 3 * _RNG_BLOCK + 17, None, 7, 1)  # four blocks
@example(fr(2.0), _LEFT, 400, 0.2, 0.1, 0, 5000, None, 3, 2)
@example(vfc1(5.0), _LEFT, 400, 0.2, 0.1, 0, 5000, None, 3, 3)
@example(vfc2(6.0, 0.2), _LEFT, 400, 0.3, 0.1, 0, 5000, None, 3, 4)
@example(vfc2(6.0, 0.2, theta_variant=True), _LEFT, 400, 0.3, 0.1, 0, 5000, None, 3, 5)
@example(static(0.3), _LEFT, 400, 0.2, 0.1, 0, 5000, None, 3, 6)
@example(mutant(fc(8.0), p=0.7, eps=0.04), _LEFT, 400, 0.2, 0.5, 0, 5000, None, 1, 7)
@example(mutant(fr(9.0), p=0.1, eps=0.3), _LEFT, 400, 0.2, 0.5, 0, 5000, None, 1, 8)
@example(mutant(vfc1(9.0), p=0.1, eps=0.3), _LEFT, 400, 0.2, 0.5, 0, 5000, None, 1, 9)
@example(mutant(vfc2(6.0, 0.2), p=0.9, eps=0.5), _LEFT, 400, 0.3, 0.1, 0, 5000, None, 2, 10)
@example(mutant(vfc2(6.0, 0.2, True), p=0.9, eps=0.5), _LEFT, 400, 0.3, 0.1, 0, 5000, None, 2, 11)
@example(mutant(static(0.2), p=0.9, eps=0.5), _LEFT, 400, 0.3, 0.1, 0, 5000, None, 2, 12)
@example(fc(1.0), _LEFT, 400, 0.2, 0.1, 37, 5000, None, 10, 13)  # initial.step > 0
@example(fc(0.5), _LEFT, 4, 0.25, 0.0, 0, 10_000, None, 1, 9)  # freezes
@example(fc(0.5), _DEAD, 50, 0.0, 0.0, 0, 10, None, 1, 0)  # degenerate at the first epoch
@example(fc(0.5), _LEFT, 50, 0.2, 0.0, 0, 0, None, 1, 0)  # no epoch to run
@example(fc(0.5), _DYING, 2, 0.0, 0.0, 0, 50, 0.1, 1, 1)  # dies out at epoch 2
@example(fc(0.5), _DYING, 2, 0.0, 0.0, 0, 50, 0.1, 7, 1)  # the same, off the stride
def test_native_chain_matches_python(
    policy, params, n0, theta0, psi_share, step0, n_steps, delta, stride, seed
):
    start = make_initial(n0, theta0, psi_share * (1.0 - theta0))
    initial = PopState(start.n_total, start.n_susc, start.n_inf, start.n_vacc, step=step0)
    args = (initial, params, policy, step0 + n_steps, delta, stride, seed)
    native = _chain_run(*args)
    with python_kernels():
        reference = _chain_run(*args)
    assert native == reference


def test_freeze_and_degenerate_cases_are_reached():
    # the examples above really exercise the freeze and the degenerate rate
    frozen = simulate(make_initial(4, 0.25, 0.0), _LEFT, fc(0.5), max_steps=10_000, stride=1, rng=9)
    assert frozen.frozen and frozen.freeze_epoch > 0
    with pytest.raises(DegenerateState, match="total event rate is zero"):
        simulate(make_initial(50, 0.0, 0.0), _DEAD, fc(0.5), max_steps=10, rng=0)
    for kernels in (python_kernels, nullcontext):  # the Python loop, then the kernel
        with kernels(), pytest.raises(DegenerateState, match="the population died out"):
            simulate(make_initial(2, 0.0, 0.0), _DYING, fc(0.5), 50, delta=0.1, stride=7, rng=1)


@pytest.mark.parametrize(
    "max_steps,stride",
    [(100, 2**64 + 1), (100, 2**64), (2**63, 1), (2**63 - 1, 1), (-(2**63) - 1, 1), (100.0, 1)],
)
def test_counts_beyond_int64_are_invalid(max_steps, stride):
    # ctypes would pass them on masked to 64 bits: a stride of 2**64 + 1 as 1
    for kernels in (python_kernels, nullcontext):
        with kernels(), pytest.raises(InvalidParams, match="64 bits|integers"):
            simulate(make_initial(100, 0.2, 0.1), _LEFT, fc(1.0), max_steps, stride=stride, rng=1)


def test_chain_kernel_stops_at_full_record_arrays():
    # stride 1 and two record slots: the kernel returns after two epochs,
    # and a call with new arrays goes on from there
    lib = _native.library()
    state = _native.ChainState(n=100, s=70, i=20, v=10, eta=100.0, inv_eta=0.01, min_eta=100.0)
    law = _native.make_law(_LEFT, fc(1.0))
    buf = np.random.default_rng(0).random(10)
    epochs = []
    for _ in range(3):
        rec = (np.full(3, -1, np.int64), *(np.empty(3) for _ in range(3)))
        code = lib.vaxgame_chain(
            ctypes.byref(state), ctypes.byref(law), 100, 0.01, 1, buf, len(buf), 2, *rec
        )
        assert code == _native.CHAIN_RECORDS_FULL and state.n_rec == 2
        assert rec[0][2] == -1  # the slot past the capacity stays untouched
        epochs += rec[0][:2].tolist()
    assert epochs == [1, 2, 3, 4, 5, 6] and state.k == 6 and state.bi == 6


@given(policy=POLICIES, theta=UNIT, psi_share=UNIT)
@example(policy=vfc2(4.0, 0.25), theta=0.25, psi_share=0.4)  # on the threshold
@example(policy=vfc2(4.0, 0.25, theta_variant=True), theta=0.25, psi_share=0.4)
@example(policy=mutant(fr(50.0), p=0.7, eps=0.04), theta=0.2, psi_share=0.5)  # base q~ > 1
# products whose grouping changes the rounding: (beta * psi) * (1 - psi), (beta * theta) * psi
@example(policy=fr(3.0), theta=0.0, psi_share=0.3)
@example(policy=vfc1(3.0), theta=0.1, psi_share=0.1)
def test_native_response_matches_accept_fn(policy, theta, psi_share):
    # pins the C copy of the response table; the chain rarely shows a 1-ulp change of q
    psi = psi_share * (1.0 - theta)
    out = np.empty(1)
    law = _native.make_law(_LEFT, policy)
    _native.library().vaxgame_response_rows(law, 1, np.array([[theta, psi, 1.0]]), 1.0, out)
    assert repr(out.tolist()) == repr([accept_fn(policy)(theta, psi)])


def _reference_edges(params, policy, theta, psi):
    """The bin edges c1..c7 and varrho of chain.event_edges, written out."""
    phi = 1.0 - theta - psi
    q = accept_fn(policy)(theta, psi)
    t_inf = params.lam * theta * phi
    t_dec = params.nu * phi
    t_vac = q * t_dec
    c1 = t_inf
    c2 = c1 + params.r * theta
    c3 = c2 + (params.d + params.d_e) * theta
    c4 = c3 + t_vac
    c5 = c4 + (t_dec - t_vac)
    c6 = c5 + params.b
    c7 = c6 + params.d * psi
    return [c1, c2, c3, c4, c5, c6, c7, c7 + params.d * phi]


_RATE = st.floats(0.0, 10.0)
_RATES = st.builds(SimpleNamespace, lam=_RATE, r=_RATE, nu=_RATE, b=_RATE, d=_RATE, d_e=_RATE)


@given(policy=POLICIES, params=_RATES, theta=UNIT, psi_share=UNIT)
# sums whose grouping changes the rounding: c4 + (t_dec - t_vac), (d + d_e) * theta
@example(
    policy=fc(1.0), params=SimpleNamespace(lam=0.0, r=0.0, nu=1.0, b=0.0, d=0.0, d_e=0.0),
    theta=0.2, psi_share=0.4,
)
@example(
    policy=fc(1.0), params=SimpleNamespace(lam=0.0, r=0.0, nu=0.0, b=0.0, d=0.1, d_e=0.2),
    theta=0.7, psi_share=0.0,
)
def test_native_edges_match_python_loop(policy, params, theta, psi_share):
    # pins the Python event law and its C copy: a trajectory rarely shows a
    # 1-ulp shift of an edge
    psi = psi_share * (1.0 - theta)
    reference = repr(_reference_edges(params, policy, theta, psi))
    q = accept_fn(policy)(theta, psi)
    assert repr(list(chain.event_edges(params)(theta, psi, q))) == reference
    edges = np.empty(8)
    _native.library().vaxgame_edges(_native.make_law(params, policy), theta, psi, edges)
    assert repr(edges.tolist()) == reference


def _ode_run(initial, params, policy, horizon, **settings):
    try:
        path = integrate(initial, params, policy, horizon, **settings)
    except StepFailure as exc:
        return repr(exc)
    arrays = (path.t.tolist(), path.states.tolist())
    return repr((arrays, path.endpoint, path.settled, path.n_segments, path.zeno_truncated))


# deadly: excess deaths d_e > 0; _THRESHOLD: the VFC2 parameters whose orbit
# spirals into the threshold and is cut off there
_DEADLY = ModelParams(lam=3.0, r=0.8, nu=1.2, b=0.9, d=0.3, d_e=0.15)
_THRESHOLD = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
_TIGHT = {"rtol": 1e-9, "atol": 1e-11}


@settings(deadline=None, max_examples=25)
@given(
    policy=POLICIES,
    params=PARAMS,
    theta0=UNIT,
    psi_share=UNIT,
    eta0=st.floats(0.05, 3.0),
    horizon=st.floats(0.5, 12.0),
)
@example(fc(3.0), _LEFT, 0.2, 0.1, 1.0, 200.0)
@example(fr(3.0), _LEFT, 0.2, 0.1, 1.0, 200.0)
@example(vfc1(5.0), _DEADLY, 0.2, 0.1, 1.0, 200.0)
@example(fc(3.0), _DEADLY, 0.2, 0.1, 1.0, 200.0)
@example(fr(0.5), _DEADLY, 0.2, 0.1, 1.0, 200.0)
@example(static(0.3), _DEADLY, 0.0, 0.5, 0.5, 50.0)  # on the disease-free face
# at the fixed point (0, 0, (b - d)/(b + d + nu)) g is exactly zero: the
# initial step and the controller take their zero-error branches
@example(fc(1.0), _LEFT, 0.0, 0.0, (_LEFT.b - _LEFT.d - 0.0) / (_LEFT.b + _LEFT.d + _LEFT.nu), 5.0)
@example(mutant(vfc2(6.0, 0.2), p=0.5, eps=0.1), _THRESHOLD, 0.25, 0.1 / 0.75, 1.0, 3.0)
@example(vfc2(6.0, 0.2, theta_variant=True), _THRESHOLD, 0.2, 0.1, 1.0, 3.0)  # starts on Gamma
# a subnormal threshold: brentq's inverse quadratic step divides 0 by 0
@example(
    vfc2(0.0, 2.2250738585e-313), ModelParams(lam=1.0, r=1.0, nu=0.0, b=1.0, d=0.0, d_e=0.9),
    2.225073858507203e-309, 0.0, 1.0, 5.0,
)
def test_native_integrate_matches_python(policy, params, theta0, psi_share, eta0, horizon):
    start = OdeState(theta0, psi_share * (1.0 - theta0), eta0)
    native = _ode_run(start, params, policy, horizon, **_TIGHT)
    with python_kernels():
        reference = _ode_run(start, params, policy, horizon, **_TIGHT)
    assert native == reference


@pytest.mark.parametrize("t0,eta0,fails", [(1e10, 1.0, False), (1.5e10, 0.05, True)])
def test_native_integrate_matches_python_far_from_zero(t0, eta0, fails):
    # far from t = 0, ten ulps of t bound the step from below (scipy's
    # min_step); the second run needs smaller steps and fails
    start = OdeState(0.2, 0.1, eta0, t=t0)
    native = _ode_run(start, _LEFT, fc(3.0), 20.0)
    with python_kernels():
        assert _ode_run(start, _LEFT, fc(3.0), 20.0) == native
    assert ("Required step size is less than spacing" in native) == fails


def test_native_integrate_matches_python_to_the_zeno_cut_off():
    args = (OdeState(0.25, 0.1, 0.1), _THRESHOLD, vfc2(6.0, 0.2), 30.0)
    settings = dict(stop_at_equilibrium=False, **_TIGHT)
    native = _ode_run(*args, **settings)
    with python_kernels():
        assert _ode_run(*args, **settings) == native
    assert integrate(*args, **settings).zeno_truncated


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize(
    "policy,params,horizon",
    [(fc(3.0), _LEFT, 60.0), (mutant(vfc2(6.0, 0.2), p=0.5, eps=0.1), _THRESHOLD, 2.0)],
)
def test_segment_kernel_resumes_after_full_records(monkeypatch, rows, policy, params, horizon):
    # a records buffer of a few rows makes many kernel calls per segment:
    # each resumed call goes on where the last stopped, events included
    start = OdeState(0.25, 0.1, 1.0)
    whole = _ode_run(start, params, policy, horizon, **_TIGHT)
    monkeypatch.setattr(ode, "_SEGMENT_ROWS", rows)
    assert _ode_run(start, params, policy, horizon, **_TIGHT) == whole


_COORD = st.one_of(UNIT, st.sampled_from([0.0, -0.0, 1.0, 0.2, math.nan]), st.floats(-0.2, 1.2))
_ETA = st.one_of(st.floats(0.01, 5.0), st.sampled_from([0.0, -0.0, -1.0, 1e-13, math.nan]))


@given(policy=POLICIES, params=PARAMS, theta=_COORD, psi=_COORD, on_face=st.booleans(), eta=_ETA)
@example(vfc2(4.0, 0.2), _THRESHOLD, 0.2, 0.4, False, 0.5)  # on the threshold
@example(fc(1.0), _LEFT, 0.7, 0.95, False, 1.0)  # projected back onto theta + psi = 1
def test_native_field_matches_ode_field(policy, params, theta, psi, on_face, eta):
    # off the simplex and at eta <= 0 too, where the adaptive stages probe
    y = np.array([theta, 1.0 - theta if on_face else psi, eta])
    g = np.empty(3)
    code = _native.library().vaxgame_field_rows(_native.make_law(params, policy), 1, y, g)
    assert code == -1
    assert repr(g.tolist()) == repr(ode.field(params, policy)(y).tolist())


def test_native_field_reports_a_vanishing_varrho():
    # rates of 1e-300 and a projection rounding theta + psi above 1 give phi < 0
    params = ModelParams(lam=1e-300, r=0.0, nu=1.0, b=1e-300, d=0.0)
    y = np.array([0.7, 0.95, 1.0])
    with pytest.raises(DegenerateState, match="varrho vanished"):
        ode.field(params, fc(1.0))(y)
    law = _native.make_law(params, fc(1.0))
    assert _native.library().vaxgame_field_rows(law, 1, y, np.empty(3)) == 0  # the first row


def _rows_run(rows_fn, ys):
    try:
        return repr(rows_fn(ys).tolist())
    except DegenerateState as exc:
        return repr(exc)


# rates of 1e-300 and a projection rounding theta + psi above 1 give phi < 0
# and a varrho that vanishes: at a live row, and at a dead one (eta <= 0)
_VANISHING = ModelParams(lam=1e-300, r=0.0, nu=1.0, b=1e-300, d=0.0)
_ROWS = st.lists(st.tuples(_COORD, _COORD, _ETA), max_size=30)


@settings(deadline=None)
@given(policy=POLICIES, params=PARAMS, rows=_ROWS, column=st.booleans())
@example(fc(1.0), _VANISHING, [(0.2, 0.1, 1.0), (0.7, 0.95, 1.0), (0.7, 0.95, 0.5)], False)
@example(fc(1.0), _VANISHING, [(0.2, 0.1, 1.0), (0.7, 0.95, 0.0), (0.7, 0.95, -1.0)], True)
@example(vfc2(4.0, 0.2), _THRESHOLD, [(0.2, 0.4, 0.5), (1.3, -0.2, math.nan)], True)
def test_native_field_rows_match_python(policy, params, rows, column):
    # off the simplex, at eta <= 0 and at NaN too; ``column`` hands the rows
    # as the strided view rows[:, 1:] that the settle scan of integrate passes
    ys = np.array(rows, dtype=float).reshape(-1, 3)
    if column:
        ys = np.column_stack((np.arange(len(ys), dtype=float), ys))[:, 1:]
    native = _rows_run(ode.field_rows(params, policy), ys)
    g = ode.field(params, policy)
    assert native == _rows_run(lambda ys: np.array([g(y) for y in ys]).reshape(-1, 3), ys)
    with python_kernels():
        assert _rows_run(ode.field_rows(params, policy), ys) == native


def test_field_rows_vanishing_varrho_cases_are_reached():
    g_rows = ode.field_rows(_VANISHING, fc(1.0))
    with pytest.raises(DegenerateState, match="varrho vanished"):
        g_rows(np.array([[0.2, 0.1, 1.0], [0.7, 0.95, 1.0]]))
    assert g_rows(np.array([[0.7, 0.95, 0.0]])).tolist() == [[0.0, 0.0, 0.0]]


_ANY = st.one_of(
    UNIT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 1e308]),
)


@given(policy=POLICIES, points=st.lists(st.tuples(_ANY, _ANY), max_size=30))
@example(vfc1(2.0), [(math.inf, 0.0), (0.2, math.nan)])  # inf * 0 is NaN; min(inf, nan) is inf
@example(mutant(fr(50.0), p=0.7, eps=0.04), [(0.2, 0.5), (math.nan, 0.5)])  # base q~ > 1
@example(vfc2(4.0, 0.25), [(0.25, 0.4), (math.nan, 0.4), (0.3, math.inf)])
@example(mutant(vfc2(4.0, 0.25, theta_variant=True), p=0.5, eps=0.5), [(math.inf, 0.1)])
def test_native_propensity_rows_match_propensity_fn(policy, points):
    xs = np.array([(theta, psi, 1.0) for theta, psi in points]).reshape(-1, 3)
    q_tilde = propensity_fn(policy)
    reference = repr([q_tilde(theta, psi) for theta, psi in points])
    out = np.empty(len(xs))
    law = _native.make_law(_LEFT, policy)
    _native.library().vaxgame_response_rows(law, len(xs), xs, math.inf, out)
    assert repr(out.tolist()) == reference
    assert repr(attractor._propensity_rows(_LEFT, policy)(xs).tolist()) == reference
    with python_kernels():
        assert repr(attractor._propensity_rows(_LEFT, policy)(xs).tolist()) == reference


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SPECIAL = [
    0.0, -0.0, math.inf, -math.inf, math.nan, _double(0xFFF8 << 48), 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
    2251799813685247.75, 0.1, 1e16, 1e17, 123456789012345678.0,
]
# exact half-way cases: 16 integer digits and a fraction of .25 or .75 (or
# 15 digits and eighths) have 18 significant digits, the last a 5
_HALF_WAY = st.one_of(
    st.builds(lambda m, f: m + f, st.integers(2**50, 2**51 - 1), st.sampled_from([0.25, 0.75])),
    st.builds(
        lambda m, f: m + f, st.integers(2**49, 2**50 - 1), st.sampled_from([0.125, 0.375, 0.625, 0.875])
    ),
)
_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),  # random bit patterns, NaNs of both signs among them
    st.integers(0, 2**52 - 1).map(_double),  # subnormals
    st.sampled_from(_SPECIAL),
    _HALF_WAY,
    st.floats(allow_nan=True, allow_infinity=True),
)
_KEYS = st.integers(-(2**63), 2**63 - 1)


def _written(tmp_path, name, columns, keys):
    path = tmp_path / name
    _native.write_rows(path, "h\n", columns, keys=keys)
    return path.read_bytes()


@settings(deadline=None, max_examples=200)
@given(
    rows=st.lists(st.tuples(_KEYS, _DOUBLES, _DOUBLES, _DOUBLES, _DOUBLES), max_size=40),
    keyed=st.booleans(),
    block=st.sampled_from([1, 3, 4096]),
)
@example(rows=[(k, x, -x, x, 1.0) for k, x in enumerate(_SPECIAL)], keyed=True, block=5)
def test_native_rows_format_as_python(tmp_path_factory, rows, keyed, block):
    # the path CSV's "%.17g" % row and the trajectory CSV's f"{int(k)},{x:.17g},...",
    # in blocks of one row, three rows and the default
    tmp_path = tmp_path_factory.mktemp("rows")
    keys = np.array([row[0] for row in rows], dtype=np.int64)
    values = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 4)
    if keyed:
        columns = (values[:, 1], values[:, 2], values[:, 3])
        lines = [f"{int(k)},{x:.17g},{y:.17g},{z:.17g}\n" for k, _, x, y, z in rows]
    else:
        columns = (values[:, 0], values[:, 1:])
        lines = ["%.17g,%.17g,%.17g,%.17g\n" % row[1:] for row in rows]
    reference = ("h\n" + "".join(lines)).encode()
    key_column = keys if keyed else None
    with mock.patch.object(_native, "_CSV_BLOCK", block):
        assert _written(tmp_path, "native.csv", columns, key_column) == reference
        with python_kernels():
            assert _written(tmp_path, "python.csv", columns, key_column) == reference


class _Declining:
    """The library, except that the formatter declines, as under a decimal comma."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    @staticmethod
    def vaxgame_format_rows(*args):
        return -1


def test_declined_blocks_are_written_by_python(tmp_path, monkeypatch):
    columns = (np.array([0.5, math.nan, -math.nan]), np.array([[1e-300, -0.0], [math.inf, 3.0], [2.0, 1.0]]))
    expected = _written(tmp_path, "native.csv", columns, np.array([1, 2, 3]))
    lib = _native.library()
    monkeypatch.setattr(_native, "library", lambda: _Declining(lib))
    assert _written(tmp_path, "declined.csv", columns, np.array([1, 2, 3])) == expected
    assert expected == b"h\n1,0.5,1e-300,-0\n2,nan,inf,3\n3,nan,2,1\n"


def test_row_kernels_reject_mismatched_shapes(tmp_path):
    # a pointer to fewer rows or columns than the kernel reads is never passed
    with pytest.raises(ValueError, match="expected \\(n, 3\\) states"):
        ode.field_rows(_LEFT, fc(1.0))(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="expected \\(n, 3\\) states"):
        attractor._propensity_rows(_LEFT, fc(1.0))(np.zeros(3))
    with pytest.raises(ValueError, match="same number of rows"):
        _native.write_rows(tmp_path / "x.csv", "h\n", (np.zeros(3),), keys=np.arange(2))
    with pytest.raises(ValueError, match="same number of rows"):
        _native.write_rows(tmp_path / "x.csv", "h\n", (np.zeros(3), np.zeros((2, 3))))


def test_formatter_declines_a_small_buffer():
    text = np.empty(46, np.uint8)  # a row of one double fits, one of four (21 + 4 * 25) does not
    lib = _native.library()
    assert lib.vaxgame_format_rows(1, 4, None, np.zeros((1, 4)), text, len(text)) == -1
    assert lib.vaxgame_format_rows(1, 1, None, np.zeros((1, 1)), text, len(text)) == 2


@pytest.mark.parametrize("config", ["validate_strong_nvdf.cfg", "vfc2_oscillation.cfg"])
def test_shipped_csvs_are_byte_identical_from_python(tmp_path, monkeypatch, config):
    # each path and trajectory CSV of a validate run is written a second time
    # by the Python formatter, from the same rows
    write_rows = _native.write_rows
    copies = []

    def both(path, *args, **kwargs):
        write_rows(path, *args, **kwargs)
        with python_kernels():
            write_rows(f"{path}.python", *args, **kwargs)
        copies.append(Path(path))

    monkeypatch.setattr(_native, "write_rows", both)
    assert cli_main(["validate", str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    kinds = {path.name.split("_")[0] for path in copies}
    assert kinds == {"ode", "traj"}
    for path in copies:
        assert path.read_bytes() == Path(f"{path}.python").read_bytes()


_WORD = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_WORD32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``, here fed by Python callbacks."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _WORD),
        ("next_uint32", _WORD32),
        ("next_double", _DOUBLE),
        ("next_raw", _WORD),
    ]


def test_draw_kernel_skips_zero_directions():
    # the ziggurat maps the word 0 to the normal 0.0, 1 << 8 to -0.0 and
    # 5 << 9 to 5 * wi[0] > 0: the first attempt has an all-zero direction
    words = iter([0, 1 << 8, 0, 5 << 9, 0, 7 << 9])
    uniforms = []

    def next_double(_):
        uniforms.append(0.25)
        return 0.25

    bitgen = _BitGen(
        None, _WORD(lambda _: next(words)), _WORD32(lambda _: 0), _DOUBLE(next_double),
        _WORD(lambda _: 0),
    )
    directions, cube_roots = np.empty((2, 3)), np.empty(2)
    kept = _native.library().vaxgame_draw(ctypes.addressof(bitgen), 2, directions, cube_roots)
    assert kept == 1 and len(uniforms) == 1  # no uniform for the zero direction
    assert directions[0, 0] > 0.0 and directions[0, 1] == 0.0 and directions[0, 2] > 0.0
    assert cube_roots[0] == 0.25 ** (1.0 / 3.0)


def _draws(seed, sizes, radius):
    rng = np.random.default_rng(seed)
    offsets = [attractor._draw_offsets(rng, n, radius).tolist() for n in sizes]
    return repr(offsets), rng.bit_generator.state


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=4),
    radius=st.floats(1e-6, 0.5),
)
@example(seed=0, sizes=[0, 1, 199, 300], radius=1e-3)
@example(seed=7, sizes=[200_000], radius=0.1)
def test_native_draws_match_python(seed, sizes, radius):
    native = _draws(seed, sizes, radius)
    with python_kernels():
        reference = _draws(seed, sizes, radius)
    assert native == reference


def _tree(root: Path) -> dict:
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("cause", ["no compiler", "cache unwritable"])
def test_fallback_runs_the_python_loops(tmp_path, monkeypatch, cause):
    def run():
        traj = simulate(make_initial(500, 0.2, 0.1), _LEFT, fc(1.5), max_steps=20_000, stride=50, rng=3)
        return repr(traj)

    native = run()
    cache = tmp_path / "cache"
    if cause == "no compiler":
        monkeypatch.setattr(_native, "_COMPILER", str(tmp_path / "no-such-gcc"))
    else:  # a regular file where the cache directory should be
        cache.write_text("")
        cache = cache / "below"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(_native, "_library", _native._UNRESOLVED)
    before = _tree(SRC)

    assert run() == native
    assert _native.library() is None and _native.kernel_name() == "python"
    assert _tree(SRC) == before
    if cause == "no compiler":
        assert list((cache / "vaxgame").iterdir()) == []  # the temporary file is gone


def test_concurrent_builds_both_load(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC.parent))
    code = "from vaxgame import _native; assert _native.library() is not None"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    built = list((tmp_path / "vaxgame").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
