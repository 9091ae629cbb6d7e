import dataclasses
import math
from contextlib import nullcontext
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vaxgame import (
    Event,
    Family,
    FractionState,
    ModelParams,
    PopState,
    count_crossings,
    estimate_limit,
    event_distribution,
    fc,
    make_initial,
    mutant,
    one_step_drift,
    simulate,
    simulate_replications,
    static,
    step,
    vfc1,
    vfc2,
)
from vaxgame import _native, chain
from vaxgame.chain import EVENT_EFFECTS, write_trajectory_csv
from vaxgame.errors import FrozenTrajectory, InvalidParams, VaxGameError
from vaxgame.ode import OdeState, rhs
from vaxgame.policy import accept_fn, propensity_fn

from rowgen import PARAMS, POLICIES, UNIT


def hand_params():
    return ModelParams(lam=2.0, r=1.0, nu=1.0, b=1.0, d=0.5)


def test_event_distribution_hand_oracle():
    # theta=0.5, psi=0, phi=0.5 under the hand-checked rate set
    dist = event_distribution(FractionState(0.5, 0.0, 1.0), hand_params(), fc(0.5))
    assert dist.varrho == pytest.approx(3.0, abs=1e-15)
    expected = {
        Event.INFECTION: 1 / 6,
        Event.RECOVERY: 1 / 6,
        Event.DEATH_INFECTED: 1 / 12,
        Event.VACCINATION: 0.0,
        Event.NULL_DECISION: 1 / 6,
        Event.BIRTH: 1 / 3,
        Event.DEATH_VACCINATED: 0.0,
        Event.DEATH_SUSCEPTIBLE: 1 / 12,
    }
    for event, prob in expected.items():
        assert dist[event] == pytest.approx(prob, abs=1e-15)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_no_infected_no_disease_events():
    dist = event_distribution(FractionState(0.0, 0.3, 1.0), hand_params(), fc(2.0))
    assert dist[Event.INFECTION] == 0.0
    assert dist[Event.RECOVERY] == 0.0
    assert dist[Event.DEATH_INFECTED] == 0.0


def test_follow_crowd_needs_a_crowd():
    dist = event_distribution(FractionState(0.4, 0.0, 1.0), hand_params(), fc(5.0))
    assert dist[Event.VACCINATION] == 0.0


def test_distribution_scale_invariant():
    a = PopState(n_total=100, n_susc=50, n_inf=30, n_vacc=20)
    b = PopState(n_total=100000, n_susc=50000, n_inf=30000, n_vacc=20000)
    da = event_distribution(a.fractions(), hand_params(), fr_pol := fc(0.7))
    db = event_distribution(b.fractions(), hand_params(), fr_pol)
    assert np.allclose(da.probs, db.probs, atol=0, rtol=0)


def test_normalization_over_random_states():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        theta = rng.uniform(0, 1)
        psi = rng.uniform(0, 1 - theta)
        b = rng.uniform(0.05, 3)
        params = ModelParams(
            lam=rng.uniform(0.1, 20),
            r=rng.uniform(0, 5),
            nu=rng.uniform(0, 5),
            b=b,
            d=rng.uniform(0, 0.9) * b,
        )
        dist = event_distribution(FractionState(theta, psi, 1.0), params, fc(rng.uniform(0, 5)))
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        formula = (
            params.b + params.d + params.d_e * theta
            + params.lam * theta * (1 - theta - psi)
            + params.nu * (1 - theta - psi) + params.r * theta
        )
        assert dist.varrho == pytest.approx(formula, rel=1e-12)


class FixedUniforms(np.random.Generator):
    """A generator whose every block of uniforms is ``u`` repeated."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(() if size is None else size, self.u)


#: numpy's PCG64 multiplier: the state steps as state * M + inc mod 2^128
PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341


def pcg64_drawing(u):
    """A Generator over PCG64 whose next random() is u, a multiple of 2^-53 in [0, 1).

    random() is (out >> 11) * 2^-53 for the XSL-RR output out of the next
    state.  A next state whose high half is 0 (rotation 0) outputs its low
    half, so the next state is u * 2^64 and the state before it is
    (next - inc) * M^-1 mod 2^128.
    """
    word = u * 2**53
    if not (0 <= word < 2**53 and word == int(word)):
        raise ValueError(f"no random() gives {u!r}")
    inc = np.random.PCG64(0).state["state"]["inc"]
    state = (int(word) << 11) - inc
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state * pow(PCG64_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


def one_epoch(state, policy, u, params=None):
    """The state after one epoch of simulate() driven by the uniform u.

    The chain runs alone and, as the same, as both chains of a pair: where
    the kernel loads, through its cascade and through its lanes' bin pick
    (the stride lies past the epoch, which no lane then leaves to the
    scalar code).  All three must agree.  A u that no PCG64 gives (no
    multiple of 2^-53) comes from FixedUniforms, which runs the Python loop
    even where the kernel loads.
    """
    args = (state, params or hand_params(), policy, state.step + 1, None, state.step + 2)
    drawing = pcg64_drawing if (u * 2**53).is_integer() else FixedUniforms
    final = simulate(*args, rng=drawing(u)).final
    pair = simulate_replications(*args, [drawing(u), drawing(u)])
    assert [traj.final for traj in pair] == [final, final]
    return final


def bin_middle(state, policy, event):
    """A uniform in the middle of the event's bin at the state's fractions."""
    cum = np.cumsum(event_distribution(state.fractions(), hand_params(), policy).probs)
    return math.floor((cum[event] + (cum[event - 1] if event > 0 else 0.0)) / 2 * 2**53) / 2**53


def test_pcg64_drawing_draws_u():
    for u in (0.0, 2.0**-53, 0.37, 1.0 - 2.0**-53):
        assert pcg64_drawing(u).random() == u
    with pytest.raises(ValueError):
        pcg64_drawing(6e-17)


def counts(state):
    return (state.n_total, state.n_susc, state.n_inf, state.n_vacc)


def test_step_bookkeeping():
    state = PopState(n_total=4, n_susc=2, n_inf=2, n_vacc=0)
    birth = one_epoch(state, fc(0.5), bin_middle(state, fc(0.5), Event.BIRTH))
    assert counts(birth) == (5, 3, 2, 0)
    assert birth.step == state.step + 1

    null = one_epoch(state, fc(0.5), bin_middle(state, fc(0.5), Event.NULL_DECISION))
    assert counts(null) == (4, 2, 2, 0)
    assert null.step == state.step + 1

    # disease events are unreachable without infected individuals
    clean = PopState(n_total=50, n_susc=40, n_inf=0, n_vacc=10)
    traj = simulate(clean, hand_params(), fc(1.0), max_steps=200, stride=1, rng=0)
    assert len(traj) == 201 and np.all(traj.theta == 0.0)


def recorded_counts(traj):
    """Integer counts (k, N, I, V) recovered from a stride-1 record."""
    k = traj.epochs
    n = np.where(k >= 1, np.rint(traj.eta * k), traj.eta).astype(np.int64)
    i = np.rint(traj.theta * n).astype(np.int64)
    v = np.rint(traj.psi * n).astype(np.int64)
    assert np.all(np.abs(traj.eta * np.maximum(k, 1) - n) <= 1e-9 * n)
    assert np.all(np.abs(traj.theta * n - i) <= 1e-9 * n)
    assert np.all(np.abs(traj.psi * n - v) <= 1e-9 * n)
    return k, n, i, v


def test_counts_stay_consistent_along_path():
    traj = simulate(make_initial(500, 0.2, 0.1), hand_params(), fc(1.5),
                    max_steps=3000, stride=1, rng=11)
    k, n, i, v = recorded_counts(traj)
    assert np.array_equal(k, np.arange(3001))
    assert np.all(i >= 0) and np.all(v >= 0) and np.all(n - i - v >= 0)
    effects = {(dS, dI, dV, dN) for dS, dI, dV, dN in EVENT_EFFECTS.values()}
    for dN, dI, dV in zip(np.diff(n), np.diff(i), np.diff(v)):
        assert (dN - dI - dV, dI, dV, dN) in effects


def test_fraction_recursion_matches_counts():
    # recursive form with eps_k = 1/(k+1) reproduces the count ratios exactly
    start = make_initial(300, 0.3, 0.2)
    state = PopState(start.n_total, start.n_susc, start.n_inf, start.n_vacc, step=1)
    traj = simulate(state, hand_params(), vfc1(2.0), max_steps=5001, stride=1, rng=5)
    k, n, i, v = recorded_counts(traj)
    theta, psi, eta = traj.theta[0], traj.psi[0], traj.eta[0]
    for idx in range(1, len(traj)):
        dI, dV, dN = i[idx] - i[idx - 1], v[idx] - v[idx - 1], n[idx] - n[idx - 1]
        eps = 1.0 / (k[idx - 1] + 1)
        eta_next = eta + eps * (dN - eta)
        theta = theta + eps * (dI - dN * theta) / eta_next
        psi = psi + eps * (dV - dN * psi) / eta_next
        eta = eta_next
        assert theta == pytest.approx(i[idx] / n[idx], abs=1e-12)
        assert psi == pytest.approx(v[idx] / n[idx], abs=1e-12)
        assert eta == pytest.approx(n[idx] / k[idx], abs=1e-12)


def test_drift_matches_field_within_error_bound():
    # conditional one-step drift vs the mean-field right-hand side
    params = ModelParams(lam=3.0, r=0.8, nu=1.2, b=0.9, d=0.3, d_e=0.1)
    policy = fc(1.2)
    traj = simulate(make_initial(400, 0.25, 0.1), params, policy, max_steps=2000, stride=1, rng=2)
    delta_bar = traj.diagnostics.delta_bar
    for idx in range(1, len(traj), 97):
        k = int(traj.epochs[idx])
        if k < 1:
            continue
        fs = FractionState(traj.theta[idx], traj.psi[idx], traj.eta[idx])
        drift = one_step_drift(fs, k, params, policy)
        field = rhs(OdeState(fs.theta, fs.psi, fs.eta), params, policy)
        bound = 2.0 * (1.0 / (k + 1)) * (delta_bar + 1.0) / delta_bar**2
        assert np.all(np.abs(drift[:2] - field[:2]) <= bound)
        assert drift[2] == pytest.approx(field[2], abs=1e-12)


def test_near_extinction_bounds_hold():
    params = hand_params()
    for seed in range(4):
        traj = simulate(make_initial(800, 0.3, 0.05), params, fc(0.8),
                        max_steps=100_000, stride=100, rng=seed)
        diag = traj.diagnostics
        assert diag.min_eta >= diag.delta_bar
        assert diag.max_inv_eta_jump_ratio <= (diag.delta_bar + 1.0) / diag.delta_bar**2


def test_freeze_on_near_extinction():
    # a tiny population cannot keep eta above delta = 2/(N0-1)
    traj = simulate(make_initial(4, 0.25, 0.0), hand_params(), fc(0.5),
                    max_steps=10_000, stride=1, rng=9)
    assert traj.frozen
    assert traj.freeze_epoch is not None
    assert traj.final.step == traj.freeze_epoch
    with pytest.raises(FrozenTrajectory):
        estimate_limit(traj, 0.2)


def test_absorbing_disease_free_start():
    params = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1)
    traj = simulate(make_initial(5000, 0.0, 0.3), params, fc(0.5),
                    max_steps=100_000, stride=100, rng=1)
    assert np.all(traj.theta == 0.0)
    assert traj.psi[-1] <= traj.psi[0]


def test_determinism_and_divergence():
    params = hand_params()
    a = simulate(make_initial(1000, 0.2, 0.1), params, fr_ := fc(1.0), max_steps=20_000, rng=123)
    b = simulate(make_initial(1000, 0.2, 0.1), params, fr_, max_steps=20_000, rng=123)
    c = simulate(make_initial(1000, 0.2, 0.1), params, fr_, max_steps=20_000, rng=124)
    assert np.array_equal(a.theta, b.theta) and np.array_equal(a.eta, b.eta)
    assert not np.array_equal(a.theta, c.theta)


def test_estimate_limit_basics():
    params = hand_params()
    traj = simulate(make_initial(2000, 0.3, 0.1), params, static(0.2), max_steps=50_000, rng=3)
    est = estimate_limit(traj, 0.2)
    assert 0 <= est.theta <= 1 and 0 <= est.psi <= 1
    assert est.n_samples >= 2
    with pytest.raises(ValueError):
        estimate_limit(traj, 0.0)
    with pytest.raises(ValueError):
        estimate_limit(traj, 1.0)


def test_estimate_limit_two_sample_mean():
    traj = simulate(make_initial(100, 0.2, 0.0), hand_params(), fc(0.0), max_steps=10, stride=5, rng=0)
    # recorded epochs: 0, 5, 10 -> tail of 2/3 covers the last two samples
    est = estimate_limit(traj, 2 / 3)
    assert est.theta == pytest.approx(np.mean(traj.theta[-2:]))


def test_bad_limit_and_drift_inputs_raise_typed_errors():
    traj = simulate(make_initial(100, 0.2, 0.0), hand_params(), fc(0.0), max_steps=10, stride=5, rng=0)
    with pytest.raises(VaxGameError, match="trajectory is empty"):
        estimate_limit(dataclasses.replace(traj, epochs=traj.epochs[:0]))
    with pytest.raises(VaxGameError, match="k >= 1"):
        one_step_drift(FractionState(0.2, 0.1, 1.0), 0, hand_params(), fc(1.0))


def test_count_crossings():
    assert count_crossings([0.1, 0.3, 0.1, 0.3, 0.1], 0.2) == 4
    assert count_crossings([0.1, 0.2, 0.3], 0.2) == 1  # exact hits are ignored
    assert count_crossings([0.3, 0.3, 0.3], 0.2) == 0


def test_trajectory_csv_deterministic(tmp_path):
    params = hand_params()
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        traj = simulate(make_initial(500, 0.2, 0.1), params, fc(1.0), max_steps=5000, rng=77)
        write_trajectory_csv(traj, out)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "k,theta,psi,eta"


def test_sample_event_boundaries():
    # u = 0 draws the first event, u just below 1 the last
    state = PopState(n_total=4, n_susc=2, n_inf=2, n_vacc=0)  # theta = 0.5, psi = 0
    assert counts(one_epoch(state, fc(0.5), 0.0)) == (4, 1, 3, 0)  # infection
    assert counts(one_epoch(state, fc(0.5), 0.999999999)) == (3, 1, 2, 0)  # susceptible death


@given(
    params=PARAMS,
    policy=POLICIES,
    n_total=st.integers(3, 40),
    shares=st.tuples(UNIT, UNIT),
    # the multiples of 2^-53 that random() gives pin the kernel's bins; any
    # other float in [0, 1) drives the Python loop
    u=st.one_of(
        st.just(1.0 - 2.0**-53),
        st.integers(0, 2**53 - 1).map(lambda m: m * 2.0**-53),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
)
# S = 0 with a rounded phi > 0: a draw past the last edge but one must not
# remove a susceptible
@example(
    params=ModelParams(lam=3.0, r=0.8, nu=1.2, b=0.9, d=0.3, d_e=0.1), policy=fc(1.2),
    n_total=3, shares=(1 / 3, 1.0), u=1.0 - 2.0**-53,
)
def test_step_is_one_epoch_of_simulate(params, policy, n_total, shares, u):
    n_inf = round(shares[0] * n_total)
    n_vacc = round(shares[1] * (n_total - n_inf))
    state = PopState(n_total, n_total - n_inf - n_vacc, n_inf, n_vacc, step=1)
    expected = counts(one_epoch(state, policy, u, params))
    stepped, _ = step(state, params, policy, FixedUniforms(u))
    assert counts(stepped) == expected
    assert stepped.step == state.step + 1


@pytest.mark.parametrize("loop", ["kernel", "python"])
@pytest.mark.parametrize(
    "params,policy,u,event",
    [
        # the infection bin [0, lam*theta*phi), with phi = 5.55e-17 at S = 0
        (ModelParams(lam=1.0, r=0.0, nu=0.0, b=1.0, d=0.0), fc(0.0), 0.0, Event.INFECTION),
        # the vaccination bin of width q*nu*phi just above it; 6e-17 is no
        # uniform a PCG64 gives, so this case runs the Python loop only
        (ModelParams(lam=1.0, r=0.0, nu=1.0, b=1.0, d=0.0), static(1.0), 6e-17, Event.VACCINATION),
        # the same bin, wider, at the smallest positive uniform: the kernel's case
        (ModelParams(lam=1.0, r=0.0, nu=2.0, b=1.0, d=0.0), static(1.0), 2.0**-53, Event.VACCINATION),
    ],
)
def test_rounded_bins_at_no_susceptible_change_nothing(loop, params, policy, u, event):
    state = PopState(3, 0, 2, 1, step=1)  # theta = 2/3, psi = 1/3: phi rounds above 0
    edges = chain.event_edges(params)(2 / 3, 1 / 3, accept_fn(policy)(2 / 3, 1 / 3))
    lower = edges[event - 1] if event > 0 else 0.0
    assert lower <= u * edges[-1] < edges[event]  # the draw lands in the rounded bin
    kernels = mock.patch.object(_native, "library", return_value=None) if loop == "python" else nullcontext()
    with kernels:
        final = one_epoch(state, policy, u, params)
    assert counts(final) == counts(state) and final.step == 2
    stepped, drawn = step(state, params, policy, FixedUniforms(u))
    assert drawn is Event.NULL_DECISION and counts(stepped) == counts(state)


@pytest.mark.parametrize("loop", ["kernel", "python"])
def test_a_draw_takes_the_first_edge_above_it_where_a_later_edge_is_lower(loop):
    # at theta = 3/13, psi = 10/13 phi rounds to -1.1e-16, so the
    # vaccination mass q*nu*phi is negative and c4 < c3: a draw in [c4, c3)
    # lies below c3 and c5 but not below c4, and its bin is c3's, the death
    # of an infected, as in the Python loop's cascade
    params = ModelParams(lam=1.0, r=1.0, nu=1.0, b=1.0, d=0.5)
    state, u = PopState(13, 0, 3, 10, step=1), 1801439850948198 / 2**53
    *edges, varrho = chain.event_edges(params)(3 / 13, 10 / 13, 1.0)
    assert edges[3] <= u * varrho < edges[2]
    kernels = mock.patch.object(_native, "library", return_value=None) if loop == "python" else nullcontext()
    with kernels:
        final = one_epoch(state, static(1.0), u, params)
    assert counts(final) == (12, 0, 2, 10) and final.step == 2
    stepped, drawn = step(state, params, static(1.0), FixedUniforms(u))
    assert drawn is Event.DEATH_INFECTED and counts(stepped) == counts(final)


@pytest.mark.parametrize("loop", ["kernel", "python"])
def test_overshoot_past_the_last_edge_at_no_susceptible_changes_nothing(loop):
    # at theta = 1/3, psi = 2/3 phi rounds to 1.1e-16, and with deaths the
    # only events the largest uniform lands past c7, in the susceptible-death
    # bin (rates outside ModelParams' domain, which needs b > d)
    params = SimpleNamespace(lam=0.0, r=0.0, nu=0.0, b=0.0, d=3.0, d_e=0.0)
    state, u = PopState(3, 0, 1, 2, step=1), 1.0 - 2.0**-53
    *edges, varrho = chain.event_edges(params)(1 / 3, 2 / 3, 0.0)
    assert edges[-1] <= u * varrho
    kernels = mock.patch.object(_native, "library", return_value=None) if loop == "python" else nullcontext()
    with kernels:
        final = one_epoch(state, static(0.0), u, params)
    assert counts(final) == counts(state) and final.step == 2
    stepped, drawn = step(state, params, static(0.0), FixedUniforms(u))
    assert drawn is Event.NULL_DECISION and counts(stepped) == counts(state)


@given(policy=POLICIES, theta=UNIT, psi_share=UNIT)
@example(policy=vfc2(4.0, 0.25), theta=0.25, psi_share=0.4)  # on the threshold
@example(policy=vfc2(4.0, 0.25, theta_variant=True), theta=0.25, psi_share=0.4)
@example(policy=mutant(fc(8.0), p=0.7, eps=0.04), theta=0.2, psi_share=0.5)  # base q~ = 3.2
@example(policy=static(0.3), theta=0.2, psi_share=0.5)
def test_hot_loop_acceptance_matches_reference(policy, theta, psi_share):
    # the closures simulate() and the field evaluate, built from the family
    # table in vaxgame.policy, must agree exactly with the written-out formulas
    psi = psi_share * (1.0 - theta)
    assert propensity_fn(policy)(theta, psi) == _reference_propensity(policy, theta, psi)
    assert accept_fn(policy)(theta, psi) == _reference_accept(policy, theta, psi)


def _reference_propensity(policy, theta, psi):
    """q~ as the vaxgame.policy docstring writes it out, family by family."""
    fam, beta = policy.family, policy.beta
    if fam is Family.FC:
        return beta * psi
    if fam is Family.FR:
        return beta * psi * (1.0 - psi)
    if fam is Family.VFC1:
        return beta * theta * psi
    if fam is Family.VFC2:
        if theta <= policy.gamma:
            return 0.0
        return beta * (theta if policy.theta_variant else psi)
    if fam is Family.STATIC:
        return policy.static_q
    base = _reference_propensity(policy.mutant_base, theta, psi)
    return (1.0 - policy.mutant_eps) * base + policy.mutant_eps * policy.mutant_p


def _reference_accept(policy, theta, psi):
    """q = min(1, q~); a mutant mixes its clamped base with p."""
    if policy.family is Family.MUTANT:
        base = _reference_accept(policy.mutant_base, theta, psi)
        return (1.0 - policy.mutant_eps) * base + policy.mutant_eps * policy.mutant_p
    return min(1.0, _reference_propensity(policy, theta, psi))


def test_negative_initial_step_is_invalid():
    # at step -1 the first epoch would divide N by k = 0
    state = PopState(n_total=100, n_susc=80, n_inf=20, n_vacc=0, step=-1)
    with pytest.raises(InvalidParams, match="initial step"):
        simulate(state, hand_params(), fc(1.0), max_steps=10, rng=0)


def test_make_initial_validates_fractions():
    with pytest.raises(ValueError):
        make_initial(100, 0.8, 0.3)
    with pytest.raises(ValueError):
        make_initial(100, -0.1, 0.3)
