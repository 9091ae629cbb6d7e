"""The C kernels of vaxgame._native against the Python loops they replace."""

import ctypes
import math
import os
import re
import shutil
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
from test_chain import FixedUniforms

SRC = Path(vaxgame.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module", autouse=True)
def native_library():
    if _native.library() is None:
        pytest.skip("the C kernels cannot be built here")


def python_kernels():
    """Run the Python loops, as on a machine where the kernels do not load."""
    return mock.patch.object(_native, "library", return_value=None)


def _outcome(result, gen):
    """A chain's trajectory or error, and its generator's state after it, by repr."""
    if isinstance(result, Exception):
        return repr(result), repr(gen.bit_generator.state)
    arrays = (result.epochs, result.theta, result.psi, result.eta)
    return (
        repr([(a.dtype, a.tolist()) for a in arrays]),
        repr((result.final, result.frozen, result.freeze_epoch, result.diagnostics, result.stride)),
        repr(gen.bit_generator.state),
    )


def _chain_run(initial, params, policy, max_steps, delta, stride, seed,
               make_gen=np.random.default_rng):
    """The run of simulate() on ``make_gen(seed)`` and the generator's state after it: :func:`_outcome`."""
    gen = make_gen(seed)
    try:
        result = simulate(initial, params, policy, max_steps, delta, stride, gen)
    except DegenerateState as exc:
        result = exc
    return _outcome(result, gen)


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


@settings(deadline=None, max_examples=40)
@given(
    policy=POLICIES,
    params=_PARAMS,
    n0=st.integers(2, 400),
    theta0=UNIT,
    psi_share=UNIT,
    n_steps=st.integers(0, 3000),
    delta=st.none() | st.floats(1e-3, 1.0),
    stride=st.integers(1, 50),
    # up to a vector of four lanes, four full vectors, and a second group
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=17, unique=True),
    records=st.sampled_from([chain._MAX_RECORDS, 3]),
)
# frozen at epochs 13 and 25, dead at two others, done at 100
@example(fc(0.5), _DYING, 2, 0.0, 0.0, 100, 0.1, 7, [0, 1, 2, 3, 4], chain._MAX_RECORDS)
@example(vfc2(6.0, 0.2), _LEFT, 400, 0.3, 0.1, 5000, None, 3, [5, 6], chain._MAX_RECORDS)
# VFC2 starting on its threshold (theta = 80/400 = gamma), where q is 0
@example(vfc2(6.0, 0.2), _LEFT, 400, 0.2, 0.1, 200, None, 7, list(range(8)), chain._MAX_RECORDS)
# no event to draw at the first epoch, which no lane may take: a lane that
# took it would step on to max_steps before a record epoch
@example(fc(0.5), _DEAD, 50, 0.0, 0.0, 10, None, 50, [0, 1, 2], chain._MAX_RECORDS)
# stride 1: every epoch records, so every epoch of the lanes is epoch()'s
@example(fr(2.0), _LEFT, 300, 0.2, 0.1, 2000, None, 1, list(range(7)), chain._MAX_RECORDS)
# three records a call: the lanes stop at full records and go on in the next call
@example(mutant(vfc1(9.0), p=0.1, eps=0.3), _LEFT, 300, 0.2, 0.5, 3000, None, 50, list(range(9)), 3)
def test_lockstep_chains_match_python_one_by_one(
    policy, params, n0, theta0, psi_share, n_steps, delta, stride, seeds, records
):
    with mock.patch.object(chain, "_MAX_RECORDS", records):
        _assert_lockstep_matches_python(policy, params, n0, theta0, psi_share, n_steps, delta, stride, seeds)


def _assert_lockstep_matches_python(policy, params, n0, theta0, psi_share, n_steps, delta, stride, seeds):
    # the chains of one kernel call, each against its own forced-Python run:
    # trajectory, diagnostics or error, and generator state
    initial = make_initial(n0, theta0, psi_share * (1.0 - theta0))
    args = (initial, params, policy, n_steps, delta, stride)
    gens = [np.random.default_rng(seed) for seed in seeds]
    lockstep = [_outcome(r, gen) for r, gen in zip(chain.simulate_replications(*args, gens), gens)]
    with python_kernels():
        assert lockstep == [_chain_run(*args, seed) for seed in seeds]


@pytest.mark.skipif(shutil.which(_native._COMPILER) is None, reason="no C compiler")
def test_chains_run_one_by_one_without_sse2(tmp_path, monkeypatch):
    # where __SSE2__ is not defined there are no lanes, and the chains of a
    # call run one after another: a library built so runs the lockstep cases
    # above, and 17 chains, one past the kernel's width
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_FLAGS", (*_native._FLAGS, "-U__SSE2__"))
    monkeypatch.setattr(_native, "_library", _native._UNRESOLVED)
    assert _native.library() is not None
    assert len(list((tmp_path / "vaxgame").glob("_native-*.so"))) == 1
    for case in (
        (fc(0.5), _DYING, 2, 0.0, 0.0, 100, 0.1, 7, [0, 1, 2, 3, 4]),
        (vfc2(6.0, 0.2), _LEFT, 400, 0.3, 0.1, 5000, None, 3, [5, 6]),
        (mutant(fr(9.0), p=0.1, eps=0.3), _LEFT, 60, 0.2, 0.5, 3000, None, 5, list(range(17))),
    ):
        _assert_lockstep_matches_python(*case)


def test_counts_stay_below_2_53():
    # below 2**53 every count is a double and N/k is Python's correctly
    # rounded ratio: four chains in the lanes end one epoch short of it as
    # the Python loop ends them.  At k = 2**53 + 1 the C ratio of the
    # rounded doubles would differ from Python's in the last bit, so both
    # paths refuse such a run
    top = 2**53 - 1
    initial = PopState(10**9, 6 * 10**8, 3 * 10**8, 10**8, step=top - 300)
    args = (initial, _LEFT, fc(3.0), top, 1e-30, 7)
    gens = [np.random.default_rng(seed) for seed in range(4)]
    lanes = [_outcome(r, gen) for r, gen in zip(chain.simulate_replications(*args, gens), gens)]
    with python_kernels():
        assert lanes == [_chain_run(*args, seed) for seed in range(4)]
    # k past 2**53, max_steps at it, and N(0) + max_steps at it
    for step, max_steps in ((2**53 + 1, 2**53 + 201), (0, 2**53), (0, 2**53 - 10)):
        late = PopState(10**9, 10**9, 0, 0, step=step)
        for kernels in (python_kernels, nullcontext):
            with kernels(), pytest.raises(InvalidParams, match="below 2\\*\\*53"):
                simulate(late, _LEFT, fc(1.0), max_steps, 1e-30, rng=1)


def test_replications_share_no_generator():
    gen = np.random.default_rng(1)
    with pytest.raises(InvalidParams, match="generator of its own"):
        chain.simulate_replications(make_initial(100, 0.2, 0.1), _LEFT, fc(1.0), 10, None, 1, [gen, gen])


def _uint32_first(seed):
    """A PCG64 generator that holds a buffered 32-bit word: has_uint32 is 1."""
    gen = np.random.default_rng(seed)
    gen.integers(0, 2**32, dtype=np.uint32)
    return gen


_FAR = make_initial(40_000, 0.1, 0.01)  # no freeze within 2 * _RNG_BLOCK + 1 epochs


@pytest.mark.parametrize(
    "initial,params,max_steps,delta,stride,make_gen,pcg",
    [
        # runs that end one epoch short of, at, and one past a block's end
        *(
            (_FAR, _LEFT, m * _RNG_BLOCK + extra, None, 1000, np.random.default_rng, True)
            for m in (1, 2)
            for extra in (-1, 0, 1)
        ),
        (PopState(40_000, 35_600, 4000, 400, step=37), _LEFT, _RNG_BLOCK + 40, None, 7,
         np.random.default_rng, True),  # a start step > 0
        (_FAR, _LEFT, 2 * _RNG_BLOCK + 5, None, 3 * _RNG_BLOCK + 1, np.random.default_rng, True),
        (PopState(10, 8, 1, 1, step=1000), _LEFT, 5000, None, 1, np.random.default_rng, True),
        (make_initial(2, 0.0, 0.0), _DYING, 50, 0.1, 7, np.random.default_rng, True),  # dies out
        (_FAR, _LEFT, _RNG_BLOCK + 3, None, 100, _uint32_first, True),
        (_FAR, _LEFT, _RNG_BLOCK + 3, None, 100,
         lambda seed: np.random.Generator(np.random.MT19937(seed)), False),
        (_FAR, _LEFT, 3000, None, 10, lambda seed: FixedUniforms(0.37), False),
    ],
    ids=[
        "block-1", "block", "block+1", "2blocks-1", "2blocks", "2blocks+1", "start-step",
        "stride-past-a-block", "frozen-at-once", "extinct", "buffered-uint32", "mt19937",
        "fixed-uniforms",
    ],
)
def test_kernel_pcg64_matches_python(initial, params, max_steps, delta, stride, make_gen, pcg):
    # the kernel steps a plain PCG64 generator itself and leaves it where the
    # Python loop leaves it, right after the last uniform used, has_uint32
    # and uinteger included; any other generator runs the Python loop
    args = (initial, params, fc(1.0), max_steps, delta, stride, 11, make_gen)
    with mock.patch.object(chain, "_python_loop", wraps=chain._python_loop) as loop:
        native = _chain_run(*args)
    assert loop.called != pcg
    with python_kernels():
        assert _chain_run(*args) == native


# the generators of the contract test below and the kernels each runs with;
# each is made from seed 8, on which the extinct run dies out with all four
_GENERATORS = {
    "pcg64": (np.random.default_rng, nullcontext),  # the kernel
    "python": (np.random.default_rng, python_kernels),
    "buffered-uint32": (_uint32_first, nullcontext),
    "mt19937": (lambda seed: np.random.Generator(np.random.MT19937(seed)), nullcontext),
}
# the runs of the contract test: (initial, params, policy, max_steps, delta, stride)
_STOPS = {
    **{
        name: (_FAR, _LEFT, fc(1.0), _RNG_BLOCK + extra, None, 1000)
        for name, extra in (("block-1", -1), ("block", 0), ("block+1", 1))
    },
    "frozen": (make_initial(4, 0.25, 0.0), _LEFT, fc(0.5), 10_000, None, 1),
    "extinct": (make_initial(2, 0.0, 0.0), _DYING, fc(0.5), 50, 0.1, 7),
    "zero-rate": (make_initial(50, 0.0, 0.0), _DEAD, fc(0.5), 10, None, 1),
}


@pytest.mark.parametrize("generator", list(_GENERATORS))
@pytest.mark.parametrize("stop", list(_STOPS))
def test_a_run_leaves_its_generator_after_the_uniforms_it_used(stop, generator):
    # a run draws one uniform per epoch and leaves its generator as a fresh
    # one after random(used), where the block of the Python loop ends or not
    make_gen, kernels = _GENERATORS[generator]
    initial, params, policy, max_steps, delta, stride = _STOPS[stop]

    def run(max_steps):
        gen = make_gen(8)
        with kernels():
            try:
                return gen, simulate(initial, params, policy, max_steps, delta, stride, gen)
            except DegenerateState as exc:
                return gen, exc

    gen, result = run(max_steps)
    if stop in ("extinct", "zero-rate"):
        assert isinstance(result, DegenerateState)
        # the first epoch that raises: a population dies out after its
        # epoch's uniform, and a zero total rate stops before it
        last = next(m for m in range(1, max_steps + 1) if isinstance(run(m)[1], DegenerateState))
        used = last if stop == "extinct" else last - 1
    else:
        assert result.frozen == (stop == "frozen")
        used = result.final.step - initial.step
    fresh = make_gen(8)
    fresh.random(used)
    assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)  # MT19937's is an array


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
    # stride 1 and two record rows per chain: each chain stops after two
    # epochs, and a call with new arrays goes on from there; chain j writes
    # rows 2j and 2j + 1 only
    lib = _native.library()
    chains = (_native.ChainState * 2)()
    for c, seed in zip(chains, (0, 1)):
        c.n, c.s, c.i, c.v, c.eta, c.inv_eta, c.min_eta = 100, 70, 20, 10, 100.0, 0.01, 100.0
        pcg = np.random.PCG64(seed).state["state"]
        c.state_hi, c.state_lo = divmod(pcg["state"], 2**64)
        c.inc_hi, c.inc_lo = divmod(pcg["inc"], 2**64)
    law = _native.make_law(_LEFT, fc(1.0))
    epochs = []
    for _ in range(3):
        rec = (np.full(5, -1, np.int64), *(np.empty(5) for _ in range(3)))
        lib.vaxgame_chain(
            chains, 2, ctypes.byref(law), 100, 0.01, 1, 2, *(a.ctypes.data for a in rec)
        )
        assert [(c.code, c.n_rec) for c in chains] == [(_native.CHAIN_RECORDS_FULL, 2)] * 2
        assert rec[0][4] == -1  # the row past the chains' rows stays untouched
        epochs.append(rec[0][:4].tolist())
    assert epochs == [[1, 2, 1, 2], [3, 4, 3, 4], [5, 6, 5, 6]]
    assert [c.k for c in chains] == [6, 6]


def test_lanes_stop_at_full_records_before_the_next_epoch():
    # stride 5 and one record row per chain: the lanes leave each chain to
    # epoch() at its record epoch, and it stops at k = 5, before the next
    # epoch, as a chain stepped alone does
    lib = _native.library()
    law = _native.make_law(_LEFT, fc(1.0))
    for n_chains in (1, 3):
        chains = (_native.ChainState * n_chains)()
        for c, seed in zip(chains, range(n_chains)):
            c.n, c.s, c.i, c.v, c.eta, c.inv_eta, c.min_eta = 100, 70, 20, 10, 100.0, 0.01, 100.0
            pcg = np.random.PCG64(seed).state["state"]
            c.state_hi, c.state_lo = divmod(pcg["state"], 2**64)
            c.inc_hi, c.inc_lo = divmod(pcg["inc"], 2**64)
        rec = (np.empty(n_chains, np.int64), *(np.empty(n_chains) for _ in range(3)))
        lib.vaxgame_chain(
            chains, n_chains, ctypes.byref(law), 100, 0.01, 5, 1, *(a.ctypes.data for a in rec)
        )
        assert [(c.code, c.k, c.n_rec) for c in chains] == [(_native.CHAIN_RECORDS_FULL, 5, 1)] * n_chains
        assert rec[0].tolist() == [5] * n_chains


_Q_ONLY = SimpleNamespace(lam=0.0, r=0.0, nu=1.0, b=0.0, d=0.0, d_e=0.0)


@given(policy=POLICIES, theta=UNIT, psi_share=UNIT)
@example(policy=vfc2(4.0, 0.25), theta=0.25, psi_share=0.4)  # on the threshold
@example(policy=vfc2(4.0, 0.25, theta_variant=True), theta=0.25, psi_share=0.4)
@example(policy=mutant(fr(50.0), p=0.7, eps=0.04), theta=0.2, psi_share=0.5)  # base q~ > 1
# products whose grouping changes the rounding: (beta * psi) * (1 - psi), (beta * theta) * psi
@example(policy=fr(3.0), theta=0.0, psi_share=0.3)
@example(policy=vfc1(3.0), theta=0.1, psi_share=0.1)
def test_native_response_matches_accept_fn(policy, theta, psi_share):
    # pins the C copy of the response table; the chain rarely shows a 1-ulp
    # change of q.  With nu = 1 and every other rate 0 the edge c4 is the one
    # rounded product q * phi, where a change of q shows
    psi = psi_share * (1.0 - theta)
    edges = np.empty(8)
    _native.library().vaxgame_edges(_native.make_law(_Q_ONLY, policy), theta, psi, edges.ctypes.data)
    assert repr(edges.tolist()) == repr(_reference_edges(_Q_ONLY, policy, theta, psi))
    assert edges[3] == accept_fn(policy)(theta, psi) * (1.0 - theta - psi)


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
    _native.library().vaxgame_edges(
        _native.make_law(params, policy), theta, psi, edges.ctypes.data
    )
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


def _c_field(params, policy, y):
    """The C field() at y: the kernel's return code and the g it writes.

    ``vaxgame_integrate`` with one record row starts its first segment,
    which writes g at y to ``seg.f``, records the start row and returns
    ODE_RECORDS_FULL; where varrho vanishes at y it returns ODE_DEGENERATE
    and leaves ``seg.f`` as it was (NaN here).
    """
    loop = _native.Loop(
        t_end=1.0, max_chunk=ode._MAX_CHUNK, chunk=ode._FIRST_CHUNK,
        seg=_native.Segment(rtol=1e-12, atol=1e-14),
    )
    loop.seg.y[:] = tuple(y)
    loop.seg.f[:] = (math.nan,) * 3
    law = _native.make_law(params, policy)
    code = _native.library().vaxgame_integrate(
        ctypes.byref(loop), ctypes.byref(law), ode._TABLEAU_C, 1, (ctypes.c_double * 4)()
    )
    return code, list(loop.seg.f)


@given(policy=POLICIES, params=PARAMS, theta=_COORD, psi=_COORD, on_face=st.booleans(), eta=_ETA)
@example(vfc2(4.0, 0.2), _THRESHOLD, 0.2, 0.4, False, 0.5)  # on the threshold
@example(fc(1.0), _LEFT, 0.7, 0.95, False, 1.0)  # projected back onto theta + psi = 1
@example(vfc1(2.0), _LEFT, -0.0, 0.0, False, 1.0)  # q of theta + 0.0, not of -0.0: g_psi is 0.0
@example(fc(3.0), _THRESHOLD, 0.3, 0.2, False, 1.0)  # varrho's grouping shows in the last bit
@example(fc(3.0), _LEFT, 0.2, 0.1, False, 0.0)  # eta = 0: g is 0
@example(fc(3.0), _LEFT, math.nan, 0.1, False, 1.0)  # the clamps pass a NaN through
def test_native_field_matches_ode_field(policy, params, theta, psi, on_face, eta):
    # off the simplex and at eta <= 0 too, where the adaptive stages probe
    y = np.array([theta, 1.0 - theta if on_face else psi, eta])
    code, g = _c_field(params, policy, y)
    assert code == _native.ODE_RECORDS_FULL
    assert repr(g) == repr(ode.field(params, policy)(y).tolist())


# rates of 1e-300 and a projection rounding theta + psi above 1 give phi < 0
# and a varrho that vanishes
_VANISHING = ModelParams(lam=1e-300, r=0.0, nu=1.0, b=1e-300, d=0.0)


def test_native_field_reports_a_vanishing_varrho():
    y = np.array([0.7, 0.95, 1.0])
    with pytest.raises(DegenerateState, match="varrho vanished"):
        ode.field(_VANISHING, fc(1.0))(y)
    code, g = _c_field(_VANISHING, fc(1.0), y)
    assert code == _native.ODE_DEGENERATE and all(map(math.isnan, g))  # field() wrote no g


# runs that settle: fc(1.0) turns quiet in the middle of a segment; the
# threshold of _QUIET_EVENT lies 1.0e-12 above the endemic level
# 1 - (r + b)/lam of _LEFT, inside the rounding chatter of its orbit on
# psi = 0, which crosses it first at a quiet row: an event row; the orbit
# of atlas-fr-deadly's first point turns quiet on its way to an exact
# landing on g == 0
_QUIET_EVENT = vfc2(3.0, 0.8233711545220148)
_FR_DEADLY = ModelParams(lam=2.0, r=0.3, nu=1.0, b=0.6, d=0.2, d_e=0.15)
_SETTLING = {
    "mid-chunk": (_LEFT, fc(1.0), OdeState(0.2, 0.1, 1.0)),
    "event-row": (_LEFT, _QUIET_EVENT, OdeState(0.2, 0.0, 1.0)),
    "exact-landing": (_FR_DEADLY, fr(0.2), OdeState(0.3, 0.2, 1.0)),
}
# the horizon of the runs without the stop: the bound of a chunk past every
# case's settling row, so that those runs take the same segments
_UNSTOPPED = 126.0
_python_settling = {}


def _first_quiet_row(path, params, policy):
    """The index of the first row of path after a step, or at an event, with max|g| < tol.

    A segment's start repeats the t of the row before it, and the hop across
    the threshold follows an event row, which lies on theta = Gamma: neither
    counts.
    """
    gamma = vaxgame.policy.threshold(policy)
    g = ode.field_rows(params, policy)(path.states)
    for i in range(1, len(path.t)):
        counted = path.t[i] != path.t[i - 1] and path.states[i - 1, 0] != gamma
        if counted and np.max(np.abs(g[i])) < ode.EQUILIBRIUM_TOL:
            return i
    return None


def _cut_run(params, policy, start):
    """:func:`_ode_run` of the run without the stop, cut at its first quiet row.

    This is what the run with the stop must give: the same rows, the end
    projected onto the simplex, and as many segments as began by then.
    """
    whole = integrate(start, params, policy, _UNSTOPPED, stop_at_equilibrium=False)
    i = _first_quiet_row(whole, params, policy)
    t, states = whole.t[: i + 1], whole.states[: i + 1]
    end = ode._project_simplex(states[-1])
    endpoint = OdeState(theta=end[0], psi=end[1], eta=end[2], t=float(t[-1]))
    n_segments = 1 + int(np.count_nonzero(t[1:] == t[:-1]))
    return repr(((t.tolist(), states.tolist()), endpoint, True, n_segments, False))


def test_settling_cases_reach_their_branches():
    for case, (params, policy, start) in _SETTLING.items():
        path = integrate(start, params, policy, 1e4)
        whole = integrate(start, params, policy, _UNSTOPPED, stop_at_equilibrium=False)
        i = _first_quiet_row(whole, params, policy)
        assert path.settled and not whole.settled and len(path.t) == i + 1
        if case == "mid-chunk":  # the segment without the stop goes on past the row
            assert whole.t[i + 1] != whole.t[i]
        elif case == "event-row":
            assert path.states[-1, 0] == _QUIET_EVENT.gamma
        else:  # the quiet row comes well before the landing, in the fourth segment
            g = ode.field_rows(params, policy)(whole.states)
            landed = np.flatnonzero(~g.any(axis=1))
            assert landed.size and whole.t[landed[0]] > 2 * path.t[-1]
            assert path.n_segments == 4


@pytest.mark.parametrize("rows", [1, 2, 7, ode._SEGMENT_ROWS])
@pytest.mark.parametrize("case", sorted(_SETTLING))
def test_chunk_loop_settles_as_python(monkeypatch, rows, case):
    # in Python, and natively at every record buffer, the run with the stop
    # is the run without it cut at its first quiet row
    params, policy, start = _SETTLING[case]
    if case not in _python_settling:
        with python_kernels():
            _python_settling[case] = _ode_run(start, params, policy, 1e4)
            assert _cut_run(params, policy, start) == _python_settling[case]
    monkeypatch.setattr(ode, "_SEGMENT_ROWS", rows)
    assert _ode_run(start, params, policy, 1e4) == _python_settling[case]
    assert _cut_run(params, policy, start) == _python_settling[case]


# VFC2 runs with threshold events, each hopped across in the kernel: to the
# Zeno cut-off, a mutant over VFC2 to its horizon, and the orbit of
# _QUIET_EVENT, whose field is so slow at its threshold that every hop takes
# more than one micro-step
_HOPPING = {
    "zeno": (OdeState(0.25, 0.1, 0.1), _THRESHOLD, vfc2(6.0, 0.2), 30.0),
    "mutant": (OdeState(0.25, 0.1, 1.0), _THRESHOLD, mutant(vfc2(6.0, 0.2), p=0.5, eps=0.1), 3.0),
    "slow-hops": (OdeState(0.2, 0.0, 1.0), _LEFT, _QUIET_EVENT, 40.0),
}
_python_hopping = {}


@pytest.mark.parametrize("rows", [1, 2, 7, ode._SEGMENT_ROWS])
@pytest.mark.parametrize("case", sorted(_HOPPING))
def test_kernel_hops_and_cuts_off_as_python(monkeypatch, rows, case):
    # the hop across the threshold and the Zeno count run in the kernel: at
    # every record buffer its path, segments, cut-off and endpoint are those
    # of the Python chunk loop
    start, params, policy, horizon = _HOPPING[case]
    args = (start, params, policy, horizon)
    if case not in _python_hopping:
        with python_kernels():
            _python_hopping[case] = _ode_run(*args, stop_at_equilibrium=False)
    monkeypatch.setattr(ode, "_SEGMENT_ROWS", rows)
    assert _ode_run(*args, stop_at_equilibrium=False) == _python_hopping[case]
    path = integrate(*args, stop_at_equilibrium=False)
    assert path.zeno_truncated == (case == "zeno")
    # a hop row follows its event row, which lies on the threshold, and the
    # next segment starts at the hop's t; one micro-step moves t by h0
    t, theta, gamma = path.t, path.states[:, 0], vaxgame.policy.threshold(policy)
    hops = [
        i for i in range(1, len(t) - 1) if t[i + 1] == t[i] and abs(theta[i - 1] - gamma) <= 1e-12
    ]
    assert hops
    steps = [(t[i] - t[i - 1]) / (1e-9 * max(1.0, t[i - 1])) for i in hops]
    assert (min(steps) > 1.5) == (case == "slow-hops")


def test_long_hop_through_a_large_field_matches_python():
    # with eta at 1e11, theta leaves the threshold at about 1e-12 per unit of
    # time while g_eta is about -eta: the hop takes about 30 micro-steps,
    # the last ones long enough that h * g moves eta by a good part of
    # itself, so that the grouping of the RK4 sum reaches the last bit of y
    start, policy = OdeState(0.2 + 1e-12, 0.5, 1e11), vfc2(6.0, 0.2)
    hops = []

    def spy(g, t, y, gamma, t_end, clearance=1e-12):
        t_after, y_after = hop(g, t, y, gamma, t_end, clearance)
        hops.append((t_after - t, g(y)))
        return t_after, y_after

    hop = ode._hop_across
    with python_kernels(), mock.patch.object(ode, "_hop_across", spy):
        python = _ode_run(start, _THRESHOLD, policy, 2.0, stop_at_equilibrium=False)
    ((span, g),) = hops
    assert span > 2**20 * 1e-9 and abs(g[2]) > 1e10  # about 20 doublings of h0 = 1e-9 * max(1, t)
    assert _ode_run(start, _THRESHOLD, policy, 2.0, stop_at_equilibrium=False) == python
    assert _ode_run(start, _THRESHOLD, policy, 2.0, stop_at_equilibrium=False) == python


# at loose tolerances the fast decay of theta overshoots below 0 within a step
_OVERSHOOT = ModelParams(lam=2.4, r=36.75, nu=0.245, b=36.34, d=10.2)


@pytest.mark.parametrize(
    "params,start,error",
    [
        (_OVERSHOOT, OdeState(0.42, 0.48, 0.5), "state left the simplex: array([-3.19345730e-04"),
        (_VANISHING, OdeState(0.7, 0.3, 1.0), "varrho vanished"),
    ],
)
def test_chunk_loop_errors_as_python(params, start, error):
    # the kernel's error codes become the errors of the Python loop
    def run():
        try:
            return repr(integrate(start, params, fc(5.0), 50.0, rtol=1.7e-3, atol=1.7e-3))
        except (StepFailure, DegenerateState) as exc:
            return repr(exc)

    native = run()
    assert error in native
    with python_kernels():
        assert run() == native


def _kernel_newton(params, policy, y):
    """(code, repr of (y, residual, start residual)) of vaxgame_newton from y."""
    out, res, start_res = _native.State(*y), ctypes.c_double(), ctypes.c_double()
    code = _native.library().vaxgame_newton(
        _native.make_law(params, policy), ode._MAX_NEWTON, ode.EQUILIBRIUM_TOL, ode._REL_STEP,
        out, ctypes.byref(res), ctypes.byref(start_res),
    )
    return code, repr((list(out), res.value, start_res.value))


_FACE = st.one_of(UNIT, st.sampled_from([0.0, 1.0, 1e-8, 1.0 - 1e-8]))


@settings(deadline=None, max_examples=80)
@given(policy=POLICIES, params=PARAMS, theta=_FACE, psi_share=_FACE, eta=st.floats(0.01, 5.0))
# the vertex (0, 1): the theta column is blocked on both sides, so it is
# zero and the first pivot is exactly 0.0
@example(fc(1.0), _LEFT, 0.0, 1.0, 0.5)
@example(mutant(fc(3.0), p=0.5, eps=0.1), _LEFT, 0.5, 0.8, 0.1)
@example(static(0.3), _DEADLY, 0.0, 0.5, 0.5)  # on the disease-free face
def test_native_newton_matches_python(policy, params, theta, psi_share, eta):
    y = np.array([theta, psi_share * (1.0 - theta), eta])
    code, native = _kernel_newton(params, policy, y)
    pivots = []

    def solve3(a, b):
        pivots.append(ode_solve3(a, b) is None)
        return ode_solve3(a, b)

    ode_solve3 = ode._solve3
    with mock.patch.object(ode, "_solve3", solve3):
        try:
            out, res, start_res = ode._newton(ode.field(params, policy), y)
            reference = repr((out.tolist(), res, start_res))
        except DegenerateState:
            reference = None
    if code == _native.ODE_SINGULAR:
        assert pivots.count(True) >= 1
        # the start's residual is written before the decline
        assert native.endswith(f", {start_res!r})")
        return
    assert not any(pivots)
    if code == _native.ODE_DEGENERATE:
        assert reference is None
    else:
        assert code == 0 and native == reference


def test_newton_kernel_declines_at_a_zero_pivot():
    y = np.array([0.0, 1.0, 0.5])
    assert _kernel_newton(_LEFT, fc(1.0), y)[0] == _native.ODE_SINGULAR
    g = ode.field(_LEFT, fc(1.0))
    assert ode._fd_jacobian(g, y)[:, 0].tolist() == [0.0, 0.0, 0.0]
    # find_equilibrium then runs the Python Newton and its least-squares step
    native = repr(ode.find_equilibrium(OdeState(*y), _LEFT, fc(1.0)))
    with python_kernels():
        assert repr(ode.find_equilibrium(OdeState(*y), _LEFT, fc(1.0))) == native


@pytest.mark.parametrize(
    "policy,guess",
    [
        (fc(3.0), OdeState(0.3, 0.45, 0.1)),
        (mutant(fc(3.0), p=0.5, eps=0.1), OdeState(0.3, 0.45, 0.1)),
        (mutant(fr(4.0), p=0.0, eps=0.02), OdeState(0.2, 0.6, 0.3)),
        (fc(0.3), OdeState(0.0, 0.0, 0.3)),
        (vfc1(5.0), OdeState(0.5, 0.1, 1.0)),
    ],
)
def test_find_equilibrium_matches_python(policy, guess):
    native = repr(ode.find_equilibrium(guess, _LEFT, policy))
    with python_kernels():
        assert repr(ode.find_equilibrium(guess, _LEFT, policy)) == native


@settings(deadline=None, max_examples=80)
@given(policy=POLICIES, params=PARAMS, theta=_FACE, psi_share=_FACE, eta=st.floats(0.01, 5.0))
@example(fc(3.0), _LEFT, 0.3, 0.5, 1.0)  # interior: central differences
@example(fc(3.0), _LEFT, 0.0, 0.5, 1.0)  # theta = 0: forward
@example(fc(3.0), _LEFT, 0.4, 1.0, 1.0)  # theta + psi = 1: backward in both
@example(fc(3.0), _LEFT, 1e-8, 0.0, 1.0)  # within h of both faces: forward
@example(fc(1.0), _LEFT, 0.0, 1.0, 0.5)  # the vertex (0, 1): a zero column
# an infinite eta or psi: steps of inf give inf - inf, NaN columns and no warning
@example(fc(1.0), _LEFT, 0.2, 0.125, math.inf)
@example(fc(1.0), _LEFT, 0.2, math.inf, 1.0)
def test_native_jacobian_matches_fd_jacobian(policy, params, theta, psi_share, eta):
    y = np.array([theta, psi_share * (1.0 - theta), eta])
    try:
        reference = repr(ode._fd_jacobian(ode.field(params, policy), y).tolist())
    except DegenerateState as exc:
        reference = repr(exc)
    try:
        native = repr(ode.field_jacobian(params, policy, y).tolist())
    except DegenerateState as exc:
        native = repr(exc)
    assert native == reference
    with python_kernels():
        assert repr(ode.field_jacobian(params, policy, y).tolist()) == native


def test_jacobian_kernel_reports_a_vanishing_varrho():
    y = np.array([0.7, 0.95, 1.0])  # projected back onto theta + psi = 1, where phi < 0
    with pytest.raises(DegenerateState, match="varrho vanished"):
        ode._fd_jacobian(ode.field(_VANISHING, fc(1.0)), y)
    with pytest.raises(DegenerateState, match="varrho vanished"):
        ode.field_jacobian(_VANISHING, fc(1.0), y)
    with pytest.raises(ValueError, match="expected a state of 3 components"):
        ode.field_jacobian(_LEFT, fc(1.0), y[:2])


@settings(deadline=None)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9),
    b=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
)
def test_solve3_solves_as_numpy_does(a, b):
    a, b = np.array(a).reshape(3, 3), np.array(b)
    x = ode._solve3(a, b)
    if np.linalg.cond(a) < 1e6:
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-8, atol=1e-8)


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
@example(fc(2.0), [(0.2, 0.5), (0.2, 0.5000000000000001)])  # q~ = 1 exactly, then just above
@example(fr(5.0), [(0.6, 0.4), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])  # on the simplex's edges
@example(fc(0.0), [(1e308, 1e308)])  # theta + psi overflows: not kept, and no numpy warning
def test_native_propensity_rows_match_propensity_fn(policy, points):
    # the sample pass tests q~ > 1 at each kept sample: one point per call,
    # as the offset from x_hat = (0, 0, 1), which adds it exactly; a point
    # outside the simplex (NaN and infinities included) is not kept
    q_tilde = propensity_fn(policy)
    x_hat = np.array([0.0, 0.0, 1.0])
    native = attractor._tally(_LEFT, policy, x_hat, np.eye(3))
    with python_kernels():
        python = attractor._tally(_LEFT, policy, x_hat, np.eye(3))
    for theta, psi in points:
        offset = np.array([[theta, psi, 0.0]])
        counts = native(offset, 1)
        assert counts == python(offset, 1)
        if not (theta >= 0.0 and psi >= 0.0 and theta + psi <= 1.0):
            assert counts == [0, 0, 0, 0, 0]
            continue
        assert counts[0] == 1
        assert counts[3] == int(q_tilde(theta, psi) > 1.0)
    # eta must stay positive: x_hat's eta 1 plus an offset of -1 is not kept
    assert native(np.array([[0.2, 0.2, -1.0]]), 1) == [0, 0, 0, 0, 0]


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
# exact half-way cases at every magnitude: m 2^-k = m 5^k 10^-k for odd m
# with 18 digits in m 5^k, for each k (of 1 to 74) where such an m < 2^53
# exists; a dyadic fraction with k > 25 has more than 18 significant digits
_HALF_WAY_ODD = [
    (k, -(-(10**17) // 5**k) // 2, (min((10**18 - 1) // 5**k, 2**53 - 1) - 1) // 2)
    for k in range(1, 75)
]
_ANY_HALF_WAY = st.sampled_from([(k, lo, hi) for k, lo, hi in _HALF_WAY_ODD if lo <= hi]).flatmap(
    lambda r: st.integers(r[1], r[2]).map(lambda j: math.ldexp(2 * j + 1, -r[0]))
)
# the doubles next to 10^k, where the estimate of k is corrected, and the
# edges of the formatter's integer path, 10^-16 <= |x| < 2^127
_NEXT_TO_TEN = st.builds(
    math.nextafter, st.integers(-25, 40).map(lambda k: float(f"1e{k}")), st.sampled_from([0.0, math.inf])
)
_EDGES = [
    y for x in (1e-16, 2.0**127) for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
]
_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),  # random bit patterns, NaNs of both signs among them
    st.integers(0, 2**52 - 1).map(_double),  # subnormals
    st.sampled_from(_SPECIAL),
    _HALF_WAY,
    st.floats(allow_nan=True, allow_infinity=True),
    _ANY_HALF_WAY,
    _NEXT_TO_TEN,
    st.sampled_from(_EDGES),
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
# the last digits before the switch from fixed to exponent notation, and
# 1e-14, the one double of the integer path whose 17 digits carry to 10^17
@example(
    rows=[(-1, math.nextafter(1e-4, 0.0), math.nextafter(1e17, 0.0), 1e-14, -1e-14)],
    keyed=True,
    block=1,
)
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
        attractor._tally(_LEFT, fc(1.0), np.ones(3), np.eye(3))(np.zeros(3), 1)
    with pytest.raises(ValueError, match="expected x_hat"):
        attractor._tally(_LEFT, fc(1.0), np.ones(2), np.eye(3))
    with pytest.raises(ValueError, match="expected x_hat"):
        attractor._tally(_LEFT, fc(1.0), np.ones(3), np.eye(2))
    with pytest.raises(ValueError, match="same number of rows"):
        _native.write_rows(tmp_path / "x.csv", "h\n", (np.zeros(3),), keys=np.arange(2))
    with pytest.raises(ValueError, match="same number of rows"):
        _native.write_rows(tmp_path / "x.csv", "h\n", (np.zeros(3), np.zeros((2, 3))))


def test_formatter_declines_a_small_buffer():
    text = np.empty(46, np.uint8)  # a row of one double fits, one of four (21 + 4 * 25) does not
    lib = _native.library()
    for cols, size in ((4, -1), (1, 2)):
        values = np.zeros((1, cols))
        assert lib.vaxgame_format_rows(
            1, cols, None, values.ctypes.data, text.ctypes.data, len(text)
        ) == size


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


def test_draw_kernel_skips_zero_directions():
    # an all-zero direction (here with a -0.0, as the ziggurat can give)
    # draws no uniform and gives a row of NaN; the next attempt draws its
    # uniform and gives its offset
    direction = np.array([0.5, 0.0, -2.0])
    normals = iter([np.array([0.0, -0.0, 0.0]), direction])
    uniforms = []

    def random():
        uniforms.append(0.25)
        return 0.25

    rng = SimpleNamespace(normal=lambda size: next(normals), random=random)
    offsets = attractor._draw_offsets(rng, 2, 1e-3)
    assert len(uniforms) == 1  # no uniform for the zero direction
    assert offsets.shape == (2, 3) and np.all(np.isnan(offsets[0]))
    expected = direction / math.sqrt(direction.dot(direction)) * 1e-3 * 0.25 ** (1.0 / 3.0)
    assert offsets[1].tolist() == expected.tolist()


def _draws(seed, sizes, radius):
    rng = np.random.default_rng(seed)
    offsets = [attractor._draw_offsets(rng, n, radius) for n in sizes]
    return np.concatenate(offsets).tobytes(), rng.bit_generator.state


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=4),
    radius=st.floats(1e-6, 0.5),
)
@example(seed=0, sizes=[0, 1, 199, 300], radius=1e-3)
@example(seed=7, sizes=[100_000, 100_000], radius=0.1)
def test_native_draws_match_python(seed, sizes, radius):
    # _Draws extends a stream piece by piece: the pieces give the rows, bit
    # for bit, and the generator state of one call over their sum
    assert _draws(seed, sizes, radius) == _draws(seed, [sum(sizes)], radius)


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
