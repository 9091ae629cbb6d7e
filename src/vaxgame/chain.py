"""Event-driven simulation of the embedded population jump chain.

The continuous-time population process (infections at rate lam*I*S/N,
recoveries r*I, vaccination decisions nu*S, births b*N, natural deaths d per
head, excess deaths d_e*I) is observed at its transition epochs.  Dividing
each event rate by the total rate N*varrho, with

    varrho = b + d + d_e*theta + lam*theta*phi + nu*phi + r*theta,

gives state-dependent probabilities over eight event types that depend on
the fractions (theta, psi, phi) only, never on the absolute population size.
Declined vaccination decisions (NullDecision) are explicit epochs: varrho
carries the full nu*phi term, so epochs where the woken susceptible refuses
must be counted for the probabilities to normalise.

Alongside the integer counts the simulator tracks eta_k = N_k / k (eta_0 =
N(0)), freezes the whole state once eta_k <= delta (near-extinction paths
carry no limit information), and records two runtime diagnostics used by the
invariant suite: the minimum eta_k observed and the largest one-step jump of
1/eta_k measured in units of eps_k = 1/(k+1).  On every non-frozen path with
delta = 2/(N(0)-1) these obey

    eta_k >= delta_bar := (N(0)-3) / (N(0)-1)^2,
    |1/eta_{k+1} - 1/eta_k| <= eps_k * (delta_bar+1) / delta_bar^2.

:func:`event_edges` is the one Python definition of the eight event
masses and varrho, as the cumulative bin edges of one epoch.
:func:`event_distribution` reads the bin widths from it, and :func:`step`
and the Python loop :func:`_python_loop` sample an event by the same rule:
the first bin whose upper edge exceeds u * varrho for a uniform u.
:func:`simulate_replications` runs one chain per generator (:func:`simulate`
is its one-generator case): those of plain PCG64 generators in one call of
the C kernel of :mod:`vaxgame._native`, side by side, when that
loads, else in :func:`_python_loop`, the reference the kernel is tested
against.  Both give the same trajectory, and both leave the generator
right after the last uniform the run used.  :func:`step` is one epoch of
that loop, for checks of the chain's law.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _native
from .errors import DegenerateState, DomainError, FrozenTrajectory, InvalidParams, VaxGameError
from .params import ModelParams
from .policy import Policy, accept_fn, accept_prob

_RNG_BLOCK = 1 << 16
#: the record rows the C kernel gets per chain; a longer run goes on in another call
_MAX_RECORDS = 1 << 16
#: a 128-bit PCG64 word is passed to the C kernel as its two 64-bit halves
_UINT64 = 2**64
#: the C kernel counts in int64: every count lies in [-_INT64, _INT64)
_INT64 = 2**63
#: every integer below 2**53 is a double: k and N(k) stay below it, so that
#: the kernel's ratios N/k, I/N and V/N are Python's, each rounded once
_EXACT = 2**53

RngLike = Union[np.random.Generator, int, None]


class Event(IntEnum):
    INFECTION = 0
    RECOVERY = 1
    DEATH_INFECTED = 2
    VACCINATION = 3
    NULL_DECISION = 4
    BIRTH = 5
    DEATH_VACCINATED = 6
    DEATH_SUSCEPTIBLE = 7


#: Count increments (dS, dI, dV, dN) per event.  Births enter susceptible;
#: recovery returns to susceptible (no lasting immunity).
EVENT_EFFECTS: dict[Event, tuple[int, int, int, int]] = {
    Event.INFECTION: (-1, +1, 0, 0),
    Event.RECOVERY: (+1, -1, 0, 0),
    Event.DEATH_INFECTED: (0, -1, 0, -1),
    Event.VACCINATION: (-1, 0, +1, 0),
    Event.NULL_DECISION: (0, 0, 0, 0),
    Event.BIRTH: (+1, 0, 0, +1),
    Event.DEATH_VACCINATED: (0, 0, -1, -1),
    Event.DEATH_SUSCEPTIBLE: (-1, 0, 0, -1),
}


@dataclass
class PopState:
    """Integer compartment counts at a transition epoch."""

    n_total: int
    n_susc: int
    n_inf: int
    n_vacc: int
    step: int = 0
    frozen: bool = False

    def __post_init__(self) -> None:
        if self.n_susc + self.n_inf + self.n_vacc != self.n_total:
            raise InvalidParams("S + I + V must equal N")
        if min(self.n_total, self.n_susc, self.n_inf, self.n_vacc) < 0:
            raise InvalidParams("counts must be non-negative")

    def fractions(self) -> "FractionState":
        eta = self.n_total / self.step if self.step >= 1 else float(self.n_total)
        return FractionState(
            theta=self.n_inf / self.n_total,
            psi=self.n_vacc / self.n_total,
            eta=eta,
        )


def make_initial(n0: int, theta0: float, psi0: float) -> PopState:
    """Round fractional targets to integer counts summing to n0.

    Raises DomainError unless (theta0, psi0) lies in the simplex; a NaN
    fraction fails that test.
    """
    if not (theta0 >= 0 and psi0 >= 0 and theta0 + psi0 <= 1):
        raise DomainError("initial fractions must lie in the simplex")
    n_inf = round(n0 * theta0)
    n_vacc = round(n0 * psi0)
    n_susc = n0 - n_inf - n_vacc
    return PopState(n_total=n0, n_susc=n_susc, n_inf=n_inf, n_vacc=n_vacc)


@dataclass(frozen=True)
class FractionState:
    """Fractions (theta, psi) plus the population-per-epoch ratio eta."""

    theta: float
    psi: float
    eta: float

    @property
    def phi(self) -> float:
        return 1.0 - self.theta - self.psi


@dataclass(frozen=True)
class EventDistribution:
    """One-step event probabilities, indexed by :class:`Event`."""

    probs: np.ndarray
    varrho: float

    def __getitem__(self, event: Event) -> float:
        return float(self.probs[event])


def event_edges(params: ModelParams) -> Callable[[float, float, float], tuple[float, ...]]:
    """The chain's event law, resolved once: (theta, psi, q) -> (c1, ..., c7, varrho).

    The one definition of the event masses.  c1..c7 are their cumulative
    sums in the order of :class:`Event`, and varrho = c7 + d*phi is the
    total, the upper edge of the last bin.  The sums are grouped as the C
    kernel's ``event_edges`` in :mod:`vaxgame._native` groups them, so the
    two agree bit for bit.
    """
    lam, r, nu, b, d = params.lam, params.r, params.nu, params.b, params.d
    d_plus_de = params.d + params.d_e

    def edges(theta: float, psi: float, q: float) -> tuple[float, ...]:
        phi = 1.0 - theta - psi
        t_dec = nu * phi
        t_vac = q * t_dec
        c1 = lam * theta * phi
        c2 = c1 + r * theta
        c3 = c2 + d_plus_de * theta
        c4 = c3 + t_vac
        c5 = c4 + (t_dec - t_vac)
        c6 = c5 + b
        c7 = c6 + d * psi
        return c1, c2, c3, c4, c5, c6, c7, c7 + d * phi

    return edges


def event_distribution(
    state: FractionState, params: ModelParams, policy: Policy
) -> EventDistribution:
    """Exact one-step event probabilities at the given fractions.

    They are the bin widths of :func:`event_edges` over varrho.
    """
    theta, psi = state.theta, state.psi
    edges = event_edges(params)(theta, psi, accept_prob(policy, theta, psi))
    varrho = edges[-1]
    if varrho <= 0.0:
        raise DegenerateState("total event rate is zero")
    return EventDistribution(probs=np.diff(edges, prepend=0.0) / varrho, varrho=varrho)


#: the events that take a susceptible; at S = 0 only rounding can draw them
_SUSCEPTIBLE_EVENTS = frozenset({Event.INFECTION, Event.VACCINATION, Event.DEATH_SUSCEPTIBLE})


def step(
    state: PopState, params: ModelParams, policy: Policy, rng: np.random.Generator
) -> tuple[PopState, Event]:
    """Sample and apply one transition; the epoch index always advances.

    One epoch of :func:`simulate` for the same uniform u: the event is the
    first whose upper edge in :func:`event_edges` exceeds u * varrho.  An
    infection, vaccination or susceptible death drawn with no susceptible
    left, possible only by rounding, changes nothing and is returned as a
    null decision.
    """
    if state.frozen:
        raise FrozenTrajectory("cannot step a frozen state")
    fs = state.fractions()
    theta, psi = fs.theta, fs.psi
    *edges, varrho = event_edges(params)(theta, psi, accept_fn(policy)(theta, psi))
    if varrho <= 0.0:
        raise DegenerateState("total event rate is zero")
    x = float(rng.random()) * varrho
    event = next((e for e, c in zip(Event, edges) if x < c), Event.DEATH_SUSCEPTIBLE)
    if state.n_susc == 0 and event in _SUSCEPTIBLE_EVENTS:
        event = Event.NULL_DECISION  # the loop's guard against a rounded bin
    dS, dI, dV, dN = EVENT_EFFECTS[event]
    return PopState(
        n_total=state.n_total + dN,
        n_susc=state.n_susc + dS,
        n_inf=state.n_inf + dI,
        n_vacc=state.n_vacc + dV,
        step=state.step + 1,
        frozen=state.frozen,
    ), event


@dataclass(frozen=True)
class ChainDiagnostics:
    """Runtime extrema backing the near-extinction bounds."""

    min_eta: float
    max_inv_eta_jump_ratio: float  # max over k of |1/eta_{k+1} - 1/eta_k| / eps_k
    n_steps: int
    n0: int
    delta: float

    @property
    def delta_bar(self) -> float:
        n0 = self.n0
        return (n0 - 3) / (n0 - 1) ** 2


@dataclass
class Trajectory:
    """Strided record of a single chain run."""

    epochs: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    eta: np.ndarray
    final: PopState
    frozen: bool
    freeze_epoch: Optional[int]
    diagnostics: ChainDiagnostics
    stride: int = 1

    def __len__(self) -> int:
        return len(self.epochs)


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def simulate(
    initial: PopState,
    params: ModelParams,
    policy: Policy,
    max_steps: int,
    delta: Optional[float] = None,
    stride: int = 1000,
    rng: RngLike = None,
) -> Trajectory:
    """Run the chain for max_steps epochs or until the extinction freeze fires.

    delta defaults to 2/(N(0)-1).  Fractions are recorded every ``stride``
    epochs plus at the final epoch.  The run is deterministic for a fixed
    integer seed.  ``max_steps`` and ``stride`` are integers; ``stride``
    must fit in a signed 64-bit integer, and ``max_steps``, the initial step
    and N(0) + max_steps (the largest population the run can reach) must
    lie below 2**53, where every count is a double.  A population that dies out
    (possible only with a delta below the default) raises DegenerateState.

    The one-generator case of :func:`simulate_replications`.  The run draws
    one uniform per epoch, and leaves the generator right after the last
    one it used, as ``gen.random(n)`` for its n epochs would, also where it
    raises.  The kernel steps a plain PCG64 itself and draws the same
    uniforms.
    """
    (result,) = simulate_replications(initial, params, policy, max_steps, delta, stride, [rng])
    if isinstance(result, VaxGameError):
        raise result
    return result


def simulate_replications(
    initial: PopState,
    params: ModelParams,
    policy: Policy,
    max_steps: int,
    delta: Optional[float] = None,
    stride: int = 1000,
    rngs: Sequence[RngLike] = (None,),
) -> list[Union[Trajectory, VaxGameError]]:
    """:func:`simulate` on each generator of ``rngs``: its Trajectory or its VaxGameError, in order.

    A bad argument raises for all, and so does a generator given twice.  The
    plain ``Generator``s over ``PCG64`` run in one call of the C kernel, side
    by side; any other runs :func:`_python_loop`.  Each result and generator
    state is that of :func:`simulate` on the generator alone: each generator
    is left right after the last uniform its run used.
    """
    gens = [_as_rng(rng) for rng in rngs]
    n0 = initial.n_total
    if n0 < 2:
        raise InvalidParams("initial population must have at least 2 individuals")
    if initial.step < 0:
        raise InvalidParams("initial step must be non-negative")
    if delta is None:
        delta = 2.0 / (n0 - 1)
    if delta <= 0:
        raise InvalidParams("delta must be positive")
    try:
        max_steps, stride = operator.index(max_steps), operator.index(stride)
    except TypeError:
        raise InvalidParams("max_steps and stride must be integers") from None
    if stride < 1:
        raise InvalidParams("stride must be at least 1")
    reach = n0 + max(max_steps - initial.step, 0)
    if not all(-_INT64 <= x < _INT64 for x in (max_steps, stride, initial.step, reach)):
        raise InvalidParams(
            "max_steps, stride, the initial step and N(0) + max_steps must fit in 64 bits"
        )
    if not all(x < _EXACT for x in (max_steps, initial.step, reach)):
        raise InvalidParams("max_steps, the initial step and N(0) + max_steps must be below 2**53")
    if len({id(gen.bit_generator) for gen in gens}) < len(gens):
        raise InvalidParams("each replication needs a generator of its own")

    lib = _native.library()
    plain = (np.random.Generator, np.random.PCG64)
    native = [lib is not None and (type(gen), type(gen.bit_generator)) == plain for gen in gens]
    settings = (initial, params, policy, max_steps, delta, stride)
    kernel_gens = [gen for gen, in_kernel in zip(gens, native) if in_kernel]
    runs = iter(_native_loop(lib, *settings, kernel_gens) if kernel_gens else ())
    results: list[Union[Trajectory, VaxGameError]] = []
    for gen, in_kernel in zip(gens, native):
        try:
            run = next(runs) if in_kernel else _python_loop(*settings, gen)
        except DegenerateState as exc:  # raised by the Python loop
            run = exc
        if not isinstance(run, VaxGameError):
            run = _trajectory(initial, delta, stride, run)
        results.append(run)
    return results


def _trajectory(initial: PopState, delta: float, stride: int, run) -> Trajectory:
    """The Trajectory of a run of :func:`_python_loop` or :func:`_native_loop`."""
    (N, S, I, V, k), eta, freeze_epoch, min_eta, max_jump, records = run
    if records[0][-1] != k:  # the final epoch, off the stride
        records = [np.append(column, x) for column, x in zip(records, (k, I / N, V / N, eta))]
    ks, ths, pss, ets = records

    frozen = freeze_epoch is not None
    final = PopState(
        n_total=N, n_susc=S, n_inf=I, n_vacc=V, step=k, frozen=frozen
    )
    diag = ChainDiagnostics(
        min_eta=min_eta,
        max_inv_eta_jump_ratio=max_jump,
        n_steps=k - initial.step,
        n0=initial.n_total,
        delta=delta,
    )
    return Trajectory(
        epochs=np.asarray(ks, dtype=np.int64),
        theta=np.asarray(ths),
        psi=np.asarray(pss),
        eta=np.asarray(ets),
        final=final,
        frozen=frozen,
        freeze_epoch=freeze_epoch,
        diagnostics=diag,
        stride=stride,
    )


def _python_loop(initial, params, policy, max_steps, delta, stride, gen):
    """The chain loop in Python: the reference for the C kernel.

    Returns the final counts (N, S, I, V, k), the final eta, the freeze epoch
    (None if the chain did not freeze), min eta, the largest scaled jump of
    1/eta, and the records (epochs, theta, psi, eta) from the initial epoch on.
    It draws its uniforms ``_RNG_BLOCK`` at a time, for speed.  When the run
    ends, by a raise too, it sets the generator back to its state before the
    last block and draws again the uniforms it used of it, which is exact
    for every bit generator.
    """
    edges = event_edges(params)
    qfun = accept_fn(policy)

    N = initial.n_total
    S = initial.n_susc
    I = initial.n_inf
    V = initial.n_vacc
    k = initial.step

    eta = N / k if k >= 1 else float(N)
    inv_eta = 1.0 / eta
    min_eta = eta
    max_jump = 0.0

    ks: list[int] = [k]
    ths: list[float] = [I / N]
    pss: list[float] = [V / N]
    ets: list[float] = [eta]

    freeze_epoch: Optional[int] = None

    # the uniforms as Python floats (indexing a list is cheaper than an
    # array), and the generator's state before their block
    saved, buf, bi = gen.bit_generator.state, gen.random(_RNG_BLOCK).tolist(), 0

    try:
        while k < max_steps:
            if eta <= delta:
                freeze_epoch = k
                break

            theta = I / N
            psi = V / N
            c1, c2, c3, c4, c5, c6, c7, varrho = edges(theta, psi, qfun(theta, psi))
            if varrho <= 0.0:
                raise DegenerateState("total event rate is zero")

            if bi == _RNG_BLOCK:
                saved, buf, bi = gen.bit_generator.state, gen.random(_RNG_BLOCK).tolist(), 0
            x = buf[bi] * varrho
            bi += 1

            # at S = 0 a rounded phi > 0 leaves the infection and vaccination bins
            # a width of about 1e-17: a draw there changes nothing
            if x < c1:
                if S > 0:
                    S -= 1
                    I += 1
            elif x < c2:
                I -= 1
                S += 1
            elif x < c3:
                I -= 1
                N -= 1
            elif x < c4:
                if S > 0:
                    S -= 1
                    V += 1
            elif x < c5:
                pass
            elif x < c6:
                S += 1
                N += 1
            elif x < c7:
                V -= 1
                N -= 1
            elif S > 0:  # guard against a 1-ulp overshoot at the last boundary
                S -= 1
                N -= 1
            if N == 0:
                raise DegenerateState("the population died out")

            k += 1
            eta = N / k
            new_inv = 1.0 / eta
            jump = abs(new_inv - inv_eta) * k  # eps_{k-1} = 1/k after the increment
            if jump > max_jump:
                max_jump = jump
            inv_eta = new_inv
            if eta < min_eta:
                min_eta = eta

            if k % stride == 0:
                ks.append(k)
                ths.append(I / N)
                pss.append(V / N)
                ets.append(eta)
    finally:  # leave the generator right after the last uniform used
        gen.bit_generator.state = saved
        gen.random(bi)

    return (N, S, I, V, k), eta, freeze_epoch, min_eta, max_jump, (ks, ths, pss, ets)


def _native_loop(lib, initial, params, policy, max_steps, delta, stride, gens):
    """:func:`_python_loop` on each of ``gens`` (plain PCG64 generators) in the C kernel.

    Each generator lends the kernel its state under its lock, and is left
    right after the last uniform its run used, as the Python loop leaves it.
    The records hold the whole run, up to ``_MAX_RECORDS`` rows per chain; a
    chain that fills them goes on in the next call.  Returns each run as the
    Python loop does, or the DegenerateState it raises.
    """
    N, k = initial.n_total, initial.step
    I, V = initial.n_inf, initial.n_vacc
    eta = N / k if k >= 1 else float(N)
    law = _native.make_law(params, policy)
    chains = (_native.ChainState * len(gens))()
    shape = (len(gens), min(max(max_steps - k, 0) // stride + 1, _MAX_RECORDS))
    first = (np.array([k]), np.array([I / N]), np.array([V / N]), np.array([eta]))
    chunks = [[first] for _ in gens]
    with contextlib.ExitStack() as locks:
        for gen in gens:
            locks.enter_context(gen.bit_generator.lock)
        states = [gen.bit_generator.state for gen in gens]
        for c, rng in zip(chains, states):
            c.n, c.s, c.i, c.v, c.k = N, initial.n_susc, I, V, k
            c.eta, c.inv_eta, c.min_eta = eta, 1.0 / eta, eta
            c.state_hi, c.state_lo = divmod(rng["state"]["state"], _UINT64)
            c.inc_hi, c.inc_lo = divmod(rng["state"]["inc"], _UINT64)
        todo = range(len(gens))
        while todo:
            rec = (np.empty(shape, np.int64), *(np.empty(shape) for _ in range(3)))
            lib.vaxgame_chain(
                chains, len(gens), ctypes.byref(law), max_steps, delta, stride, shape[1],
                *(a.ctypes.data for a in rec),
            )
            for j in todo:
                chunks[j].append(tuple(a[j, : chains[j].n_rec] for a in rec))
            todo = [j for j in todo if chains[j].code == _native.CHAIN_RECORDS_FULL]
        for gen, c, rng in zip(gens, chains, states):
            rng["state"]["state"] = c.state_hi * _UINT64 + c.state_lo
            gen.bit_generator.state = rng
    return [
        DegenerateState(_KERNEL_ERRORS[c.code]) if c.code in _KERNEL_ERRORS else (
            (c.n, c.s, c.i, c.v, c.k), c.eta, c.k if c.code == _native.CHAIN_FROZEN else None,
            c.min_eta, c.max_jump, tuple(np.concatenate(column) for column in zip(*chunk)),
        )
        for c, chunk in zip(chains, chunks)
    ]


#: the chain kernel's stops at which :func:`_python_loop` raises DegenerateState
_KERNEL_ERRORS = {_native.CHAIN_DEGENERATE: "total event rate is zero",
                  _native.CHAIN_EXTINCT: "the population died out"}


@dataclass(frozen=True)
class LimitEstimate:
    """Tail-averaged limit fractions with their tail standard deviations."""

    theta: float
    psi: float
    eta: float
    theta_sd: float
    psi_sd: float
    eta_sd: float
    n_samples: int


def estimate_limit(traj: Trajectory, tail_fraction: float = 0.2) -> LimitEstimate:
    """Component-wise mean over the final tail_fraction of recorded samples."""
    if not 0.0 < tail_fraction < 1.0:
        raise InvalidParams("tail_fraction must lie in (0, 1)")
    if len(traj) == 0:
        raise InvalidParams("trajectory is empty")
    if traj.frozen:
        raise FrozenTrajectory(
            f"trajectory froze at epoch {traj.freeze_epoch}; no stationary tail"
        )
    start = int(math.floor(len(traj) * (1.0 - tail_fraction)))
    start = min(start, len(traj) - 1)
    th = traj.theta[start:]
    ps = traj.psi[start:]
    et = traj.eta[start:]
    return LimitEstimate(
        theta=float(th.mean()),
        psi=float(ps.mean()),
        eta=float(et.mean()),
        theta_sd=float(th.std()),
        psi_sd=float(ps.std()),
        eta_sd=float(et.std()),
        n_samples=len(th),
    )


def one_step_drift(
    state: FractionState, k: int, params: ModelParams, policy: Policy
) -> np.ndarray:
    """Exact conditional one-step drift E_k[L_{k+1}] of (theta, psi, eta).

    Valid for epochs k >= 1, where eta follows the recursion
    eta_{k+1} = eta_k + eps_k * (G_N - eta_k) with eps_k = 1/(k+1).
    The theta/psi components weight each event's increment by the
    event-dependent 1/eta_{k+1}; the eta component reduces to
    (b - d - d_e*theta)/varrho - eta exactly.
    """
    if k < 1:
        raise InvalidParams("drift recursion requires k >= 1")
    dist = event_distribution(state, params, policy)
    eps_k = 1.0 / (k + 1)
    drift = np.zeros(3)
    for event in Event:
        p = dist.probs[event]
        if p == 0.0:
            continue
        dS, dI, dV, dN = EVENT_EFFECTS[event]
        eta_next = state.eta + eps_k * (dN - state.eta)
        drift[0] += p * (dI - dN * state.theta) / eta_next
        drift[1] += p * (dV - dN * state.psi) / eta_next
        drift[2] += p * (dN - state.eta)
    return drift


def count_crossings(values: Sequence[float], level: float) -> int:
    """Number of strict sign changes of (value - level) along the sequence."""
    signs = [1 if v > level else -1 for v in values if v != level]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export with header k,theta,psi,eta at 17 significant digits.

    The rows are formatted in C where the kernels load and by Python
    otherwise (:func:`vaxgame._native.write_rows`); the bytes are the same.
    """
    _native.write_rows(
        path, "k,theta,psi,eta\n", (traj.theta, traj.psi, traj.eta), keys=traj.epochs
    )
