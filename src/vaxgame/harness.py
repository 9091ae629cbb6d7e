"""Experiment orchestration: sweeps, layers, cross-validation, CSV output.

An :class:`Experiment` names a parameter set, a policy, optional costs, an
optional sweep over one variable, and the set of layers to execute per
sweep point:

  closed_form   equilibrium catalogue (or the limit-set prediction for the
                threshold-vigilant family)
  ode           mean-field integration from the configured start
  monte_carlo   replicated jump-chain runs with tail-averaged estimates
  ess           evolutionary-stability verdict (requires costs)
  stability     numeric certificate at the closed-form point

Sweep points run independently (optionally in parallel processes); each
Monte-Carlo replication draws its generator from the master seed and its
(point, replication) index, so reruns with the same config and seed produce
byte-identical summary files regardless of scheduling.  Rows keep the
sweep's point order, the order in which the per-point trajectory and ODE
files are numbered.  Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, _native, chain, ode
from .attractor import (
    Attractor,
    AttractorKind,
    StabilityCertificate,
    Vfc2Prediction,
    certify_stability,
    closed_form,
    vfc2_limit_set,
)
from .errors import ConfigError, InvalidParams, VaxGameError
from .ess import CostParams, EssVerdict, classify_ess
from .params import ModelParams
from .policy import Family, Policy


class Layer(Enum):
    CLOSED_FORM = "closed_form"
    ODE = "ode"
    MONTE_CARLO = "monte_carlo"
    ESS = "ess"
    STABILITY = "stability"


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class McSettings:
    n0: int = 40000
    max_steps: Optional[int] = None  # default 50 * n0
    replications: int = 3
    seed: int = 20260809
    stride: int = 1000
    tail_fraction: float = 0.2

    @property
    def resolved_max_steps(self) -> int:
        return self.max_steps if self.max_steps is not None else 50 * self.n0


@dataclass(frozen=True)
class OdeSettings:
    horizon: Optional[float] = None  # default 1e4; 50 for the oscillating family
    # tight tolerances let the equilibrium early-stop reach its residual gate
    rtol: float = 1e-12
    atol: float = 1e-14
    eta0: float = 1.0

    def resolved_horizon(self, policy: Policy) -> float:
        if self.horizon is not None:
            return self.horizon
        return 50.0 if policy.family is Family.VFC2 else 1e4


@dataclass(frozen=True)
class Experiment:
    id: str
    params: ModelParams
    policy: Policy
    costs: Optional[CostParams] = None
    sweep: Optional[SweepSpec] = None
    layers: frozenset = frozenset({Layer.CLOSED_FORM})
    mc: McSettings = McSettings()
    ode: OdeSettings = OdeSettings()
    theta0: float = 0.1
    psi0: float = 0.01
    output_dir: Path = Path("out")


def apply_sweep(
    params: ModelParams, policy: Policy, variable: str, value: float
) -> tuple[ModelParams, Policy]:
    if variable in ("beta", "gamma"):
        # a mutant's response reads its base's beta and gamma, never its own
        if policy.family is Family.MUTANT:
            base = dataclasses.replace(policy.mutant_base, **{variable: value})
            return params, dataclasses.replace(policy, mutant_base=base)
        return params, dataclasses.replace(policy, **{variable: value})
    attr = {"lambda": "lam"}.get(variable, variable)
    return dataclasses.replace(params, **{attr: value}), policy


# --------------------------------------------------------------------------
# per-layer results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormResult:
    attractor: Optional[Attractor] = None
    limit_set: Optional[Vfc2Prediction] = None
    error: Optional[str] = None

    @property
    def point(self) -> Optional[tuple[float, float]]:
        if self.attractor is not None:
            return self.attractor.point()
        if self.limit_set is not None:
            return (self.limit_set.center_theta, self.limit_set.center_psi)
        return None


@dataclass(frozen=True)
class OdeResult:
    theta: float = math.nan
    psi: float = math.nan
    eta: float = math.nan
    settled: bool = False
    tail_theta: float = math.nan
    tail_psi: float = math.nan
    crossings: Optional[int] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class McRep:
    theta: float
    psi: float
    theta_sd: float
    psi_sd: float
    crossings: Optional[int]
    frozen: bool


@dataclass(frozen=True)
class McResult:
    reps: tuple[McRep, ...] = ()
    error: Optional[str] = None

    @property
    def live(self) -> tuple[McRep, ...]:
        """The replications that did not freeze."""
        return tuple(r for r in self.reps if not r.frozen)

    def mean(self, field: str) -> float:
        """Mean of one McRep field over the live replications; NaN if none."""
        values = [getattr(r, field) for r in self.live]
        return float(np.mean(values)) if values else math.nan

    @property
    def any_frozen(self) -> bool:
        return any(r.frozen for r in self.reps)


@dataclass(frozen=True)
class EssResult:
    verdict: Optional[EssVerdict] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class StabilityResult:
    certificate: Optional[StabilityCertificate] = None
    error: Optional[str] = None


@dataclass
class RunRecord:
    sweep_variable: Optional[str]
    sweep_value: Optional[float]
    params: Optional[ModelParams] = None  # after the sweep value is applied
    policy: Optional[Policy] = None
    cf: ClosedFormResult = ClosedFormResult()
    ode_res: OdeResult = OdeResult()
    mc_res: McResult = McResult()
    ess_res: EssResult = EssResult()
    stab_res: StabilityResult = StabilityResult()
    cross: dict = field(default_factory=dict)
    wall_time: float = 0.0


# --------------------------------------------------------------------------
# layer execution
# --------------------------------------------------------------------------


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_closed_form(params: ModelParams, policy: Policy) -> ClosedFormResult:
    try:
        if policy.family is Family.VFC2:
            return ClosedFormResult(limit_set=vfc2_limit_set(params, policy.gamma))
        return ClosedFormResult(attractor=closed_form(params, policy))
    except VaxGameError as exc:
        return ClosedFormResult(error=_describe(exc))


def _run_ode(params: ModelParams, policy: Policy, exp: Experiment, point_index: int) -> OdeResult:
    try:
        start = ode.OdeState(exp.theta0, exp.psi0, exp.ode.eta0, 0.0)
        path = ode.integrate(
            start,
            params,
            policy,
            horizon=exp.ode.resolved_horizon(policy),
            rtol=exp.ode.rtol,
            atol=exp.ode.atol,
            stop_at_equilibrium=policy.family is not Family.VFC2,
        )
        ode.write_path_csv(path, exp.output_dir / f"ode_{exp.id}_p{point_index}.csv")
        t = path.t
        window = t >= t[-1] - 0.5 * (t[-1] - t[0])  # the last half of the run
        tw = t[window]
        thw = path.states[window, 0]
        psw = path.states[window, 1]
        if len(tw) > 1 and tw[-1] > tw[0]:
            tail_theta = float(np.trapezoid(thw, tw) / (tw[-1] - tw[0]))
            tail_psi = float(np.trapezoid(psw, tw) / (tw[-1] - tw[0]))
        else:
            tail_theta, tail_psi = float(thw[-1]), float(psw[-1])
        crossings = None
        if policy.family is Family.VFC2:
            crossings = chain.count_crossings(thw, policy.gamma)
        return OdeResult(
            theta=path.endpoint.theta,
            psi=path.endpoint.psi,
            eta=path.endpoint.eta,
            settled=path.settled,
            tail_theta=tail_theta,
            tail_psi=tail_psi,
            crossings=crossings,
        )
    except VaxGameError as exc:
        return OdeResult(error=_describe(exc))


def _run_mc(
    params: ModelParams,
    policy: Policy,
    exp: Experiment,
    master_seed: int,
    point_index: int,
) -> McResult:
    reps = []
    try:
        if exp.mc.replications < 1:
            raise InvalidParams(f"replications must be at least 1, got {exp.mc.replications}")
        initial = chain.make_initial(exp.mc.n0, exp.theta0, exp.psi0)
        # the kernel's width at a time: the records and trajectories of at
        # most that many runs are held at once, and none runs after the first
        # that failed
        for first in range(0, exp.mc.replications, _native.LOCKSTEP):
            group = range(first, min(first + _native.LOCKSTEP, exp.mc.replications))
            rngs = [  # default_rng(SeedSequence) is Generator(PCG64(SeedSequence))
                np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(point_index, rep)))
                for rep in group
            ]
            runs = chain.simulate_replications(
                initial, params, policy, exp.mc.resolved_max_steps, None, exp.mc.stride, rngs
            )
            for rep, traj in zip(group, runs):
                if isinstance(traj, VaxGameError):
                    raise traj
                name = f"traj_{exp.id}_s{master_seed}_p{point_index}_r{rep}.csv"
                chain.write_trajectory_csv(traj, exp.output_dir / name)
                if traj.frozen:
                    reps.append(McRep(math.nan, math.nan, math.nan, math.nan, None, True))
                    continue
                est = chain.estimate_limit(traj, exp.mc.tail_fraction)
                crossings = None
                if policy.family is Family.VFC2:
                    n_tail = max(1, int(len(traj) * exp.mc.tail_fraction))
                    crossings = chain.count_crossings(traj.theta[-n_tail:], policy.gamma)
                reps.append(McRep(est.theta, est.psi, est.theta_sd, est.psi_sd, crossings, False))
            del runs, traj  # before the next group runs
        return McResult(reps=tuple(reps))
    except VaxGameError as exc:
        return McResult(reps=tuple(reps), error=_describe(exc))


def _run_ess(params: ModelParams, policy: Policy, costs: CostParams) -> EssResult:
    try:
        base_family = (
            policy.mutant_base.family
            if policy.family is Family.MUTANT and policy.mutant_base is not None
            else policy.family
        )
        return EssResult(verdict=classify_ess(base_family, params, costs))
    except VaxGameError as exc:
        return EssResult(error=_describe(exc))


def _run_stability(
    params: ModelParams, policy: Policy, cf: ClosedFormResult
) -> StabilityResult:
    if cf.attractor is None:
        return StabilityResult(error="no closed-form point to certify")
    try:
        return StabilityResult(
            certificate=certify_stability(cf.attractor, params, policy)
        )
    except VaxGameError as exc:
        return StabilityResult(error=_describe(exc))


#: Agreement gates of :func:`cross_validate`: the largest |theta|, |psi| gap
#: from a closed-form point (ODE, each Monte-Carlo replication), and for a
#: limit set the band around its centre and the fewest threshold crossings.
_TOL_ODE = 1e-4
_TOL_MC = 0.02
_LIMIT_BAND = 0.05
_MIN_CROSSINGS = 10


def _agrees(
    cf: ClosedFormResult,
    point: tuple[float, float],
    tail_theta: float,
    crossings: Optional[int],
    tol: float,
) -> bool:
    """One layer's result against the closed form.

    A limit set needs ``tail_theta`` within its band and enough threshold
    crossings; a point needs theta and psi of ``point`` both within ``tol``.
    """
    if cf.limit_set is not None:
        return (
            abs(tail_theta - cf.limit_set.center_theta) <= _LIMIT_BAND
            and (crossings or 0) >= _MIN_CROSSINGS
        )
    theta_hat, psi_hat = cf.attractor.point()
    return abs(point[0] - theta_hat) <= tol and abs(point[1] - psi_hat) <= tol


def cross_validate(record: RunRecord) -> dict:
    """Pairwise agreement verdicts between the enabled layers."""
    cf, ode_res, live = record.cf, record.ode_res, record.mc_res.live
    ode_ok = mc_ok = None  # None: not comparable
    if cf.point is not None and not math.isnan(ode_res.theta):  # NaN also on an ODE error
        ode_ok = _agrees(
            cf, (ode_res.theta, ode_res.psi), ode_res.tail_theta, ode_res.crossings, _TOL_ODE
        )
    if cf.point is not None and record.mc_res.error is None and live:
        mc_ok = all(_agrees(cf, (r.theta, r.psi), r.theta, r.crossings, _TOL_MC) for r in live)
    return {
        name: "not-comparable" if ok is None else "agree" if ok else "disagree"
        for name, ok in (("ode_vs_closed_form", ode_ok), ("mc_vs_closed_form", mc_ok))
    }


# --------------------------------------------------------------------------
# experiment driver
# --------------------------------------------------------------------------


def run_point(
    exp: Experiment,
    value: Optional[float],
    point_index: int,
    master_seed: int,
) -> RunRecord:
    t0 = time.perf_counter()
    params, policy = exp.params, exp.policy
    if exp.sweep is not None and value is not None:
        params, policy = apply_sweep(params, policy, exp.sweep.variable, value)

    record = RunRecord(
        sweep_variable=exp.sweep.variable if exp.sweep else None,
        sweep_value=value,
        params=params,
        policy=policy,
    )

    if Layer.CLOSED_FORM in exp.layers or Layer.STABILITY in exp.layers:
        record.cf = _run_closed_form(params, policy)
    if Layer.ODE in exp.layers:
        record.ode_res = _run_ode(params, policy, exp, point_index)
    if Layer.MONTE_CARLO in exp.layers:
        record.mc_res = _run_mc(params, policy, exp, master_seed, point_index)
    if Layer.ESS in exp.layers and exp.costs is not None:
        record.ess_res = _run_ess(params, policy, exp.costs)
    if Layer.STABILITY in exp.layers:
        record.stab_res = _run_stability(params, policy, record.cf)

    record.cross = cross_validate(record)
    record.wall_time = time.perf_counter() - t0
    return record


def run(
    exp: Experiment,
    threads: int = 1,
    master_seed: Optional[int] = None,
) -> list[RunRecord]:
    """Execute every enabled layer at every sweep point; write CSV outputs.

    Points run in a process pool of min(threads, points, CPUs) workers when
    that is more than one.  Raises ConfigError for ``threads`` below 1,
    for a negative master seed (the config's or the override) and for an
    output directory that cannot be made (a file on its path, say).
    """
    seed = master_seed if master_seed is not None else exp.mc.seed
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if seed < 0:
        raise ConfigError(f"master seed must be non-negative, got {seed}")
    values = list(exp.sweep.values) if exp.sweep is not None else [None]
    try:
        exp.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        message = f"cannot make output directory {exp.output_dir}: {exc.strerror}"
        raise ConfigError(message) from exc

    point = partial(run_point, exp, master_seed=seed)
    indices = range(len(values))
    workers = min(threads, len(values), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(point, values, indices))
    else:
        records = list(map(point, values, indices))

    write_summary_csv(records, exp.output_dir / f"summary_{exp.id}.csv")
    return records


# --------------------------------------------------------------------------
# CSV output: each file is one table of (column, getter) pairs
# --------------------------------------------------------------------------


def _path(dotted: str):
    """Getter for ``record.<dotted>``; None as soon as a link on the way is None."""
    names = dotted.split(".")

    def get(record):
        value = record
        for name in names:
            value = getattr(value, name)
            if value is None:
                return None
        return value

    return get


def _coordinate(dotted: str, i: int):
    """Coordinate ``i`` of the (theta, psi) pair at ``record.<dotted>``, if any."""
    get = _path(dotted)
    return lambda r: None if get(r) is None else get(r)[i]


def _cf_label(attr: str, limit_set_label: str):
    """An Attractor label, or ``limit_set_label`` for the VFC2 limit set."""
    get = _path(f"cf.attractor.{attr}")
    return lambda r: limit_set_label if r.cf.limit_set is not None else get(r)


def _mc_crossings_min(record):
    crossings = [r.crossings for r in record.mc_res.live if r.crossings is not None]
    return min(crossings, default=None)


_SUMMARY_FIELDS = (
    ("sweep_var", _path("sweep_variable")),
    ("sweep_value", _path("sweep_value")),
    ("cf_row", _cf_label("table_row", "vfc2/limit-set")),
    ("cf_kind", _cf_label("kind.value", AttractorKind.LIMIT_SET.value)),
    ("cf_theta", _coordinate("cf.point", 0)),
    ("cf_psi", _coordinate("cf.point", 1)),
    ("cf_eta", _path("cf.attractor.eta_hat")),
    ("cf_clamp_active", _path("cf.attractor.clamp_active")),
    ("cf_conjectured", _path("cf.attractor.conjectured")),
    ("cf_error", _path("cf.error")),
    ("ode_theta", _path("ode_res.theta")),
    ("ode_psi", _path("ode_res.psi")),
    ("ode_eta", _path("ode_res.eta")),
    ("ode_settled", lambda r: r.ode_res.settled if r.ode_res.error is None else None),
    ("ode_tail_theta", _path("ode_res.tail_theta")),
    ("ode_tail_psi", _path("ode_res.tail_psi")),
    ("ode_crossings", _path("ode_res.crossings")),
    ("ode_error", _path("ode_res.error")),
    ("mc_theta_mean", lambda r: r.mc_res.mean("theta")),
    ("mc_psi_mean", lambda r: r.mc_res.mean("psi")),
    ("mc_theta_sd", lambda r: r.mc_res.mean("theta_sd")),
    ("mc_psi_sd", lambda r: r.mc_res.mean("psi_sd")),
    ("mc_crossings_min", _mc_crossings_min),
    ("mc_frozen_any", lambda r: r.mc_res.any_frozen if r.mc_res.reps else None),
    ("mc_reps", lambda r: len(r.mc_res.reps) or None),
    ("mc_error", _path("mc_res.error")),
    ("ess_verdict", _path("ess_res.verdict.kind.value")),
    ("ess_theta", _coordinate("ess_res.verdict.equilibrium", 0)),
    ("ess_psi", _coordinate("ess_res.verdict.equilibrium", 1)),
    ("ess_h", _path("ess_res.verdict.h_value")),
    ("ess_h_m", _path("ess_res.verdict.h_m")),
    ("ess_beta_star", _path("ess_res.verdict.beta_star_threshold")),
    ("ess_conjectured", _path("ess_res.verdict.conjectured")),
    ("ess_error", _path("ess_res.error")),
    ("stab_eig_max_real", _path("stab_res.certificate.eigen_max_real")),
    ("stab_lyap_fraction", _path("stab_res.certificate.lyapunov_pass_fraction")),
    ("stab_pass", _path("stab_res.certificate.passed")),
    ("stab_marginal", _path("stab_res.certificate.marginal")),
    ("stab_error", _path("stab_res.error")),
    ("ode_vs_closed_form", lambda r: r.cross.get("ode_vs_closed_form")),
    ("mc_vs_closed_form", lambda r: r.cross.get("mc_vs_closed_form")),
)

_ATLAS_FIELDS = (
    ("family", _path("policy.family.value")),
    ("lambda", _path("params.lam")),
    ("r", _path("params.r")),
    ("nu", _path("params.nu")),
    ("b", _path("params.b")),
    ("d", _path("params.d")),
    ("d_e", _path("params.d_e")),
    ("beta", lambda r: (r.policy.mutant_base or r.policy).beta),  # a mutant's is its base's
    ("regime_row", lambda r: r.cf.attractor.table_row if r.cf.attractor else r.cf.error),
    ("theta_hat", _path("cf.attractor.theta_hat")),
    ("psi_hat", _path("cf.attractor.psi_hat")),
    ("kind", _path("cf.attractor.kind.value")),
    ("conjectured", _path("cf.attractor.conjectured")),
    ("eigen_max_real", _path("stab_res.certificate.eigen_max_real")),
)

_ESS_FIELDS = (
    ("sweep_var", _path("sweep_variable")),
    ("value", _path("sweep_value")),
    ("verdict", lambda r: r.ess_res.verdict.kind.value if r.ess_res.verdict else r.ess_res.error),
    ("theta_star", _coordinate("ess_res.verdict.equilibrium", 0)),
    ("psi_star", _coordinate("ess_res.verdict.equilibrium", 1)),
    ("h", _path("ess_res.verdict.h_value")),
    ("beta_star_threshold", _path("ess_res.verdict.beta_star_threshold")),
)

SUMMARY_COLUMNS = [name for name, _ in _SUMMARY_FIELDS]
ATLAS_COLUMNS = [name for name, _ in _ATLAS_FIELDS]
ESS_COLUMNS = [name for name, _ in _ESS_FIELDS]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, fields, records: list[RunRecord]) -> None:
    """One row per record; a cell holding a comma (an error message) is quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(name for name, _ in fields)
        writer.writerows([_fmt(get(record)) for _, get in fields] for record in records)


def write_summary_csv(records: list[RunRecord], path) -> None:
    _write_csv(path, _SUMMARY_FIELDS, records)


def write_atlas_csv(records: list[RunRecord], path) -> None:
    _write_csv(path, _ATLAS_FIELDS, records)


def write_ess_csv(records: list[RunRecord], path) -> None:
    _write_csv(path, _ESS_FIELDS, records)


#: the layers that run a C kernel: the chain loop and the trajectory CSV
#: formatter (monte_carlo); the ODE chunk loop and the path CSV formatter
#: (ode); the certificate's Jacobian and sample pass (stability)
_KERNEL_LAYERS = frozenset({Layer.MONTE_CARLO, Layer.ODE, Layer.STABILITY})


def write_manifest(exp: Experiment, config_path, master_seed: int, threads: int, path) -> None:
    """The run's manifest; ``kernel:`` is none where no layer runs a kernel."""
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    kernel = _native.kernel_name() if exp.layers & _KERNEL_LAYERS else "none"
    with open(path, "w") as fh:
        fh.write(f"experiment_id: {exp.id}\n")
        fh.write(f"config_sha256: {digest}\n")
        fh.write(f"master_seed: {master_seed}\n")
        fh.write(f"threads: {threads}\n")
        fh.write(f"package_version: {__version__}\n")
        fh.write(f"kernel: {kernel}\n")
        fh.write(f"summary_columns: {','.join(SUMMARY_COLUMNS)}\n")
