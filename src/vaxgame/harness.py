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
byte-identical summary files regardless of scheduling.  Floats are printed
with 17 significant digits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, chain, ode
from .attractor import (
    Attractor,
    AttractorKind,
    StabilityCertificate,
    Vfc2Prediction,
    certify_stability,
    closed_form,
    vfc2_limit_set,
)
from .errors import VaxGameError
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
    delta: Optional[float] = None

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
    tail_fraction: float = 0.5

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
    if variable == "beta":
        return params, dataclasses.replace(policy, beta=value)
    if variable == "gamma":
        return params, dataclasses.replace(policy, gamma=value)
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
    def theta_mean(self) -> float:
        live = [r.theta for r in self.reps if not r.frozen]
        return float(np.mean(live)) if live else math.nan

    @property
    def psi_mean(self) -> float:
        live = [r.psi for r in self.reps if not r.frozen]
        return float(np.mean(live)) if live else math.nan

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


def _run_closed_form(params: ModelParams, policy: Policy) -> ClosedFormResult:
    try:
        if policy.family is Family.VFC2:
            return ClosedFormResult(limit_set=vfc2_limit_set(params, policy.gamma))
        return ClosedFormResult(attractor=closed_form(params, policy))
    except VaxGameError as exc:
        return ClosedFormResult(error=f"{type(exc).__name__}: {exc}")


def _run_ode(
    params: ModelParams, policy: Policy, exp: Experiment, out_path: Optional[Path]
) -> OdeResult:
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
        if out_path is not None:
            ode.write_path_csv(path, out_path)
        t = path.t
        window = t >= t[-1] - exp.ode.tail_fraction * (t[-1] - t[0])
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
        return OdeResult(error=f"{type(exc).__name__}: {exc}")


def _run_mc(
    params: ModelParams,
    policy: Policy,
    exp: Experiment,
    master_seed: int,
    point_index: int,
    out_dir: Optional[Path],
) -> McResult:
    reps = []
    try:
        for rep in range(exp.mc.replications):
            seq = np.random.SeedSequence(
                entropy=master_seed, spawn_key=(point_index, rep)
            )
            rng = np.random.Generator(np.random.PCG64(seq))
            initial = chain.make_initial(exp.mc.n0, exp.theta0, exp.psi0)
            traj = chain.simulate(
                initial,
                params,
                policy,
                max_steps=exp.mc.resolved_max_steps,
                delta=exp.mc.delta,
                stride=exp.mc.stride,
                rng=rng,
            )
            if out_dir is not None:
                name = f"traj_{exp.id}_s{master_seed}_p{point_index}_r{rep}.csv"
                chain.write_trajectory_csv(traj, out_dir / name)
            crossings = None
            if traj.frozen:
                reps.append(
                    McRep(math.nan, math.nan, math.nan, math.nan, None, True)
                )
                continue
            est = chain.estimate_limit(traj, exp.mc.tail_fraction)
            if policy.family is Family.VFC2:
                n_tail = max(1, int(len(traj) * exp.mc.tail_fraction))
                crossings = chain.count_crossings(
                    traj.theta[-n_tail:], policy.gamma
                )
            reps.append(
                McRep(
                    theta=est.theta,
                    psi=est.psi,
                    theta_sd=est.theta_sd,
                    psi_sd=est.psi_sd,
                    crossings=crossings,
                    frozen=False,
                )
            )
        return McResult(reps=tuple(reps))
    except VaxGameError as exc:
        return McResult(reps=tuple(reps), error=f"{type(exc).__name__}: {exc}")


def _run_ess(params: ModelParams, policy: Policy, costs: CostParams) -> EssResult:
    try:
        base_family = (
            policy.mutant_base.family
            if policy.family is Family.MUTANT and policy.mutant_base is not None
            else policy.family
        )
        return EssResult(verdict=classify_ess(base_family, params, costs))
    except (VaxGameError, ValueError) as exc:
        return EssResult(error=f"{type(exc).__name__}: {exc}")


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
        return StabilityResult(error=f"{type(exc).__name__}: {exc}")


def cross_validate(
    record: RunRecord,
    tol_ode: float = 1e-4,
    tol_mc: float = 0.02,
    limit_band: float = 0.05,
    min_crossings: int = 10,
) -> dict:
    """Pairwise agreement verdicts between the enabled layers."""
    verdicts: dict[str, str] = {}
    cf = record.cf
    is_limit = cf.limit_set is not None

    if cf.point is None or record.ode_res.error is not None or math.isnan(
        record.ode_res.theta
    ):
        verdicts["ode_vs_closed_form"] = "not-comparable"
    elif is_limit:
        ok = (
            abs(record.ode_res.tail_theta - cf.limit_set.center_theta) <= limit_band
            and (record.ode_res.crossings or 0) >= min_crossings
        )
        verdicts["ode_vs_closed_form"] = "agree" if ok else "disagree"
    else:
        d_theta = abs(record.ode_res.theta - cf.attractor.theta_hat)
        d_psi = abs(record.ode_res.psi - cf.attractor.psi_hat)
        verdicts["ode_vs_closed_form"] = (
            "agree" if max(d_theta, d_psi) <= tol_ode else "disagree"
        )

    live = [r for r in record.mc_res.reps if not r.frozen]
    if cf.point is None or record.mc_res.error is not None or not record.mc_res.reps:
        verdicts["mc_vs_closed_form"] = "not-comparable"
    elif not live:
        verdicts["mc_vs_closed_form"] = "not-comparable"
    elif is_limit:
        ok = all(
            abs(r.theta - cf.limit_set.center_theta) <= limit_band
            and (r.crossings or 0) >= min_crossings
            for r in live
        )
        verdicts["mc_vs_closed_form"] = "agree" if ok else "disagree"
    else:
        ok = all(
            abs(r.theta - cf.attractor.theta_hat) <= tol_mc
            and abs(r.psi - cf.attractor.psi_hat) <= tol_mc
            for r in live
        )
        verdicts["mc_vs_closed_form"] = "agree" if ok else "disagree"
    return verdicts


# --------------------------------------------------------------------------
# experiment driver
# --------------------------------------------------------------------------


def run_point(
    exp: Experiment,
    value: Optional[float],
    point_index: int,
    master_seed: int,
    write_files: bool = True,
) -> RunRecord:
    t0 = time.perf_counter()
    params, policy = exp.params, exp.policy
    if exp.sweep is not None and value is not None:
        params, policy = apply_sweep(params, policy, exp.sweep.variable, value)

    out_dir = exp.output_dir if write_files else None
    record = RunRecord(
        sweep_variable=exp.sweep.variable if exp.sweep else None, sweep_value=value
    )

    if Layer.CLOSED_FORM in exp.layers or Layer.STABILITY in exp.layers:
        record.cf = _run_closed_form(params, policy)
    if Layer.ODE in exp.layers:
        ode_path = (
            out_dir / f"ode_{exp.id}_p{point_index}.csv" if out_dir is not None else None
        )
        record.ode_res = _run_ode(params, policy, exp, ode_path)
    if Layer.MONTE_CARLO in exp.layers:
        record.mc_res = _run_mc(params, policy, exp, master_seed, point_index, out_dir)
    if Layer.ESS in exp.layers and exp.costs is not None:
        record.ess_res = _run_ess(params, policy, exp.costs)
    if Layer.STABILITY in exp.layers:
        record.stab_res = _run_stability(params, policy, record.cf)

    record.cross = cross_validate(record)
    record.wall_time = time.perf_counter() - t0
    return record


def _point_worker(args) -> RunRecord:
    exp, value, index, master_seed, write_files = args
    return run_point(exp, value, index, master_seed, write_files)


def run(
    exp: Experiment,
    threads: int = 1,
    master_seed: Optional[int] = None,
    write_files: bool = True,
) -> list[RunRecord]:
    """Execute every enabled layer at every sweep point; write CSV outputs."""
    seed = master_seed if master_seed is not None else exp.mc.seed
    values: list[Optional[float]] = (
        list(exp.sweep.values) if exp.sweep is not None else [None]
    )
    if write_files:
        exp.output_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(exp, v, i, seed, write_files) for i, v in enumerate(values)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_point_worker, jobs))
    else:
        records = [_point_worker(job) for job in jobs]

    order = np.argsort([r.sweep_value if r.sweep_value is not None else 0.0 for r in records])
    records = [records[i] for i in order]

    if write_files:
        write_summary_csv(records, exp.output_dir / f"summary_{exp.id}.csv")
    return records


# --------------------------------------------------------------------------
# CSV output
# --------------------------------------------------------------------------

SUMMARY_COLUMNS = [
    "sweep_var",
    "sweep_value",
    "cf_row",
    "cf_kind",
    "cf_theta",
    "cf_psi",
    "cf_eta",
    "cf_clamp_active",
    "cf_conjectured",
    "cf_error",
    "ode_theta",
    "ode_psi",
    "ode_eta",
    "ode_settled",
    "ode_tail_theta",
    "ode_tail_psi",
    "ode_crossings",
    "ode_error",
    "mc_theta_mean",
    "mc_psi_mean",
    "mc_theta_sd",
    "mc_psi_sd",
    "mc_crossings_min",
    "mc_frozen_any",
    "mc_reps",
    "mc_error",
    "ess_verdict",
    "ess_theta",
    "ess_psi",
    "ess_h",
    "ess_h_m",
    "ess_beta_star",
    "ess_conjectured",
    "ess_error",
    "stab_eig_max_real",
    "stab_lyap_fraction",
    "stab_pass",
    "stab_marginal",
    "stab_error",
    "ode_vs_closed_form",
    "mc_vs_closed_form",
]


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


def _record_row(record: RunRecord) -> list[str]:
    cf, od, mc, es, st = (
        record.cf,
        record.ode_res,
        record.mc_res,
        record.ess_res,
        record.stab_res,
    )
    attractor = cf.attractor
    limit = cf.limit_set
    if attractor is not None:
        cf_row, cf_kind = attractor.table_row, attractor.kind.value
        cf_theta, cf_psi, cf_eta = (
            attractor.theta_hat,
            attractor.psi_hat,
            attractor.eta_hat,
        )
        cf_clamp, cf_conj = attractor.clamp_active, attractor.conjectured
    elif limit is not None:
        cf_row, cf_kind = "vfc2/limit-set", AttractorKind.LIMIT_SET.value
        cf_theta, cf_psi, cf_eta = limit.center_theta, limit.center_psi, math.nan
        cf_clamp, cf_conj = None, None
    else:
        cf_row = cf_kind = None
        cf_theta = cf_psi = cf_eta = math.nan
        cf_clamp = cf_conj = None

    live = [r for r in mc.reps if not r.frozen]
    mc_crossings = [r.crossings for r in live if r.crossings is not None]
    verdict = es.verdict
    cert = st.certificate

    values = [
        record.sweep_variable,
        record.sweep_value,
        cf_row,
        cf_kind,
        cf_theta,
        cf_psi,
        cf_eta,
        cf_clamp,
        cf_conj,
        cf.error,
        od.theta,
        od.psi,
        od.eta,
        od.settled if od.error is None else None,
        od.tail_theta,
        od.tail_psi,
        od.crossings,
        od.error,
        mc.theta_mean,
        mc.psi_mean,
        float(np.mean([r.theta_sd for r in live])) if live else math.nan,
        float(np.mean([r.psi_sd for r in live])) if live else math.nan,
        min(mc_crossings) if mc_crossings else None,
        mc.any_frozen if mc.reps else None,
        len(mc.reps) if mc.reps else None,
        mc.error,
        verdict.kind.value if verdict else None,
        verdict.equilibrium[0] if verdict else math.nan,
        verdict.equilibrium[1] if verdict else math.nan,
        verdict.h_value if verdict else math.nan,
        verdict.h_m if verdict else None,
        verdict.beta_star_threshold if verdict else None,
        verdict.conjectured if verdict else None,
        es.error,
        cert.eigen_max_real if cert else math.nan,
        cert.lyapunov_pass_fraction if cert else math.nan,
        cert.passed if cert else None,
        cert.marginal if cert else None,
        st.error,
        record.cross.get("ode_vs_closed_form"),
        record.cross.get("mc_vs_closed_form"),
    ]
    return [_fmt(v) for v in values]


def write_summary_csv(records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for record in records:
            fh.write(",".join(_record_row(record)) + "\n")


def write_manifest(exp: Experiment, config_path, master_seed: int, threads: int, path) -> None:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    with open(path, "w") as fh:
        fh.write(f"experiment_id: {exp.id}\n")
        fh.write(f"config_sha256: {digest}\n")
        fh.write(f"master_seed: {master_seed}\n")
        fh.write(f"threads: {threads}\n")
        fh.write(f"package_version: {__version__}\n")
        fh.write(f"summary_columns: {','.join(SUMMARY_COLUMNS)}\n")


ATLAS_COLUMNS = [
    "family",
    "lambda",
    "r",
    "nu",
    "b",
    "d",
    "d_e",
    "beta",
    "regime_row",
    "theta_hat",
    "psi_hat",
    "kind",
    "conjectured",
    "eigen_max_real",
]


def write_atlas_csv(exp: Experiment, records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(ATLAS_COLUMNS) + "\n")
        for record in records:
            params, policy = exp.params, exp.policy
            if exp.sweep is not None and record.sweep_value is not None:
                params, policy = apply_sweep(
                    params, policy, exp.sweep.variable, record.sweep_value
                )
            attractor = record.cf.attractor
            cert = record.stab_res.certificate
            row = [
                policy.family.value,
                params.lam,
                params.r,
                params.nu,
                params.b,
                params.d,
                params.d_e,
                policy.beta,
                attractor.table_row if attractor else record.cf.error,
                attractor.theta_hat if attractor else math.nan,
                attractor.psi_hat if attractor else math.nan,
                attractor.kind.value if attractor else None,
                attractor.conjectured if attractor else None,
                cert.eigen_max_real if cert else math.nan,
            ]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


ESS_COLUMNS = [
    "sweep_var",
    "value",
    "verdict",
    "theta_star",
    "psi_star",
    "h",
    "beta_star_threshold",
]


def write_ess_csv(records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(ESS_COLUMNS) + "\n")
        for record in records:
            verdict = record.ess_res.verdict
            row = [
                record.sweep_variable,
                record.sweep_value,
                verdict.kind.value if verdict else record.ess_res.error,
                verdict.equilibrium[0] if verdict else math.nan,
                verdict.equilibrium[1] if verdict else math.nan,
                verdict.h_value if verdict else math.nan,
                verdict.beta_star_threshold if verdict else None,
            ]
            fh.write(",".join(_fmt(v) for v in row) + "\n")
