#!/usr/bin/env python3
"""vaxgame benchmark: three workloads timed through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload atlas-certify --seed 1 --seconds 35 --trace 0

Each workload is a list of configs run through ``vaxgame.cli.main`` in this
process (``--threads 1``, ``--out`` a scratch directory, ``--seed`` the
workload seed); ``atlas-certify`` also calls ``ess.mutation_stability`` at
every saturated ESS verdict, the one part with no CLI verb.  Iterations
repeat until ``--seconds`` is spent (at least two, so every run also checks
that a rerun on the same seed writes byte-identical files).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, with spans written to ``.perfbench/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_ITERATIONS = 2

SETUP_SNIPPET = (
    "import sys\n"
    "import vaxgame\n"
    "from vaxgame.config import load_experiment\n"
    "for path in sys.argv[1:]:\n"
    "    load_experiment(path)\n"
)

# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

_MC = {
    "layers": ["closed_form", "monte_carlo"],
    "policy.family": "FC",
    "params.d_e": 0.0,
    "sweep.variable": "beta",
    "points": 2,
    "mc.n0": 20000,
    "mc.max_steps": 60000,
    "mc.replications": 16,
    "mc.stride": 500,
    "mc.tail_fraction": 0.2,
}
_ATLAS = {
    "layers": ["closed_form", "ess", "ode", "stability"],
    "sweep.variable": "beta",
    "costs.c_I1": 40.0,
}


@dataclass(frozen=True)
class Workload:
    verb: str  # vaxgame CLI command
    configs: tuple[str, ...]  # relative to the repository root
    # intended settings of each benchmark-owned config, asserted after
    # loading because [mc], [ode], [policy] and [experiment] ignore typos
    expect: Optional[tuple[dict, ...]] = None
    mutation: bool = False  # probe each saturated ESS verdict
    min_points: int = 0


WORKLOADS = {
    "validate-shipped": Workload(
        verb="validate",
        configs=("configs/validate_strong_nvdf.cfg", "configs/vfc2_oscillation.cfg"),
    ),
    "mc-ensemble": Workload(
        verb="run",
        configs=(
            "perfbench/configs/mc_ensemble_nvdf.cfg",
            "perfbench/configs/mc_ensemble_coexistence.cfg",
        ),
        expect=(_MC, _MC),
    ),
    "atlas-certify": Workload(
        verb="run",
        configs=(
            "perfbench/configs/atlas_fc.cfg",
            "perfbench/configs/atlas_fr.cfg",
            "perfbench/configs/atlas_vfc1.cfg",
            "perfbench/configs/atlas_fc_deadly.cfg",
            "perfbench/configs/atlas_fr_deadly.cfg",
        ),
        expect=(
            {**_ATLAS, "policy.family": "FC", "params.d_e": 0.0, "points": 25},
            {**_ATLAS, "policy.family": "FR", "params.d_e": 0.0, "points": 25},
            {**_ATLAS, "policy.family": "VFC1", "params.d_e": 0.0, "points": 25},
            {**_ATLAS, "policy.family": "FC", "params.d_e": 0.15, "points": 13},
            {**_ATLAS, "policy.family": "FR", "params.d_e": 0.15, "points": 13},
        ),
        mutation=True,
        min_points=100,
    ),
}

# layers the validate command forces on every point
_VALIDATE_LAYERS = ("closed_form", "ode", "monte_carlo")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a config off its intent)."""


def _config_paths(workload: Workload) -> list[Path]:
    paths = [ROOT / rel for rel in workload.configs]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise BenchError(f"configs not found: {missing}")
    return paths


def _observed(exp, key: str):
    if key == "layers":
        return sorted(layer.value for layer in exp.layers)
    if key == "points":
        return len(exp.sweep.values) if exp.sweep is not None else 1
    value = exp
    for part in key.split("."):
        value = getattr(value, part)
    return value.value if isinstance(value, Enum) else value


def _guard(workload: Workload, paths, exps) -> None:
    if workload.expect is None:
        return
    for path, exp, expect in zip(paths, exps, workload.expect):
        wrong = {
            key: (_observed(exp, key), want)
            for key, want in expect.items()
            if _observed(exp, key) != want
        }
        if wrong:
            raise BenchError(f"{path.name} does not load as intended: {wrong}")
    total = sum(_observed(exp, "points") for exp in exps)
    if total < workload.min_points:
        raise BenchError(f"{total} sweep points, fewer than {workload.min_points}")


def _setup_seconds(paths) -> list[float]:
    """Fresh-interpreter ``import vaxgame`` plus loading every config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *map(str, paths)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return times


# --------------------------------------------------------------------------
# one iteration and its correctness check
# --------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, by kind, with the first failures."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)

    def add(self, kind: str, ok: bool, what: str = "") -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind} {what}".strip())


def _check_record(record, layers, tally: Tally, where: str) -> None:
    """One operation per (point, layer)."""
    cross = record.cross
    checks = {
        "closed_form": record.cf.error is None,
        "ode": record.ode_res.error is None and cross.get("ode_vs_closed_form") == "agree",
        "monte_carlo": record.mc_res.error is None
        and cross.get("mc_vs_closed_form") == "agree",
        "ess": record.ess_res.error is None and record.ess_res.verdict is not None,
        "stability": record.stab_res.error is None
        and record.stab_res.certificate is not None
        and record.stab_res.certificate.passed,
    }
    for layer in layers:
        tally.add(layer, checks[layer], f"{where} {record.sweep_value}")


def _saturated_verdict(record):
    """ESS verdict whose equilibrium saturates the incumbent's acceptance."""
    verdict = record.ess_res.verdict
    if verdict is None or verdict.kind.value != "vaccinating-ess":
        return None
    threshold = verdict.beta_star_threshold
    if threshold is None or record.sweep_value is None or record.sweep_value < threshold:
        return None
    return verdict


def _file_digests(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


class Runner:
    def __init__(self, workload: Workload, paths, exps, seed: int, scratch: Path):
        from vaxgame import cli, ess
        from vaxgame.errors import VaxGameError

        self.cli, self.ess, self.VaxGameError = cli, ess, VaxGameError
        self.workload, self.paths, self.exps = workload, paths, exps
        self.seed, self.scratch = seed, scratch
        self.tally = Tally()
        self.reference: Optional[dict] = None
        self.count = 0
        # every run's records, for the checks; one call of overhead per config
        self.captured: list = []
        run = cli.run

        def capture(*args, **kwargs):
            records = run(*args, **kwargs)
            self.captured.append(records)
            return records

        cli.run = capture

    def iteration(self, tracer=None) -> tuple[float, list]:
        """Run every config once and check the outputs; wall time and point times."""
        out = self.scratch / f"iteration-{self.count}"
        self.count += 1
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        t0 = time.perf_counter()
        point_times = []
        for path, exp in zip(self.paths, self.exps):
            self.captured.clear()
            argv = [self.workload.verb, str(path), "--threads", "1",
                    "--out", str(out), "--seed", str(self.seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            records = self.captured[-1] if self.captured else []
            with span("bench.check"):
                self.tally.add("command", code == 0 and bool(records), f"{path.name} exit {code}")
                layers = (
                    _VALIDATE_LAYERS
                    if self.workload.verb == "validate"
                    else sorted(layer.value for layer in exp.layers)
                )
                for record in records:
                    _check_record(record, layers, self.tally, path.name)
                    point_times.append(record.wall_time)
            if self.workload.mutation:
                self._probe_mutations(exp, records, path.name, span)
        with span("bench.check"):
            digests = _file_digests(out)
            if self.reference is None:
                self.reference = digests
            else:
                self.tally.add("rerun-identity", digests == self.reference, out.name)
        wall = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        return wall, point_times

    def _probe_mutations(self, exp, records, where, span) -> None:
        for record in records:
            verdict = _saturated_verdict(record)
            if verdict is None:
                continue
            try:
                report = self.ess.mutation_stability(
                    exp.policy.family,
                    record.sweep_value,
                    exp.params,
                    exp.costs,
                    base_point=verdict.equilibrium,
                )
                ok = report.passed
            except self.VaxGameError:
                ok = False
            with span("bench.check"):
                self.tally.add("mutation", ok, f"{where} {record.sweep_value}")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def _layer_metrics(tracer, n_traced: int, overhead: float) -> dict:
    calls, total, self_time = tracer.totals()
    counts = tracer.counts

    def per_iteration(value):
        return value / n_traced

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(key, name):
        return counts[key] / calls[name] if calls[name] else 0.0

    sim_s = total["chain.simulate"]
    return {
        "chain.simulate.calls": per_iteration(calls["chain.simulate"]),
        "chain.simulate.s": per_iteration(sim_s),
        "chain.epochs": per_iteration(counts["chain.epochs"]),
        "chain.epochs_per_s": counts["chain.epochs"] / sim_s if sim_s else 0.0,
        "chain.frozen_ratio": ratio("chain.frozen", "chain.simulate"),
        "chain.estimate_limit.s": per_iteration(total["chain.estimate_limit"]),
        "chain.write_trajectory_csv.s": per_iteration(total["chain.write_trajectory_csv"]),
        "ode.integrate.calls": per_iteration(calls["ode.integrate"]),
        "ode.integrate.s": per_iteration(total["ode.integrate"]),
        "ode.integrate.segments": per_iteration(counts["ode.integrate.segments"]),
        "ode.integrate.steps": per_iteration(counts["ode.integrate.steps"]),
        "ode.integrate.settled_ratio": ratio("ode.integrate.settled", "ode.integrate"),
        "ode.integrate.zeno_ratio": ratio("ode.integrate.zeno", "ode.integrate"),
        "ode.rhs.us": tracer.rhs_us(),
        "ode.find_equilibrium.calls": per_iteration(calls["ode.find_equilibrium"]),
        "ode.find_equilibrium.ms": mean("ode.find_equilibrium", 1e3),
        "ode.find_equilibrium.converged_ratio": ratio(
            "ode.find_equilibrium.converged", "ode.find_equilibrium"
        ),
        "ode.write_path_csv.s": per_iteration(total["ode.write_path_csv"]),
        "attractor.closed_form.calls": per_iteration(calls["attractor.closed_form"]),
        "attractor.closed_form.us": mean("attractor.closed_form", 1e6),
        "attractor.closed_form.conjectured_ratio": ratio(
            "attractor.closed_form.conjectured", "attractor.closed_form"
        ),
        "attractor.vfc2_limit_set.calls": per_iteration(calls["attractor.vfc2_limit_set"]),
        "attractor.certify_stability.calls": per_iteration(
            calls["attractor.certify_stability"]
        ),
        "attractor.certify_stability.ms": mean("attractor.certify_stability", 1e3),
        "attractor.certify_stability.samples": per_iteration(
            counts["attractor.certify_stability.samples"]
        ),
        "attractor.certify_stability.radius_retries": per_iteration(
            counts["attractor.certify_stability.radius_retries"]
        ),
        "attractor.certify_stability.pass_ratio": ratio(
            "attractor.certify_stability.passed", "attractor.certify_stability"
        ),
        "ess.classify_ess.calls": per_iteration(calls["ess.classify_ess"]),
        "ess.classify_ess.us": mean("ess.classify_ess", 1e6),
        "ess.mutation_stability.calls": per_iteration(calls["ess.mutation_stability"]),
        "ess.mutation_stability.ms": mean("ess.mutation_stability", 1e3),
        "ess.mutation_stability.probes": per_iteration(
            counts["ess.mutation_stability.probes"]
        ),
        "harness.run.self_s": per_iteration(self_time["harness.run"]),
        "harness.write_summary_csv.s": per_iteration(total["harness.write_summary_csv"]),
        "config.load_experiment.ms": mean("config.load_experiment", 1e3),
        "cli.main.self_s": per_iteration(self_time["cli.main"]),
        "trace.overhead_s": overhead,
    }


def _print_span_table(tracer, n_traced: int, traced_wall: float) -> None:
    calls, total, self_time = tracer.totals()
    print(f"{'span':34s} {'calls/it':>9s} {'total s/it':>11s} {'self s/it':>10s}")
    for name in sorted(calls, key=lambda n: -self_time[n]):
        print(
            f"{name:34s} {calls[name] / n_traced:9.1f} "
            f"{total[name] / n_traced:11.6f} {self_time[name] / n_traced:10.6f}"
        )
    covered = tracer.root_seconds() / n_traced
    print(
        f"traced wall_s {traced_wall:.6f} = spans {covered:.6f} "
        f"+ untraced gaps {traced_wall - covered:.6f} (per iteration)"
    )


def _machine_context() -> str:
    import numpy
    import scipy

    return (
        f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _import_vaxgame() -> None:
    if not (SRC / "vaxgame" / "__init__.py").is_file():
        raise BenchError(f"no vaxgame sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vaxgame

    if Path(vaxgame.__file__).resolve().parent != SRC / "vaxgame":
        raise BenchError(f"imported vaxgame from {vaxgame.__file__}, not {SRC}")


def bench(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = _load_spec()
    workload = WORKLOADS[workload_name]
    _import_vaxgame()
    from vaxgame.config import load_experiment

    from spans import Tracer

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        paths = _config_paths(workload)
        exps = [load_experiment(path) for path in paths]
        _guard(workload, paths, exps)
        setup = _setup_seconds(paths)

        runner = Runner(workload, paths, exps, seed, scratch)
        tracer = Tracer()
        plain, with_trace, points = [], [], []
        start = time.perf_counter()
        while True:
            if traced and len(plain) > len(with_trace):
                tracer.iteration = len(with_trace)
                with tracer.installed():
                    wall, point_times = runner.iteration(tracer)
                with_trace.append(wall)
            else:
                wall, point_times = runner.iteration()
                plain.append(wall)
            points.extend(point_times)
            done = len(plain) + len(with_trace)
            typical = statistics.median(plain + with_trace)
            if done >= MIN_ITERATIONS and time.perf_counter() - start + typical > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {workload_name}, seed {seed}, {_machine_context()}")
    tally = runner.tally
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    for kind in sorted(tally.attempted):
        print(f"operations {kind:16s} {tally.attempted[kind]:6d} attempted {tally.failed[kind]:4d} failed")
    for example in tally.examples:
        print(f"FAILED {example}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    print(f"iterations {len(plain)} untraced, {len(with_trace)} traced; {len(points)} points")
    print("untraced wall_s " + " ".join(f"{w:.3f}" for w in plain))
    if with_trace:
        print("traced wall_s " + " ".join(f"{w:.3f}" for w in with_trace))

    if traced:
        overhead = statistics.median(with_trace) - statistics.median(plain)
        metrics = _layer_metrics(tracer, len(with_trace), overhead)
        wanted = spec["per_layer"]
        _print_span_table(tracer, len(with_trace), statistics.fmean(with_trace))
        dump = WORK / f"spans_{workload_name}_s{seed}.json"
        dump.write_text(json.dumps(tracer.dump()))
        print(f"spans written to {dump.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "point_s.p50": statistics.median(points),
            "point_s.p90": statistics.quantiles(points, n=10, method="inclusive")[8],
        }
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:44s} {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
