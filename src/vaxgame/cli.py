"""Command-line entry points.

    vaxgame run <config>       execute the configured layers, write summary,
                               trajectories and a run manifest
    vaxgame atlas <config>     closed-form catalogue dump (plus certificates)
    vaxgame ess <config>       evolutionary-stability sweep
    vaxgame validate <config>  closed form vs ODE vs Monte Carlo agreement

Common flags: --seed (override the master seed, non-negative), --threads
(parallel sweep points, at least 1), --out (override the output directory).
Exit codes: 0 ran, 1 validate found a disagreement or a layer it compares
(closed form, ODE, Monte Carlo) recorded an error, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_experiment
from .errors import ConfigError
from .harness import (
    Layer,
    run,
    write_atlas_csv,
    write_ess_csv,
    write_manifest,
)


def _report_run(exp, records) -> int:
    print(f"{exp.id}: {len(records)} point(s) -> {exp.output_dir}")
    return 0


def _report_table(kind: str, label: str, writer):
    def report(exp, records) -> int:
        out = exp.output_dir / f"{kind}_{exp.id}.csv"
        writer(records, out)
        print(f"{exp.id}: {label} with {len(records)} row(s) -> {out}")
        return 0

    return report


def _report_validation(exp, records) -> int:
    worst = 0
    for record in records:
        tag = (
            f"{record.sweep_variable}={record.sweep_value:g}"
            if record.sweep_value is not None
            else "single point"
        )
        for pair, verdict in record.cross.items():
            print(f"{exp.id} [{tag}] {pair}: {verdict}")
            if verdict == "disagree":
                worst = 1
        # a layer that failed leaves its pairs not-comparable: that is no pass
        for column, result in (
            ("cf_error", record.cf),
            ("ode_error", record.ode_res),
            ("mc_error", record.mc_res),
        ):
            if result.error is not None:
                print(f"{exp.id} [{tag}] {column}: {result.error}")
                worst = 1
    return worst


# verb: (forced layers, None for the configured ones; writes a manifest;
#        report(exp, records) -> exit code)
_VERBS = {
    "run": (None, True, _report_run),
    "atlas": (
        {Layer.CLOSED_FORM, Layer.STABILITY},
        False,
        _report_table("atlas", "atlas", write_atlas_csv),
    ),
    "ess": ({Layer.ESS}, False, _report_table("ess", "ESS sweep", write_ess_csv)),
    "validate": ({Layer.CLOSED_FORM, Layer.ODE, Layer.MONTE_CARLO}, True, _report_validation),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vaxgame",
        description="Epidemic-vaccination game engine",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _VERBS:
        sub = subs.add_parser(name)
        sub.add_argument("config", help="experiment config file")
        sub.add_argument("--seed", type=int, default=None, help="master seed override")
        sub.add_argument("--threads", type=int, default=1, help="parallel sweep points")
        sub.add_argument("--out", type=Path, default=None, help="output directory override")
    args = parser.parse_args(argv)
    layers, manifest, report = _VERBS[args.command]

    try:
        exp = load_experiment(args.config)
        if args.out is not None:
            exp = dataclasses.replace(exp, output_dir=args.out)
        if layers is not None:
            exp = dataclasses.replace(exp, layers=frozenset(layers))
        if Layer.ESS in exp.layers and exp.costs is None:
            raise ConfigError(f"{args.command} command requires a [costs] section")
        seed = args.seed if args.seed is not None else exp.mc.seed
        records = run(exp, threads=args.threads, master_seed=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if manifest:
        write_manifest(
            exp, args.config, seed, args.threads, exp.output_dir / f"manifest_{exp.id}.txt"
        )
    return report(exp, records)


if __name__ == "__main__":
    sys.exit(main())
