import concurrent.futures
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import vaxgame
from vaxgame import Family, Layer, ModelParams, _native, chain, harness, vfc2, vfc2_limit_set
from vaxgame.cli import main as cli_main
from vaxgame.config import load_experiment, parse_grid
from vaxgame.errors import ConfigError, DegenerateState
from vaxgame.harness import apply_sweep, run

CONFIG_TEXT = """
[experiment]
id = demo
layers = closed_form, ode
theta0 = 0.21
psi0 = 0.001
output_dir = {out}

[params]
lambda = 8.549
r = 1.188
nu = 0.904
b = 0.322
d = 0.1
d_e = 0

[policy]
family = FC
beta = 0.5

[costs]
c_v1 = 2.88
c_v2 = 0.65
c_v2_bar = 1.91
c_I1 = 4.32/r
c_I2 = 0

[sweep]
variable = beta
values = 0.5, 1.0, 3.0

[mc]
n0 = 1500
max_steps = 40000
replications = 2
seed = 99
stride = 200
tail_fraction = 0.2
"""


SUMMARY_HEADER = (
    "sweep_var,sweep_value,cf_row,cf_kind,cf_theta,cf_psi,cf_eta,cf_clamp_active,"
    "cf_conjectured,cf_error,ode_theta,ode_psi,ode_eta,ode_settled,ode_tail_theta,"
    "ode_tail_psi,ode_crossings,ode_error,mc_theta_mean,mc_psi_mean,mc_theta_sd,"
    "mc_psi_sd,mc_crossings_min,mc_frozen_any,mc_reps,mc_error,ess_verdict,ess_theta,"
    "ess_psi,ess_h,ess_h_m,ess_beta_star,ess_conjectured,ess_error,stab_eig_max_real,"
    "stab_lyap_fraction,stab_pass,stab_marginal,stab_error,ode_vs_closed_form,"
    "mc_vs_closed_form"
)
ATLAS_HEADER = (
    "family,lambda,r,nu,b,d,d_e,beta,regime_row,theta_hat,psi_hat,kind,conjectured,"
    "eigen_max_real"
)
ESS_HEADER = "sweep_var,value,verdict,theta_star,psi_star,h,beta_star_threshold"


def read_rows(path: Path) -> list[dict]:
    """CSV rows as dicts; a row with more cells than the header fails."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(None not in row for row in rows)
    return rows


def write_config(tmp_path: Path, text: str | None = None) -> Path:
    cfg = tmp_path / "exp.cfg"
    cfg.write_text((text or CONFIG_TEXT).format(out=tmp_path / "out"))
    return cfg


def test_config_round_trip(tmp_path):
    exp = load_experiment(write_config(tmp_path))
    assert exp.id == "demo"
    assert exp.params.lam == 8.549 and exp.params.d_e == 0.0
    assert exp.policy.family is Family.FC and exp.policy.beta == 0.5
    assert exp.costs.c_I1 == pytest.approx(4.32 / 1.188)
    assert exp.sweep.variable == "beta" and exp.sweep.values == (0.5, 1.0, 3.0)
    assert exp.layers == {Layer.CLOSED_FORM, Layer.ODE}
    assert exp.mc.n0 == 1500 and exp.mc.replications == 2 and exp.mc.seed == 99
    assert exp.theta0 == 0.21


def test_grid_syntax():
    assert parse_grid("1, 2.5, 4") == [1.0, 2.5, 4.0]
    assert parse_grid("0.5:2.0:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0])
    for bad in ("2:1:0.5", "a, b", "0:inf:1", "nan:1:1", "0:1:0", "0:1:1e-300", " , "):
        with pytest.raises(ConfigError):
            parse_grid(bad)


_GRID_SCALE = st.floats(-1e3, 1e3, allow_nan=False)


@given(start=_GRID_SCALE, step=st.floats(1e-3, 1e3), span=st.floats(0.0, 200.0))
def test_grid_range_property(start, step, span):
    stop = start + span * step
    values = parse_grid(f"{start!r}:{stop!r}:{step!r}")
    assert values[0] == start
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] <= stop + 1e-12 * max(1.0, abs(stop))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_grid_comma_list_round_trips(values):
    assert parse_grid(", ".join(repr(v) for v in values)) == values


_NUMBERS = st.lists(_GRID_SCALE.map(repr), max_size=3)


@given(
    before=_NUMBERS,
    junk=st.sampled_from(["x", "1.2.3", "--1", "e5", "0x10", "one"]),
    after=_NUMBERS,
    sep=st.sampled_from([",", ":"]),
)
@example(before=[], junk="x", after=["2", "0.5"], sep=":")
def test_grid_malformed_is_config_error(before, junk, after, sep):
    # a token float() rejects, or a wrong number of range parts
    with pytest.raises(ConfigError):
        parse_grid(sep.join([*before, junk, *after]))


@pytest.mark.parametrize(
    "mangle,match",
    [
        (lambda s: s.replace("lambda = 8.549\n", ""), "missing"),
        (lambda s: s.replace("family = FC", "family = XX"), "family"),
        (lambda s: s.replace("variable = beta", "variable = q"), "sweep variable"),
        # sweeps over a value the policy does not read
        (lambda s: s.replace("variable = beta", "variable = gamma"), "not read by FC"),
        (
            lambda s: s.replace("family = FC\nbeta = 0.5", "family = STATIC\nq = 0.5"),
            "not read by STATIC",
        ),
        (lambda s: s + "\n[params]\nbogus = 1\n", "."),
    ],
)
def test_config_errors(tmp_path, mangle, match):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(mangle(CONFIG_TEXT.format(out=tmp_path / "out")))
    with pytest.raises(ConfigError, match=match):
        load_experiment(cfg)


# a single point (no sweep) whose [ode] section leaves horizon unset
ODE_WITHOUT_HORIZON = (
    CONFIG_TEXT[: CONFIG_TEXT.index("[sweep]")] + "[ode]\nrtol = 1e-12\natol = 1e-13\n"
)


@pytest.mark.parametrize(
    "section,line",
    [
        ("experiment", "theta_0 = 0.1"),
        ("params", "lamda = 8.5"),
        ("policy", "gama = 0.2"),
        # keys the FC family does not read
        ("policy", "gamma = abc"),
        ("policy", "theta_variant = ture"),
        ("policy", "q = 7"),
        ("costs", "c_v3 = 1"),
        ("sweep", "value = 1"),
        ("mc", "replication = 10"),
        ("ode", "horizn = 50"),
    ],
)
def test_unknown_key_is_config_error(tmp_path, section, line):
    text = CONFIG_TEXT + "\n[ode]\nhorizon = 50\n"
    cfg = write_config(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    with pytest.raises(ConfigError, match=rf"\[{section}\] unknown keys: {line.split()[0]}"):
        load_experiment(cfg)


def test_unknown_section_is_config_error(tmp_path):
    cfg = write_config(tmp_path, CONFIG_TEXT.replace("[mc]", "[mcc]"))
    with pytest.raises(ConfigError, match=r"unknown section \[mcc\]"):
        load_experiment(cfg)


@pytest.mark.parametrize(
    "old,new",
    [
        ("c_v1 = 2.88", "c_v1 = -1"),
        ("b = 0.322", "b = 0.05"),
        ("beta = 0.5", "beta = -0.5"),
        ("values = 0.5, 1.0, 3.0", "values = x:2:0.5"),
        # every sweep value is checked at load, not when its point runs
        ("values = 0.5, 1.0, 3.0", "values = -1, 0.5"),
        ("values = 0.5, 1.0, 3.0", "values = 0.5, nan"),
        ("variable = beta\nvalues = 0.5, 1.0, 3.0", "variable = d_e\nvalues = 0, 0.25"),
        ("r = 1.188", "r = 0"),  # with c_I1 = 4.32/r
        ("c_v1 = 2.88", "c_v1 = nan"),
        # the chain kernel counts in int64: 2**64 + 1 would reach it as 1
        ("stride = 200", "stride = 18446744073709551617"),
        ("max_steps = 40000", "max_steps = 9223372036854775808"),
        # the chain's counts are doubles, exact below 2**53
        ("max_steps = 40000", "max_steps = 9007199254740992"),
        # and so are N(0) + max_steps, whatever the layers
        ("n0 = 1500", "n0 = 9223372036854775807"),
        ("n0 = 1500", "n0 = 9007199254740000"),
        # numpy's SeedSequence takes no negative entropy
        ("seed = 99", "seed = -3"),
    ],
)
def test_inadmissible_value_exits_2(tmp_path, capsys, old, new):
    assert old in CONFIG_TEXT
    cfg = write_config(tmp_path, CONFIG_TEXT.replace(old, new))
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# one point, all three sampling layers, a short chain
ONE_POINT = (
    CONFIG_TEXT[: CONFIG_TEXT.index("[sweep]")]
    + CONFIG_TEXT[CONFIG_TEXT.index("[mc]") :].replace("max_steps = 40000", "max_steps = 2000")
    + "\n[ode]\nhorizon = 50\n"
).replace("layers = closed_form, ode", "layers = closed_form, ode, monte_carlo")


@pytest.mark.parametrize(
    "old,new,column,error",
    [
        ("n0 = 1500", "n0 = 1", "mc_error", "InvalidParams: initial population must have"),
        ("theta0 = 0.21", "theta0 = 1.5", "mc_error", "DomainError: initial fractions"),
        ("tail_fraction = 0.2", "tail_fraction = 1.5", "mc_error",
         "InvalidParams: tail_fraction must lie in (0, 1)"),
        ("stride = 200", "stride = 0", "mc_error", "InvalidParams: stride must be"),
        ("replications = 2", "replications = 0", "mc_error",
         "InvalidParams: replications must be at least 1, got 0"),
        ("horizon = 50", "horizon = -1", "ode_error", "InvalidParams: horizon must be positive"),
        ("horizon = 50", "horizon = nan", "ode_error", "InvalidParams: horizon must be positive"),
        ("horizon = 50", "horizon = 50\nrtol = nan", "ode_error",
         "InvalidParams: rtol must be finite and positive, got nan"),
        ("horizon = 50", "horizon = 50\natol = -1", "ode_error",
         "InvalidParams: atol must be finite and positive, got -1.0"),
        ("horizon = 50", "horizon = 50\neta0 = nan", "ode_error",
         "InvalidParams: start state must be finite"),
        ("horizon = 50", "horizon = 50\neta0 = 0", "ode_error",
         "InvalidParams: start eta must be positive, got 0.0"),
        ("horizon = 50", "horizon = 50\neta0 = -1", "ode_error",
         "InvalidParams: start eta must be positive, got -1.0"),
        ("theta0 = 0.21", "theta0 = nan", "ode_error", "InvalidParams: start state must be finite"),
        ("theta0 = 0.21", "theta0 = nan", "mc_error", "DomainError: initial fractions"),
        # a start outside the simplex is bad input, not a solver failure
        ("psi0 = 0.001", "psi0 = 0.9", "ode_error",
         "DomainError: start fractions must lie in the simplex, got theta=0.21, psi=0.9"),
        ("psi0 = 0.001", "psi0 = 0.9", "mc_error", "DomainError: initial fractions"),
    ],
)
def test_bad_layer_input_is_recorded(tmp_path, old, new, column, error):
    assert old in ONE_POINT
    assert cli_main(["run", str(write_config(tmp_path, ONE_POINT.replace(old, new)))]) == 0
    (row,) = read_rows(tmp_path / "out" / "summary_demo.csv")
    assert row[column].startswith(error)
    assert row["cf_error"] == ""


def test_closed_form_out_of_the_double_range_is_recorded(tmp_path):
    text = ONE_POINT.replace("lambda = 8.549", "lambda = 1e300").replace(
        "family = FC\nbeta = 0.5", "family = FR\nbeta = 1e300"
    ).replace("layers = closed_form, ode, monte_carlo", "layers = closed_form")
    assert cli_main(["run", str(write_config(tmp_path, text))]) == 0
    (row,) = read_rows(tmp_path / "out" / "summary_demo.csv")
    assert row["cf_error"].startswith("DegenerateState: closed form left the double range")


@pytest.mark.parametrize(
    "old,new,error",
    [
        ("replications = 2", "replications = 0", "InvalidParams: replications must be at least 1"),
        ("tail_fraction = 0.2", "tail_fraction = 0", "InvalidParams: tail_fraction must lie in (0, 1)"),
        ("stride = 200", "stride = -5", "InvalidParams: stride must be"),
        ("n0 = 1500", "n0 = -3", "InvalidParams: counts must be non-negative"),
    ],
)
def test_validate_fails_on_a_recorded_layer_error(tmp_path, capsys, old, new, error):
    # the failed layer leaves its pairs not-comparable, which is no pass
    assert old in ONE_POINT
    assert cli_main(["validate", str(write_config(tmp_path, ONE_POINT.replace(old, new)))]) == 1
    printed = capsys.readouterr().out
    assert f"demo [single point] mc_error: {error}" in printed
    assert "disagree" not in printed


def test_rows_keep_point_order(tmp_path):
    text = CONFIG_TEXT.replace("values = 0.5, 1.0, 3.0", "values = 3.0, 0.5")
    assert cli_main(["run", str(write_config(tmp_path, text))]) == 0
    out = tmp_path / "out"
    rows = read_rows(out / "summary_demo.csv")
    assert [row["sweep_value"] for row in rows] == ["3", "0.5"]
    for k, row in enumerate(rows):
        path = (out / f"ode_demo_p{k}.csv").read_text().splitlines()
        assert row["ode_theta"] == path[-1].split(",")[1]


def test_mutant_beta_sweep_moves_the_base(tmp_path):
    text = CONFIG_TEXT.replace("family = FC", "family = MUTANT\nbase = FC\np = 0.5\neps = 0.1")
    text = text.replace("values = 0.5, 1.0, 3.0", "values = 0.5, 3.0")
    exp = load_experiment(write_config(tmp_path, text))
    records = run(exp)
    assert [r.policy.mutant_base.beta for r in records] == [0.5, 3.0]
    low, high = read_rows(tmp_path / "out" / "summary_demo.csv")
    assert low["ode_theta"] != high["ode_theta"]
    assert cli_main(["atlas", str(write_config(tmp_path, text))]) == 0
    assert [row["beta"] for row in read_rows(tmp_path / "out" / "atlas_demo.csv")] == ["0.5", "3"]


@pytest.mark.parametrize(
    "raw,expected",
    [("1", True), ("TRUE", True), (" Yes ", True), ("0", False), ("False", False), ("no", False)],
)
def test_theta_variant_spellings(tmp_path, raw, expected):
    text = CONFIG_TEXT.replace("family = FC", f"family = VFC2\ngamma = 0.2\ntheta_variant = {raw}")
    assert load_experiment(write_config(tmp_path, text)).policy.theta_variant is expected


_MUTANT_OF_VFC2 = "family = MUTANT\nbase = VFC2\np = 0.5\neps = 0.1\ngamma = 0.2"


def test_mutant_hands_theta_variant_to_its_base(tmp_path):
    text = CONFIG_TEXT.replace("family = FC", f"{_MUTANT_OF_VFC2}\ntheta_variant = yes")
    assert load_experiment(write_config(tmp_path, text)).policy.mutant_base.theta_variant


@pytest.mark.parametrize(
    "policy,key",
    [
        ("family = MUTANT\nbase = FC\np = 0.5\neps = 0.1\ngamma = 0.2", "gamma"),
        (f"{_MUTANT_OF_VFC2}\nq = 0.3", "q"),
        ("family = MUTANT\nbase = STATIC\np = 0.5\neps = 0.1\nq = 0.3", "beta"),
        ("family = STATIC\nq = 0.3", "beta"),
        ("family = VFC2\ngamma = 0.2\neps = 0.1", "eps"),
    ],
)
def test_key_the_policy_does_not_read_is_config_error(tmp_path, policy, key):
    # a MUTANT reads a key only if it or its base does
    text = CONFIG_TEXT.replace("family = FC", policy)
    with pytest.raises(ConfigError, match=rf"\[policy\] unknown keys: {key} \(not read by"):
        load_experiment(write_config(tmp_path, text))
    assert cli_main(["run", str(write_config(tmp_path, text))]) == 2


def test_mutant_of_a_mutant_is_config_error(tmp_path):
    text = CONFIG_TEXT.replace("family = FC\nbeta = 0.5", "family = MUTANT\nbase = MUTANT")
    with pytest.raises(ConfigError, match="MUTANT requires base="):
        load_experiment(write_config(tmp_path, text))


@pytest.mark.parametrize("raw", ["ture", "yes please", "2", "on", ""])
@pytest.mark.parametrize("family", ["family = VFC2\ngamma = 0.2", _MUTANT_OF_VFC2])
def test_theta_variant_typo_is_config_error(tmp_path, raw, family):
    text = CONFIG_TEXT.replace("family = FC", f"{family}\ntheta_variant = {raw}")
    with pytest.raises(ConfigError, match="theta_variant"):
        load_experiment(write_config(tmp_path, text))


def test_degenerate_certificate_is_recorded(tmp_path, monkeypatch):
    # a NaN eta_hat at the first point must not abort the sweep
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, stability")
    exp = load_experiment(write_config(tmp_path, text.replace("0.5, 1.0, 3.0", "0.5, 3.0")))
    closed_form = harness.closed_form

    def nan_eta_at_first_point(params, policy):
        attr = closed_form(params, policy)
        return dataclasses.replace(attr, eta_hat=math.nan) if policy.beta == 0.5 else attr

    monkeypatch.setattr(harness, "closed_form", nan_eta_at_first_point)
    run(exp)
    first, second = read_rows(tmp_path / "out" / "summary_demo.csv")
    assert first["stab_error"].startswith("DegenerateState: non-finite Jacobian")
    assert second["stab_error"] == "" and second["stab_pass"] == "true"


def test_ode_section_without_horizon_keeps_default(tmp_path):
    exp = load_experiment(write_config(tmp_path, ODE_WITHOUT_HORIZON))
    assert exp.ode.horizon is None
    assert exp.ode.atol == 1e-13


def test_cli_run_ode_section_without_horizon(tmp_path):
    assert cli_main(["run", str(write_config(tmp_path, ODE_WITHOUT_HORIZON))]) == 0
    assert (tmp_path / "out" / "summary_demo.csv").exists()


@pytest.mark.parametrize(
    "section,key,bad",
    [
        ("mc", "n0", "4e4"),
        ("mc", "max_steps", "4e4"),
        ("mc", "replications", "2.0"),
        ("mc", "seed", "seven"),
        ("mc", "stride", "1e3"),
        ("mc", "tail_fraction", "fifth"),
        ("ode", "horizon", "1e4s"),
        ("ode", "rtol", "tight"),
        ("ode", "atol", "1e-14x"),
        ("ode", "eta0", "one"),
        ("experiment", "theta0", "0.1.2"),
        ("experiment", "psi0", "low"),
    ],
)
def test_bad_numeric_key_is_config_error(tmp_path, capsys, section, key, bad):
    line = f"{key} = {bad}"
    text, replaced = re.subn(rf"^{key} = .*$", line, CONFIG_TEXT + "\n[ode]\n", flags=re.M)
    cfg = write_config(tmp_path, text if replaced else text + line + "\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = "):
        load_experiment(cfg)
    assert cli_main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_ess_layer_requires_costs(tmp_path):
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = ess")
    text = text[: text.index("[costs]")] + text[text.index("[sweep]") :]
    cfg = tmp_path / "nocosts.cfg"
    cfg.write_text(text.format(out=tmp_path / "out"))
    with pytest.raises(ConfigError, match="costs"):
        load_experiment(cfg)


def test_apply_sweep_targets():
    from vaxgame import ModelParams, Policy

    params = ModelParams(lam=2.0, r=1.0, nu=1.0, b=1.0, d=0.1)
    policy = Policy(Family.FC, beta=0.5)
    p2, pol2 = apply_sweep(params, policy, "beta", 2.0)
    assert pol2.beta == 2.0 and p2 is params
    p3, pol3 = apply_sweep(params, policy, "lambda", 5.0)
    assert p3.lam == 5.0 and pol3 is policy
    p4, _ = apply_sweep(params, policy, "d_e", 0.05)
    assert p4.d_e == 0.05


def test_run_sweep_cross_validates(tmp_path):
    exp = load_experiment(write_config(tmp_path))
    records = run(exp, master_seed=7)
    assert [r.sweep_value for r in records] == [0.5, 1.0, 3.0]
    for record in records:
        assert record.cf.attractor is not None
        assert record.cross["ode_vs_closed_form"] == "agree"
        assert record.cross["mc_vs_closed_form"] == "not-comparable"  # layer off
    summary = exp.output_dir / "summary_demo.csv"
    assert summary.exists()
    assert summary.read_text().splitlines()[0] == SUMMARY_HEADER


def test_rerun_is_byte_identical(tmp_path):
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, monte_carlo")
    exp = load_experiment(write_config(tmp_path, text))
    run(exp, master_seed=5)
    first = (exp.output_dir / "summary_demo.csv").read_bytes()
    run(exp, master_seed=5)
    second = (exp.output_dir / "summary_demo.csv").read_bytes()
    assert first == second


def test_parallel_matches_serial(tmp_path):
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, monte_carlo")
    exp = load_experiment(write_config(tmp_path, text))
    run(exp, threads=1, master_seed=11)
    serial = (exp.output_dir / "summary_demo.csv").read_bytes()
    run(exp, threads=2, master_seed=11)
    parallel = (exp.output_dir / "summary_demo.csv").read_bytes()
    assert serial == parallel


def test_a_failed_replication_ends_its_point(tmp_path, monkeypatch):
    # the replications of a point run side by side, but the point records
    # them in order and stops at the first that failed, as runs one after
    # another would: replication 0's file and McRep, then the error
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, monte_carlo")
    text = text.replace("replications = 2", "replications = 3")
    exp = load_experiment(write_config(tmp_path, text))
    whole = run(exp, master_seed=4)
    first = {p.name: p.read_bytes() for p in exp.output_dir.glob("traj_*_r0.csv")}
    assert len(first) == 3  # one per point
    for p in exp.output_dir.glob("traj_*"):
        p.unlink()
    replications = chain.simulate_replications
    widths = []

    def second_fails(*args):
        widths.append(len(args[-1]))
        results = replications(*args)
        results[1] = DegenerateState("the population died out")
        return results

    # in groups of two, the third replication of a point never runs
    monkeypatch.setattr(_native, "LOCKSTEP", 2)
    monkeypatch.setattr(chain, "simulate_replications", second_fails)
    records = run(exp, master_seed=4)
    assert widths == [2] * 3
    assert {p.name: p.read_bytes() for p in exp.output_dir.glob("traj_*")} == first
    for record, reference in zip(records, whole):
        assert record.mc_res == harness.McResult(
            reps=reference.mc_res.reps[:1], error="DegenerateState: the population died out"
        )
    rows = read_rows(exp.output_dir / "summary_demo.csv")
    assert [row["mc_reps"] for row in rows] == ["1"] * 3


def test_replications_run_in_groups_of_the_kernels_width(tmp_path, monkeypatch):
    # a point with one replication more than the kernel steps side by side
    # runs two groups, and writes what one replication at a time writes
    width = _native.LOCKSTEP
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, monte_carlo")
    text = text.replace("replications = 2", f"replications = {width + 1}")
    text = text.replace("max_steps = 40000", "max_steps = 4000")
    exp = load_experiment(write_config(tmp_path, text))
    replications = chain.simulate_replications
    widths = []

    def spy(*args):
        widths.append(len(args[-1]))
        return replications(*args)

    monkeypatch.setattr(chain, "simulate_replications", spy)
    outputs = []
    for group in (width, 1):
        monkeypatch.setattr(_native, "LOCKSTEP", group)
        records = run(exp, master_seed=6)
        files = {p.name: p.read_bytes() for p in exp.output_dir.glob("*.csv")}
        outputs.append((files, [record.mc_res for record in records]))
    assert widths == [width, 1] * 3 + [1] * (width + 1) * 3
    assert len([name for name in outputs[0][0] if name.startswith("traj_")]) == (width + 1) * 3
    assert outputs[0] == outputs[1]


def test_mc_agreement_small_population(tmp_path):
    # a single no-sweep point with every layer wired together
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, ode, monte_carlo")
    text = text[: text.index("[sweep]")] + text[text.index("[mc]") :]
    text = text.replace("max_steps = 40000", "max_steps = 200000")
    exp = load_experiment(write_config(tmp_path, text))
    records = run(exp, master_seed=3)
    assert len(records) == 1
    record = records[0]
    assert record.cross["ode_vs_closed_form"] == "agree"
    live = [r for r in record.mc_res.reps if not r.frozen]
    assert live
    for rep in live:  # small population: looser check than the acceptance gate
        assert abs(rep.theta - record.cf.attractor.theta_hat) <= 0.05


def test_vfc2_record_uses_limit_set(tmp_path):
    text = CONFIG_TEXT.replace("family = FC\nbeta = 0.5", "family = VFC2\nbeta = 6.0\ngamma = 0.2")
    text = text.replace("lambda = 8.549", "lambda = 4.0")
    text = text.replace("r = 1.188", "r = 1.0")
    text = text.replace("nu = 0.904", "nu = 2.0")
    text = text.replace("b = 0.322", "b = 1.0")
    text = text.replace("d = 0.1", "d = 0.8")
    text = text.replace("theta0 = 0.21", "theta0 = 0.25")
    text = text.replace("psi0 = 0.001", "psi0 = 0.10")
    text = text[: text.index("[sweep]")] + text[text.index("[mc]") :]
    cfg = tmp_path / "vfc2.cfg"
    cfg.write_text(text.format(out=tmp_path / "out"))
    exp = load_experiment(cfg)
    records = run(exp, master_seed=2)
    record = records[0]
    assert record.cf.limit_set is not None
    assert record.cf.limit_set.center_theta == pytest.approx(0.2)
    assert record.ode_res.crossings is not None and record.ode_res.crossings >= 10
    assert record.cross["ode_vs_closed_form"] == "agree"


def test_limit_set_needs_the_tail_psi_in_its_band():
    # tails 0.0012 from the centre in psi, as the ODE's on vfc2_oscillation.cfg:
    # they agree with it, and disagree with a centre whose psi is 0.1 off
    params = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
    centre = vfc2_limit_set(params, 0.2)
    theta, psi = centre.center_theta, centre.center_psi + 0.0012
    record = harness.RunRecord(None, None, params, vfc2(6.0, 0.2))
    record.ode_res = harness.OdeResult(theta, psi, 1.0, False, theta, psi, crossings=400)
    record.mc_res = harness.McResult(reps=(harness.McRep(theta, psi, 0.01, 0.01, 400, False),))
    for shift, verdict in ((0.0, "agree"), (0.1, "disagree"), (-0.1, "disagree")):
        moved = dataclasses.replace(centre, center_psi=centre.center_psi + shift)
        record.cf = harness.ClosedFormResult(limit_set=moved)
        assert harness.cross_validate(record) == {
            "ode_vs_closed_form": verdict, "mc_vs_closed_form": verdict
        }


def test_cli_run_atlas_ess_validate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli_main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "summary_demo.csv").exists()
    assert (out / "manifest_demo.txt").exists()
    manifest = (out / "manifest_demo.txt").read_text()
    assert "config_sha256:" in manifest and "master_seed:" in manifest
    assert f"\nsummary_columns: {SUMMARY_HEADER}\n" in manifest
    # the ode layer steps in the C kernel where it loads
    kernel = "python" if _native.library() is None else "native"
    assert f"\nkernel: {kernel}\n" in manifest
    # closed_form alone runs no kernel: the manifest says so and nothing is built
    cf_only = write_config(tmp_path, CONFIG_TEXT.replace("closed_form, ode", "closed_form"))
    with mock.patch.object(_native, "library", side_effect=AssertionError("loaded")):
        assert cli_main(["run", str(cf_only)]) == 0
    assert "\nkernel: none\n" in (out / "manifest_demo.txt").read_text()
    assert cli_main(["run", str(cfg)]) == 0

    assert cli_main(["atlas", str(cfg)]) == 0
    atlas = (out / "atlas_demo.csv").read_text().splitlines()
    assert atlas[0] == ATLAS_HEADER
    assert len(atlas) == 4

    assert cli_main(["ess", str(cfg)]) == 0
    ess_rows = (out / "ess_demo.csv").read_text().splitlines()
    assert ess_rows[0] == ESS_HEADER

    # a single fast-converging point validates clean (exit code 0)
    single = CONFIG_TEXT[: CONFIG_TEXT.index("[sweep]")] + CONFIG_TEXT[CONFIG_TEXT.index("[mc]") :]
    single = single.replace("max_steps = 40000", "max_steps = 150000")
    cfg_single = tmp_path / "single.cfg"
    cfg_single.write_text(single.format(out=tmp_path / "val"))
    assert cli_main(["validate", str(cfg_single)]) == 0
    printed = capsys.readouterr().out
    assert "ode_vs_closed_form: agree" in printed
    assert f"\nkernel: {kernel}\n" in (tmp_path / "val" / "manifest_demo.txt").read_text()
    with mock.patch.object(_native, "library", return_value=None):
        assert cli_main(["validate", str(cfg_single)]) == 0
    assert "\nkernel: python\n" in (tmp_path / "val" / "manifest_demo.txt").read_text()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--seed", "-1"], "master seed must be non-negative, got -1"),
        (["--threads", "0"], "threads must be at least 1, got 0"),
        (["--threads", "-1"], "threads must be at least 1, got -1"),
        # an --out that names a regular file, or a path under one
        (["--out", "{tmp}/file"], "cannot make output directory {tmp}/file: File exists"),
        (["--out", "{tmp}/file/below"],
         "cannot make output directory {tmp}/file/below: Not a directory"),
    ],
)
def test_bad_flag_exits_2(tmp_path, capsys, flags, message):
    text = CONFIG_TEXT.replace("layers = closed_form, ode", "layers = closed_form, monte_carlo")
    (tmp_path / "file").write_text("kept\n")
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert cli_main(["run", str(write_config(tmp_path, text)), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize(
    "threads,cpus,workers",
    [(64, 8, 3), (64, 2, 2), (2, 8, 2), (1, 8, None), (2, 1, None), (64, None, None)],
)
def test_pool_size_is_capped(tmp_path, monkeypatch, threads, cpus, workers):
    # the pool starts all its workers at once, so it is never larger than the
    # sweep (3 points here) or the machine; a pool of one runs in this process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    records = run(load_experiment(write_config(tmp_path)), threads=threads)
    assert len(records) == 3
    assert sizes == ([] if workers is None else [workers])


def test_import_loads_no_process_pool():
    # the pool's modules cost 11-19 ms of every start: only a pool imports them
    code = (
        "import sys, vaxgame;"
        " print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vaxgame.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cli_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli_main(["run", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err


ATLAS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def test_atlas_sweeps_settle_in_few_segments(monkeypatch, tmp_path):
    # the 101 points of perfbench's atlas-certify sweeps: each ODE run ends
    # at its first quiet row, 470 segments in all (595 when a run settled
    # after 100 quiet steps in a row and finished its segment)
    runs = []
    integrate = harness.ode.integrate

    def counted(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(harness.ode, "integrate", counted)
    for name in ("atlas_fc", "atlas_fr", "atlas_vfc1", "atlas_fc_deadly", "atlas_fr_deadly"):
        argv = ["run", str(ATLAS / f"{name}.cfg"), "--threads", "1", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
    assert len(runs) == 101 and all(path.settled for path in runs)
    assert sum(path.n_segments for path in runs) <= 470
