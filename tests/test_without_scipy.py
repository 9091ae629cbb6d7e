"""vaxgame runs every layer with scipy absent: scipy is a test-only oracle."""

import os
import subprocess
import sys
from pathlib import Path

import vaxgame
from vaxgame import _native

SRC = Path(vaxgame.__file__).resolve().parent.parent

# One point of every layer, in a process where importing scipy fails.
# argv[1] is "native" or "python"; "python" forces the Python loops.
SCRIPT = """
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now raises

from vaxgame import (
    CostParams, Family, ModelParams, OdeState, _native, certify_stability, classify_ess,
    closed_form, fc, integrate, make_initial, mutation_stability, simulate, vfc2,
)

if sys.argv[1] == "python":
    _native._library = None
print("kernel", _native.kernel_name())

left = ModelParams(lam=8.549, r=1.188, nu=0.904, b=0.322, d=0.1)
attr = closed_form(left, fc(3.0))
print("closed_form", attr)
path = integrate(OdeState(0.2, 0.1, 1.0), left, fc(3.0), horizon=1e4)
print("ode fc", path.endpoint, path.settled, len(path.t))
oscillating = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
path = integrate(OdeState(0.25, 0.1, 1.0), oscillating, vfc2(6.0, 0.2), horizon=6.0)
print("ode vfc2", path.endpoint, path.n_segments, len(path.t))
traj = simulate(make_initial(500, 0.2, 0.1), left, fc(1.5), max_steps=20_000, stride=50, rng=3)
print("monte_carlo", traj.final, len(traj), traj.theta[-1], traj.psi[-1])
scare = CostParams(c_v1=2.88, c_v2=0.65, c_v2_bar=1.91, c_I1=40.0)
print("ess", classify_ess(Family.FC, left, scare))
report = mutation_stability(Family.FC, 2.5, left, scare)
print("mutation_stability", report.passed, len(report.probes))
cert = certify_stability(attr, left, fc(3.0))
print("stability", cert)
assert cert.passed and report.passed and path.n_segments > 1
print("scipy modules", sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def _run(mode: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_every_layer_runs_without_scipy():
    native, python = _run("native"), _run("python")
    expected = "python" if _native.library() is None else "native"
    assert native[0] == f"kernel {expected}" and python[0] == "kernel python"
    assert native[-1] == python[-1] == "scipy modules ['scipy']"
    assert native[1:] == python[1:]  # the kernels and the Python loops agree
