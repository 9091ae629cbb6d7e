"""Print a sha256 digest of every output of the CLI verbs on the shipped configs.

Runs ``vaxgame.cli.main`` for ``run``, ``atlas``, ``ess`` and ``validate``,
each with ``--seed 7`` and a fresh temporary ``--out``, over
``configs/*.cfg`` and ``perfbench/configs/*.cfg`` of the tree this script
sits in, importing the package from that tree's ``src``.  It prints one
sorted ``sha256  verb-config/file`` line per output file, plus one each for
the run's stdout (``:stdout``), stderr (``:stderr``) and exit code
(``:exit``).  The temporary root is replaced by ``<out>`` in stdout and
stderr, so two trees that write the same bytes print the same lines: run
the script in each tree and ``diff`` the two listings.

    python scripts/output_digest.py > digest.txt

The C kernels are used where they build and load.  With
``XDG_CACHE_HOME=/dev/null`` they can be neither built nor loaded, and
every layer runs its Python path.  ``validate`` forces the Monte Carlo
layer onto every config (about 150 points of 3 chains of 2 M epochs), so
on the Python path the listing had not finished after 20 minutes, where
natively it took 12 s (2-vCPU VM).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vaxgame.cli import main  # noqa: E402

VERBS = ("run", "atlas", "ess", "validate")
CONFIG_GLOBS = ("configs/*.cfg", "perfbench/configs/*.cfg")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines() -> list[str]:
    """The sorted ``sha256  verb-config/file`` lines of every verb on every config."""
    configs = sorted(path for pattern in CONFIG_GLOBS for path in ROOT.glob(pattern))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for config in configs:
            for verb in VERBS:
                name = f"{verb}-{config.stem}"
                out = root / name
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([verb, str(config), "--seed", "7", "--out", str(out)])
                streams = {
                    ":stdout": stdout.getvalue().replace(str(root), "<out>"),
                    ":stderr": stderr.getvalue().replace(str(root), "<out>"),
                    ":exit": f"{code}\n",
                }
                for label, text in streams.items():
                    lines.append(f"{_sha256(text.encode())}  {name}/{label}")
                for path in sorted(out.rglob("*")):
                    if path.is_file():
                        rel = path.relative_to(out).as_posix()
                        lines.append(f"{_sha256(path.read_bytes())}  {name}/{rel}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    print("\n".join(digest_lines()))
