"""Build-at-first-use loader for the C kernels in ``_native.c``.

The kernels are the chain loop of :func:`vaxgame.chain.simulate`, one DOP853
segment of :func:`vaxgame.ode.integrate` with the field g (which keeps
:func:`vaxgame.ode.varrho`'s grouping of the event masses, not the chain's),
the certificate draws of :func:`vaxgame.attractor._draw_offsets`, and three
row loops: g over the rows of :func:`vaxgame.ode.field_rows`, the response
capped at a given cap (the propensity q~ of the certificates' side test in
:func:`vaxgame.attractor._propensity_rows` takes it uncapped) and the
``%.17g`` formatter of the path and trajectory CSVs, which
:func:`write_rows` drives.  The two state-row loops read the arrays that
:func:`states` checks.  The segment kernel holds no tableau of its own:
each call takes ``ode._TABLEAU``, the package's one copy of the DOP853
coefficients.

:func:`library` compiles the packaged C source with the installed ``gcc``
the first time a kernel is needed in a process, never at ``import vaxgame``,
and loads it through :mod:`ctypes`.  The shared object goes to a per-user
cache, ``$XDG_CACHE_HOME/vaxgame`` or else ``~/.cache/vaxgame``, under a name
keyed by a hash of the source, the compiler flags and the numpy version, so
later processes load it without compiling.  It is written to a temporary file
and then renamed into place, because process-pool workers can race to build.

The flags are ``-O2 -ffp-contract=off``: no fused multiply-add and no
``-ffast-math``, so that every kernel is bit-exact with the Python code it
replaces.  The draw kernel links numpy's ``libnpyrandom`` and draws from the
caller's bit generator.  Where the library cannot be built or loaded (no
compiler, an unwritable cache), :func:`library` returns None and the callers
run their Python code, which gives the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .policy import _RESPONSE, Family, Policy, _response_key

_COMPILER = "gcc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_NUMPY_DIR = Path(np.__file__).parent
_UNRESOLVED = object()
_library = _UNRESOLVED

# chain kernel return codes, as in _native.c
(
    CHAIN_DONE,
    CHAIN_FROZEN,
    CHAIN_NEED_BLOCK,
    CHAIN_DEGENERATE,
    CHAIN_EXTINCT,
    CHAIN_RECORDS_FULL,
) = range(6)

# ODE segment kernel return codes, as in _native.c
ODE_DONE, ODE_EVENT, ODE_TOO_SMALL, ODE_RECORDS_FULL, ODE_DEGENERATE, ODE_NO_ROOT = range(6)

#: Rows per block of :func:`write_rows`; its text buffer holds one block.
_CSV_BLOCK = 4096

#: base family codes of _native.c, in the order of policy._RESPONSE
_FAMILY_CODES = {key: code for code, key in enumerate(_RESPONSE)}


class Law(ctypes.Structure):
    """Rates and resolved response of one chain run (``law_t``)."""

    _fields_ = [
        *((name, ctypes.c_double) for name in ("lam", "r", "nu", "b", "d", "d_e")),
        ("family", ctypes.c_int64),
        ("mutant", ctypes.c_int64),
        *((name, ctypes.c_double) for name in ("beta", "gamma", "q", "eps", "p")),
    ]


class ChainState(ctypes.Structure):
    """Chain state carried from one kernel call to the next (``chain_t``)."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in ("n", "s", "i", "v", "k")),
        *((name, ctypes.c_double) for name in ("eta", "inv_eta", "min_eta", "max_jump")),
        ("bi", ctypes.c_int64),
        ("n_rec", ctypes.c_int64),
    ]


class Segment(ctypes.Structure):
    """One ODE segment's settings and solver state (``segment_t``)."""

    _fields_ = [
        *((name, ctypes.c_double) for name in ("t_bound", "rtol", "atol")),
        ("event", ctypes.c_int64),
        *((name, ctypes.c_double) for name in ("gamma", "t", "h_abs")),
        ("y", ctypes.c_double * 3),
        ("f", ctypes.c_double * 3),
        ("ev", ctypes.c_double),
        ("n_rec", ctypes.c_int64),
    ]


def make_law(params, policy: Policy) -> Law:
    base = policy.mutant_base if policy.family is Family.MUTANT else policy
    return Law(
        lam=params.lam,
        r=params.r,
        nu=params.nu,
        b=params.b,
        d=params.d,
        d_e=params.d_e,
        family=_FAMILY_CODES[_response_key(base)],
        mutant=policy.family is Family.MUTANT,
        beta=base.beta,
        gamma=base.gamma,
        q=base.static_q,
        eps=policy.mutant_eps,
        p=policy.mutant_p,
    )


def library() -> Optional[ctypes.CDLL]:
    """The kernels, built or loaded on the first call; None where that fails."""
    global _library
    if _library is _UNRESOLVED:
        try:
            _library = _load(_cache_dir())
        except (OSError, subprocess.SubprocessError):
            _library = None
    return _library


def kernel_name() -> str:
    """``native`` when the kernels load, else ``python``."""
    return "python" if library() is None else "native"


def states(ys) -> np.ndarray:
    """``ys`` as the C-contiguous (n, 3) doubles a state-row loop reads.

    Raises ValueError for any other shape: the loops would read past it.
    """
    ys = np.ascontiguousarray(ys, float)  # the settle scan hands a strided view
    if ys.ndim != 2 or ys.shape[1] != 3:
        raise ValueError(f"expected (n, 3) states, got shape {ys.shape}")
    return ys


def write_rows(path, header: str, columns, keys=None) -> None:
    """Write a CSV file: ``header``, then one line per row at 17 significant digits.

    ``columns`` are arrays of n rows each, 1-D or 2-D, laid side by side;
    each of their values is written as Python's ``"%.17g" % x``.  Where
    ``keys`` is given, each line starts with its key as an integer.  Rows go
    out in blocks of ``_CSV_BLOCK`` through one text buffer, formatted by the
    C formatter when the library loads, else, or where the formatter declines
    (a locale whose decimal point is not "."), by Python.  Both write the
    same bytes.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns) or (keys is not None and len(keys) != n):
        raise ValueError("every column and the keys must have the same number of rows")
    cols = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    line = ("%d," if keys is not None else "") + ",".join(["%.17g"] * cols) + "\n"
    lib = library()
    # ROW_BYTES of _native.c: the longest key and doubles, with their separators
    text = None if lib is None else np.empty(min(n, _CSV_BLOCK) * (21 + 25 * cols), np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n, _CSV_BLOCK):
            block = slice(start, min(start + _CSV_BLOCK, n))
            values = np.ascontiguousarray(np.column_stack([c[block] for c in columns]), float)
            key = None if keys is None else np.ascontiguousarray(keys[block], np.int64)
            size = -1
            if text is not None:
                key_ptr = None if key is None else key.ctypes.data
                size = lib.vaxgame_format_rows(len(values), cols, key_ptr, values, text, len(text))
            if size >= 0:
                fh.write(memoryview(text)[:size])
                continue
            rows = values.tolist()
            if key is not None:
                rows = [(k, *row) for k, row in zip(key.tolist(), rows)]
            fh.write("".join(line % tuple(row) for row in rows).encode())


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "vaxgame"


def _load(cache: Path) -> ctypes.CDLL:
    source = resources.files(__package__).joinpath("_native.c").read_bytes()
    key = hashlib.sha256(source)
    key.update(" ".join(_FLAGS).encode())
    key.update(np.__version__.encode())
    target = cache / f"_native-{key.hexdigest()[:16]}.so"
    if not target.is_file():
        _build(source, cache, target)
    return _declare(ctypes.CDLL(str(target)))


def _build(source: bytes, cache: Path, target: Path) -> None:
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [
                _COMPILER,
                *_FLAGS,
                "-I", sysconfig.get_paths()["include"],
                "-I", np.get_include(),
                "-x", "c", "-",
                "-o", tmp,
                "-L", str(_NUMPY_DIR / "random" / "lib"),
                "-lnpyrandom",
                "-lm",
            ],
            input=source,
            check=True,
            capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    int64s = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    lib.vaxgame_chain.restype = ctypes.c_int
    lib.vaxgame_chain.argtypes = [
        ctypes.POINTER(ChainState),
        ctypes.POINTER(Law),
        ctypes.c_int64,  # max_steps
        ctypes.c_double,  # delta
        ctypes.c_int64,  # stride
        doubles,  # block of uniforms
        ctypes.c_int64,  # its length
        ctypes.c_int64,  # length of each record array
        int64s,  # recorded epochs
        doubles,  # recorded theta
        doubles,  # recorded psi
        doubles,  # recorded eta
    ]
    lib.vaxgame_edges.restype = None
    lib.vaxgame_edges.argtypes = [ctypes.POINTER(Law), ctypes.c_double, ctypes.c_double, doubles]
    lib.vaxgame_draw.restype = ctypes.c_int64
    lib.vaxgame_draw.argtypes = [ctypes.c_void_p, ctypes.c_int64, doubles, doubles]
    lib.vaxgame_field_rows.restype = ctypes.c_int64
    lib.vaxgame_field_rows.argtypes = [ctypes.POINTER(Law), ctypes.c_int64, doubles, doubles]
    lib.vaxgame_response_rows.restype = None
    lib.vaxgame_response_rows.argtypes = [
        ctypes.POINTER(Law), ctypes.c_int64, doubles, ctypes.c_double, doubles
    ]
    lib.vaxgame_segment_start.restype = ctypes.c_int
    lib.vaxgame_segment_start.argtypes = [ctypes.POINTER(Segment), ctypes.POINTER(Law)]
    lib.vaxgame_segment.restype = ctypes.c_int
    lib.vaxgame_segment.argtypes = [
        ctypes.POINTER(Segment),
        ctypes.POINTER(Law),
        doubles,  # the DOP853 tableau, ode._TABLEAU
        ctypes.c_int64,  # record rows
        doubles,  # the records, rows of (t, theta, psi, eta)
    ]
    lib.vaxgame_format_rows.restype = ctypes.c_int64
    lib.vaxgame_format_rows.argtypes = [
        ctypes.c_int64,  # rows
        ctypes.c_int64,  # doubles per row
        ctypes.c_void_p,  # the int64 keys, one per row, or None
        doubles,  # the doubles, row-major
        np.ctypeslib.ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE")),  # the text
        ctypes.c_int64,  # its capacity in bytes
    ]
    return lib
