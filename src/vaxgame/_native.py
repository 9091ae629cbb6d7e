"""Build-at-first-use loader for the C kernels in ``_native.c``.

The kernels are the chain loop of
:func:`vaxgame.chain.simulate_replications`, which runs one
:class:`ChainState` per replication, up to 16 side by side as the lanes of
AVX2 vectors (a lone chain runs the Python loop's cascade), each stepping
numpy's PCG64 from the state it carries, the chunk loop of
:func:`vaxgame.ode.integrate` (segment after segment of its DOP853
stepper, ending at the first quiet row, with the projection of each chunk
end, the hop across the threshold and the Zeno cut-off; the state
:class:`Loop` carries across calls) and the
field g (which keeps :func:`vaxgame.ode.varrho`'s grouping of the event
masses, not the chain's), the damped Newton of :func:`vaxgame.ode.find_equilibrium` with
its finite-difference Jacobian, which is exported on its own too, the
certificate's pass over its samples (feasibility, g, the signs of its two
quadratic forms and the side tests: five counts per round of
:func:`vaxgame.attractor._sample_lyapunov`), and the ``%.17g`` formatter of
the path and trajectory CSVs, which :func:`write_rows` drives.  The
formatter writes a double with 10^-16 <= |x| < 2^127 in 128-bit integer
arithmetic, correctly rounded (half to even) as Python does; zeros and NaNs
directly; and subnormals, infinities and the rest through
``sprintf("%.17g")``.  The chunk loop holds no tableau of its own: each
call takes ``ode._TABLEAU``, the package's one copy of the DOP853
coefficients; it takes the settle tolerance and the largest chunk from
:mod:`vaxgame.ode` as well, and the Newton its iterations, tolerance and
Jacobian step.  No kernel takes a numpy ``ndpointer``, which ctypes
checks on each call: the ODE kernels take ctypes arrays
(``ode._TABLEAU_C`` views the tableau once, each run allocates its
records, and a state or Jacobian is a :data:`State` or :data:`Matrix`),
and the others the address of a numpy array whose dtype and layout hold
by construction.

:func:`library` compiles the packaged C source with the installed ``gcc``
the first time a kernel is needed in a process, never at ``import vaxgame``,
and loads it through :mod:`ctypes`.  The source is plain C: the build needs
``gcc`` and libm, and no Python or numpy headers.  The shared object goes to
a per-user cache, ``$XDG_CACHE_HOME/vaxgame`` or else ``~/.cache/vaxgame``,
under a name keyed by a hash of the source and the compiler flags, so later
processes load it without compiling.  It is written to a temporary file
and then renamed into place, because process-pool workers can race to build.

The flags are ``-O2 -ffp-contract=off``: no fused multiply-add and no
``-ffast-math``, so that every kernel is bit-exact with the Python code it
replaces.  No ``-m`` flag targets the building CPU, so the cached library
loads on any CPU of its kind: the chain kernel asks the CPU for AVX2 when
it runs, and without it, or where the compiler does not target x86, runs
the chains of a call one after another.  Where the library cannot be built
or loaded (no compiler, an unwritable cache), :func:`library` returns None
and the callers run their Python code, which gives the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .policy import _RESPONSE, Family, Policy, _response_key

_COMPILER = "gcc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_UNRESOLVED = object()
_library = _UNRESOLVED

# the code of a chain of the chain kernel, as in _native.c
(
    CHAIN_RUNS,
    CHAIN_DONE,
    CHAIN_FROZEN,
    CHAIN_DEGENERATE,
    CHAIN_EXTINCT,
    CHAIN_RECORDS_FULL,
) = range(6)
LOCKSTEP = 16  # the most chains the chain kernel steps side by side, as in _native.c

# ODE kernel return codes, as in _native.c
(
    ODE_DONE,
    ODE_EVENT,
    ODE_TOO_SMALL,
    ODE_RECORDS_FULL,
    ODE_DEGENERATE,
    ODE_NO_ROOT,
    ODE_LEFT_SIMPLEX,
    ODE_SINGULAR,
    ODE_SETTLED,
    ODE_ZENO,
    ODE_NO_HOP,
) = range(11)

#: Rows per block of :func:`write_rows`; its text buffer holds one block.
_CSV_BLOCK = 4096
#: The longest key and double of a formatted row, each with its separator,
#: as KEY_BYTES and DOUBLE_BYTES in _native.c
_KEY_BYTES = 21  # "-9223372036854775808,"
_DOUBLE_BYTES = 25  # "-2.2250738585072014e-308" and its separator

#: base family codes of _native.c, in the order of policy._RESPONSE
_FAMILY_CODES = {key: code for code, key in enumerate(_RESPONSE)}

#: A state (theta, psi, eta) and a 3 x 3 matrix, row-major, as the Newton and
#: Jacobian kernels take them: float64 and contiguous by construction.
State = ctypes.c_double * 3
Matrix = ctypes.c_double * 9


class Law(ctypes.Structure):
    """Rates and resolved response of one chain run (``law_t``)."""

    _fields_ = [
        *((name, ctypes.c_double) for name in ("lam", "r", "nu", "b", "d", "d_e")),
        ("family", ctypes.c_int64),
        ("mutant", ctypes.c_int64),
        *((name, ctypes.c_double) for name in ("beta", "gamma", "q", "eps", "p")),
    ]


class ChainState(ctypes.Structure):
    """One chain of the chain kernel, carried from one call to the next (``chain_t``)."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in ("n", "s", "i", "v", "k")),
        *((name, ctypes.c_double) for name in ("eta", "inv_eta", "min_eta", "max_jump")),
        *((name, ctypes.c_int64) for name in ("n_rec", "until")),
        *((name, ctypes.c_uint64) for name in ("state_hi", "state_lo", "inc_hi", "inc_lo")),
        ("code", ctypes.c_int64),
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
    ]


class Loop(ctypes.Structure):
    """The chunk loop of one ODE run: settings and state (``loop_t``)."""

    _fields_ = [
        *((name, ctypes.c_double) for name in ("t_end", "max_chunk")),
        ("stop", ctypes.c_int64),
        *((name, ctypes.c_double) for name in ("tol", "chunk")),
        *((name, ctypes.c_int64) for name in ("n_segments", "open", "hopped", "tiny")),
        ("t0", ctypes.c_double),
        ("seg", Segment),
        ("n_rec", ctypes.c_int64),
    ]


class Sample(ctypes.Structure):
    """The certificate's sample pass: its settings and one round's counts (``sample_t``)."""

    _fields_ = [
        ("x_hat", ctypes.c_double * 3),
        ("p_form", ctypes.c_double * 9),
        ("gamma", ctypes.c_double),
        ("counts", ctypes.c_int64 * 5),
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


def write_rows(path, header: str, columns, keys=None) -> None:
    """Write a CSV file: ``header``, then one line per row at 17 significant digits.

    ``columns`` are arrays of n rows each, 1-D or 2-D, laid side by side;
    each of their values is written as Python's ``"%.17g" % x``.  Where
    ``keys`` is given, each line starts with its key as an integer.  Rows go
    out in blocks of ``_CSV_BLOCK`` through one text buffer, formatted by the
    C formatter when the library loads, else, or where the formatter declines
    (a locale whose decimal point is not "."), by Python.  Both write the
    same bytes.  The C formatter takes the digits of 10^-16 <= |x| < 2^127
    from exact integer arithmetic, writes zeros and NaNs directly, and hands
    subnormals, infinities and the values outside that range to
    ``sprintf("%.17g")``.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns) or (keys is not None and len(keys) != n):
        raise ValueError("every column and the keys must have the same number of rows")
    cols = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    line = ("%d," if keys is not None else "") + ",".join(["%.17g"] * cols) + "\n"
    lib = library()
    row_bytes = _KEY_BYTES + _DOUBLE_BYTES * cols  # ROW_BYTES of _native.c
    text = None if lib is None else np.empty(min(n, _CSV_BLOCK) * row_bytes, np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n, _CSV_BLOCK):
            block = slice(start, min(start + _CSV_BLOCK, n))
            values = np.ascontiguousarray(np.column_stack([c[block] for c in columns]), float)
            key = None if keys is None else np.ascontiguousarray(keys[block], np.int64)
            size = -1
            if text is not None:
                key_ptr = None if key is None else key.ctypes.data
                size = lib.vaxgame_format_rows(
                    len(values), cols, key_ptr, values.ctypes.data, text.ctypes.data, len(text)
                )
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
            [_COMPILER, *_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source,
            check=True,
            capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    # arrays go in as the address of a numpy array whose dtype and layout
    # hold by construction, or as a ctypes array: an ndpointer's checks
    # would cost microseconds per call
    address = ctypes.c_void_p
    lib.vaxgame_chain.restype = None
    lib.vaxgame_chain.argtypes = [
        ctypes.POINTER(ChainState),  # the chains, a ChainState array
        ctypes.c_int64,  # their number
        ctypes.POINTER(Law),
        ctypes.c_int64,  # max_steps
        ctypes.c_double,  # delta
        ctypes.c_int64,  # stride
        ctypes.c_int64,  # the record rows of each chain
        address,  # recorded epochs, int64
        address,  # recorded theta, float64
        address,  # recorded psi, float64
        address,  # recorded eta, float64
    ]
    lib.vaxgame_edges.restype = None
    lib.vaxgame_edges.argtypes = [ctypes.POINTER(Law), ctypes.c_double, ctypes.c_double, address]
    lib.vaxgame_certify.restype = ctypes.c_int
    lib.vaxgame_certify.argtypes = [
        ctypes.POINTER(Sample),
        ctypes.POINTER(Law),
        address,  # the offsets, float64, row-major
        ctypes.c_int64,  # their count
        ctypes.c_int64,  # the samples still missing
    ]
    lib.vaxgame_integrate.restype = ctypes.c_int
    lib.vaxgame_integrate.argtypes = [
        ctypes.POINTER(Loop),
        ctypes.POINTER(Law),
        ctypes.POINTER(ctypes.c_double),  # the DOP853 tableau, ode._TABLEAU
        ctypes.c_int64,  # record rows
        ctypes.POINTER(ctypes.c_double),  # the records, rows of (t, theta, psi, eta)
    ]
    lib.vaxgame_jacobian.restype = ctypes.c_int
    lib.vaxgame_jacobian.argtypes = [ctypes.POINTER(Law), State, ctypes.c_double, Matrix]
    lib.vaxgame_newton.restype = ctypes.c_int
    lib.vaxgame_newton.argtypes = [
        ctypes.POINTER(Law),
        ctypes.c_int64,  # iterations
        ctypes.c_double,  # the residual tolerance
        ctypes.c_double,  # the Jacobian's relative step
        State,  # updated in place
        ctypes.POINTER(ctypes.c_double),  # the final residual
        ctypes.POINTER(ctypes.c_double),  # the start's residual
    ]
    lib.vaxgame_format_rows.restype = ctypes.c_int64
    lib.vaxgame_format_rows.argtypes = [
        ctypes.c_int64,  # rows
        ctypes.c_int64,  # doubles per row
        ctypes.c_void_p,  # the int64 keys, one per row, or None
        address,  # the doubles, float64, row-major
        address,  # the text, uint8, writeable
        ctypes.c_int64,  # its capacity in bytes
    ]
    return lib
