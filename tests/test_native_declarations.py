"""The ctypes declarations of vaxgame._native against the exports and structs
of _native.c, and _native.c against the compiler's warnings.

The declarations are read from the two source files and the ctypes
classes, so that their checks run without a compiler; the warnings check
skips where gcc is missing.
"""

import ctypes
import re
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vaxgame
from vaxgame import _native, chain
from vaxgame.chain import EVENT_EFFECTS, Event
from vaxgame.policy import _RESPONSE, Family

SRC = Path(vaxgame.__file__).resolve().parent


def _exports():
    source = (SRC / "_native.c").read_text()
    return set(re.findall(r"^(?!static)[a-z][\w ]*?\b(vaxgame_\w+)\(", source, re.M))


def test_every_exported_kernel_is_declared():
    # ctypes takes an undeclared function to return int and would cut a
    # double or an int64 short: every export of _native.c has both its
    # argtypes and its restype set, and every declaration names an export
    exported = _exports()
    declare = (SRC / "_native.py").read_text().split("def _declare")[1]
    declared = {
        attr: set(re.findall(rf"lib\.(vaxgame_\w+)\.{attr} =", declare))
        for attr in ("argtypes", "restype")
    }
    assert {"vaxgame_certify", "vaxgame_format_rows", "vaxgame_chain"} <= exported
    assert declared["argtypes"] == exported
    assert declared["restype"] == exported


# read only by the tests, which pin the chain kernel's event masses through it
_TEST_ONLY_EXPORTS = {"vaxgame_edges"}


def test_every_exported_kernel_has_a_reader():
    # an export that no module of the package calls is dead code in C and
    # in its declaration: each one is named outside _native._declare
    declare = re.compile(r"^def _declare\b.*?(?=^\S|\Z)", re.M | re.S)
    texts = [declare.sub("", path.read_text()) for path in SRC.glob("*.py")]
    read = {name for name in _exports() if any(re.search(rf"\b{name}\(", t) for t in texts)}
    assert _exports() - read == _TEST_ONLY_EXPORTS


# the ctypes Structure of each typedef struct of _native.c
_STRUCTS = {
    "law_t": _native.Law,
    "chain_t": _native.ChainState,
    "segment_t": _native.Segment,
    "loop_t": _native.Loop,
    "sample_t": _native.Sample,
}
_C_TYPES = {ctypes.c_double: "double", ctypes.c_int64: "int64_t", ctypes.c_uint64: "uint64_t"}


def _c_fields():
    """Each typedef struct of _native.c: its name -> its fields as (name, type) in order."""
    source = re.sub(r"/\*.*?\*/", "", (SRC / "_native.c").read_text(), flags=re.S)
    structs = {}
    for body, name in re.findall(r"typedef struct \{(.*?)\} (\w+);", source, re.S):
        fields = []
        for declaration in filter(None, map(str.strip, body.split(";"))):
            kind, declarators = declaration.split(None, 1)
            for declarator in declarators.split(","):
                field, _, length = declarator.strip().partition("[")
                fields.append((field, f"{kind}[{length}" if length else kind))
        structs[name] = fields
    return structs


def _ctypes_name(kind):
    if issubclass(kind, ctypes.Array):
        return f"{_ctypes_name(kind._type_)}[{kind._length_}]"
    c_names = {cls: name for name, cls in _STRUCTS.items()}
    return c_names[kind] if issubclass(kind, ctypes.Structure) else _C_TYPES[kind]


# the structs that stay inside _native.c: no export takes one
_KERNEL_PRIVATE_STRUCTS = {"lanes_t"}


def test_every_struct_is_declared_field_for_field():
    # ctypes lays a Structure out from its _fields_ alone: a field the C
    # struct gained, lost or moved shifts every field after it, silently.
    # A struct private to the kernels crosses no export, so needs no ctypes twin
    structs = _c_fields()
    assert set(structs) == set(_STRUCTS) | _KERNEL_PRIVATE_STRUCTS
    source = (SRC / "_native.c").read_text()
    signatures = re.findall(r"^(?!static)[a-z][\w ]*?\bvaxgame_\w+\((.*?)\)", source, re.M | re.S)
    assert signatures and not any(
        name in signature for signature in signatures for name in _KERNEL_PRIVATE_STRUCTS
    )
    for name, cls in _STRUCTS.items():
        declared = [(field, _ctypes_name(kind)) for field, kind in cls._fields_]
        assert declared == structs[name], name


class _Recorder:
    """A stand-in library: each function ``_native._declare`` declares, as a namespace."""

    def __getattr__(self, name):
        function = SimpleNamespace()
        setattr(self, name, function)
        return function


def _kind(ctype):
    """A ctypes type as the C kind it passes: a pointer, an integer or a double."""
    if ctype is ctypes.c_double:
        return "double"
    if ctype is ctypes.c_int64:
        return "integer"
    # a ctypes array argument is passed as the address of its first element
    pointers = (ctypes._Pointer, ctypes.Array)
    assert ctype is ctypes.c_void_p or issubclass(ctype, pointers), ctype
    return "pointer"


def _c_kind(parameter):
    """A C parameter as the kind it passes: an array parameter is a pointer."""
    if "*" in parameter or "[" in parameter:
        return "pointer"
    return {"double": "double", "int64_t": "integer"}[parameter.split()[-2]]


def test_every_export_takes_the_declared_arguments():
    # ctypes passes an argument past the end of argtypes on unchecked, and
    # reads each declared one as its declaration says: an export whose C
    # parameters differ in number or kind from its argtypes reads garbage,
    # or crashes the process, instead of failing a test
    source = re.sub(r"/\*.*?\*/", "", (SRC / "_native.c").read_text(), flags=re.S)
    prototypes = re.findall(r"^(?!static)[a-z][\w ]*?\b(vaxgame_\w+)\((.*?)\)", source, re.M | re.S)
    lib = _native._declare(_Recorder())
    assert {name for name, _ in prototypes} == _exports()
    for name, parameters in prototypes:
        declared = [_kind(ctype) for ctype in getattr(lib, name).argtypes]
        assert [_c_kind(p.strip()) for p in parameters.split(",")] == declared, name


def _pcg64_multiplier():
    """The 128-bit multiplier of the chain kernel's PCG64 step, read from _native.c."""
    source = (SRC / "_native.c").read_text()
    halves = [int(re.search(rf"#define PCG_MULT_{half} (\d+)ULL", source)[1]) for half in ("HI", "LO")]
    return halves[0] << 64 | halves[1]


@pytest.mark.parametrize("seed", [0, 1, 20260809])
def test_kernel_pcg64_step_is_numpys(seed):
    # the kernel's step and output, transcribed to Python integers: state =
    # state * M + inc mod 2^128, then the XSL-RR of the new state, and the
    # uniform (out >> 11) * 2^-53, against numpy's own PCG64 and random()
    mult = _pcg64_multiplier()
    pcg = np.random.PCG64(seed).state["state"]
    state, inc = pcg["state"], pcg["inc"]
    words, uniforms = [], []
    for _ in range(1000):
        state = (state * mult + inc) % 2**128
        x = ((state >> 64) ^ state) % 2**64
        rot = state >> 122
        out = (x >> rot | x << (-rot % 64)) % 2**64
        words.append(out)
        uniforms.append((out >> 11) * 2.0**-53)
    assert words == np.random.PCG64(seed).random_raw(1000).tolist()
    assert uniforms == np.random.Generator(np.random.PCG64(seed)).random(1000).tolist()


def test_kernel_event_effects_are_the_chains():
    # the kernel applies each event through its own table, and the lanes
    # through code words built from it:
    # its rows, the events it skips at S = 0 and the event it skips to are
    # chain.EVENT_EFFECTS, chain._SUSCEPTIBLE_EVENTS and the null decision
    source = re.sub(r"/\*.*?\*/", "", (SRC / "_native.c").read_text(), flags=re.S)
    table = re.search(r"EVENT_EFFECTS\[8\]\[4\] = \{(.*?)\};", source, re.S)[1]
    rows = [tuple(map(int, row.split(","))) for row in re.findall(r"\{([^{}]*)\}", table)]
    assert rows == [EVENT_EFFECTS[event] for event in Event]
    guarded = re.search(r"#define SUSCEPTIBLE_EVENTS \((.*?)\)\n", source)[1]
    assert {int(bit) for bit in re.findall(r"1u << (\d+)", guarded)} == set(chain._SUSCEPTIBLE_EVENTS)
    assert int(re.search(r"NULL_DECISION = (\d+)", source)[1]) == Event.NULL_DECISION


def test_lockstep_width_is_the_kernels():
    # harness._run_mc hands the kernel its replications in groups this wide
    source = (SRC / "_native.c").read_text()
    assert int(re.search(r"#define LOCKSTEP (\d+)", source)[1]) == _native.LOCKSTEP


def _enum(first):
    """The members of the enum of _native.c whose first member is ``first``, in order."""
    source = re.sub(r"/\*.*?\*/", "", (SRC / "_native.c").read_text(), flags=re.S)
    body = re.search(rf"enum \{{\s*({first}\b.*?)\}}", source, re.S)[1]
    return [member.strip() for member in body.split(",") if member.strip()]


@pytest.mark.parametrize("first", ["CHAIN_RUNS", "ODE_DONE"])
def test_return_codes_are_the_kernels(first):
    # the chain and ODE codes of _native.py are numbered by range(): each
    # name must sit at its place in the kernel's enum, and none be missing
    prefix = first.split("_")[0] + "_"
    declared = {name: getattr(_native, name) for name in dir(_native) if name.startswith(prefix)}
    assert declared == {name: code for code, name in enumerate(_enum(first))}


def test_family_codes_are_the_kernels():
    # _native._FAMILY_CODES numbers the families in the key order of
    # policy._RESPONSE, which the kernel's family enum must follow
    names = [
        key.name if isinstance(key, Family) else key.replace("-", "_").upper() for key in _RESPONSE
    ]
    assert _enum("FC") == names


def test_row_bytes_are_the_formatters():
    # write_rows sizes the formatter's text buffer by these bounds: a buffer
    # below the kernel's ROW_BYTES per row makes it decline every block
    source = (SRC / "_native.c").read_text()
    defined = {
        name: int(re.search(rf"#define {name} (\d+)", source)[1])
        for name in ("KEY_BYTES", "DOUBLE_BYTES")
    }
    assert defined == {"KEY_BYTES": _native._KEY_BYTES, "DOUBLE_BYTES": _native._DOUBLE_BYTES}
    assert "#define ROW_BYTES(cols) (KEY_BYTES + (cols) * DOUBLE_BYTES)" in source


def test_library_is_built_for_any_cpu_of_its_kind():
    # the cached library must load on any x86-64: the chain kernel asks the
    # CPU for AVX2 at run time, and no -m or -march flag targets the builder's
    assert not [flag for flag in _native._FLAGS if flag.startswith("-m")]


def _compile_with_every_warning(tmp_path, *extra):
    # no -I: the source is plain C, and a Python or numpy header fails the build
    return subprocess.run(
        [
            _native._COMPILER, *_native._FLAGS, *extra, "-Wall", "-Wextra", "-Werror",
            "-c", str(SRC / "_native.c"),
            "-o", str(tmp_path / "_native.o"),
        ],
        capture_output=True,
        text=True,
    )


@pytest.mark.skipif(shutil.which(_native._COMPILER) is None, reason="no C compiler")
def test_native_source_compiles_without_warnings(tmp_path):
    # the library's own flags plus every warning as an error: the 128-bit
    # shifts and the signed/unsigned mixes of the formatter are where a
    # new warning would hide
    build = _compile_with_every_warning(tmp_path)
    assert build.returncode == 0, build.stderr


@pytest.mark.skipif(shutil.which(_native._COMPILER) is None, reason="no C compiler")
def test_native_source_compiles_without_warnings_or_lanes(tmp_path):
    # the same without __SSE2__, where the chain kernel has no lanes
    build = _compile_with_every_warning(tmp_path, "-U__SSE2__")
    assert build.returncode == 0, build.stderr
