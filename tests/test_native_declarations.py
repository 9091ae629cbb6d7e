"""The ctypes declarations of vaxgame._native against the exports of _native.c.

Read from the two source files, so that the check runs without a compiler.
"""

import re
from pathlib import Path

import vaxgame

SRC = Path(vaxgame.__file__).resolve().parent


def test_every_exported_kernel_is_declared():
    # ctypes takes an undeclared function to return int and would cut a
    # double or an int64 short: every export of _native.c has both its
    # argtypes and its restype set, and every declaration names an export
    source = (SRC / "_native.c").read_text()
    exported = set(re.findall(r"^(?!static)[a-z][\w ]*?\b(vaxgame_\w+)\(", source, re.M))
    declare = (SRC / "_native.py").read_text().split("def _declare")[1]
    declared = {
        attr: set(re.findall(rf"lib\.(vaxgame_\w+)\.{attr} =", declare))
        for attr in ("argtypes", "restype")
    }
    assert {
        "vaxgame_field_rows", "vaxgame_response_rows", "vaxgame_format_rows", "vaxgame_chain"
    } <= exported
    assert declared["argtypes"] == exported
    assert declared["restype"] == exported
