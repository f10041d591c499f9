"""Canonical JSON and CSV emission.

Floats are printed with 17 significant digits so that parse-and-reprint is
byte-identical; dict key order is insertion order; indentation is fixed at
two spaces.  Non-finite floats use the same spellings the json module accepts
(Infinity, -Infinity, NaN).

A dict value whose type is exactly float, str, int, bool or None is formatted
from a table keyed by type, so a flat dict (a check, crosscheck or threshold
report) is written in one pass; any other value, a subclass of those types
included, goes through the isinstance chain of _write, which prints the same
bytes.
"""

from __future__ import annotations

import math


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0:
        return "0"   # normalize -0.0 so the round trip stays stable
    return "%.17g" % x


def _write(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + _escaped(obj) + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        items = []
        for key, value in obj.items():
            head = pad + '  "' + _escaped(str(key)) + '": '
            fmt = _FLAT.get(type(value))
            if fmt is not None:
                items.append(head + fmt(value))
            else:
                nested: list = []
                _write(value, indent + 1, nested)
                items.append(head + "".join(nested))
        out.append("{\n" + ",\n".join(items) + "\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            if i:
                out.append(",\n")
            out.append(pad + "  ")
            _write(value, indent + 1, out)
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n",
            ord("\r"): "\\r", ord("\t"): "\\t"}
for _cp in range(0x20):
    _ESCAPES.setdefault(_cp, "\\u%04x" % _cp)


def _escaped(s: str) -> str:
    # every code point below 0x20 is a control character, which isprintable()
    # rejects, so a printable string without quote or backslash has nothing to
    # escape and skips the per-character table lookups of translate()
    if s.isprintable() and '"' not in s and "\\" not in s:
        return s
    return s.translate(_ESCAPES)


# formatters of the exact scalar types, keyed by type() so that subclasses (an
# IntEnum, a float subclass) take the isinstance chain of _write instead
_FLAT = {
    float: fmt_float,
    str: lambda s: '"' + _escaped(s) + '"',
    int: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def dumps_canonical(obj) -> str:
    out: list = []
    _write(obj, 0, out)
    return "".join(out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def rows_to_csv(header: list, rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def dict_to_human(d: dict) -> str:
    width = max(len(str(k)) for k in d)
    lines = []
    for k, v in d.items():
        if isinstance(v, (list, tuple)):
            v = "[" + ", ".join(_csv_cell(x) for x in v) + "]"
        else:
            v = _csv_cell(v)
        lines.append(f"{str(k).ljust(width)}  {v}")
    return "\n".join(lines) + "\n"
