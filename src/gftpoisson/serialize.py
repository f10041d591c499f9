"""Canonical JSON and CSV emission.

Floats are printed with 17 significant digits so that parse-and-reprint is
byte-identical; dict key order is insertion order; indentation is fixed at
two spaces.  Non-finite floats use the same spellings the json module accepts
(Infinity, -Infinity, NaN), and -0.0 prints as 0.

dumps_canonical writes a flat dict (a check, crosscheck, threshold or suite
report) in one pass: each key whose type is exactly str is quoted once per
process and kept in a bounded table of heads, since reports repeat a few
fixed key sets, and each value whose type is exactly float, str, int, bool or
None is formatted from a table keyed by type.  Any other dict, key or value,
a subclass of those types included, goes through the isinstance chain of
_write, which prints the same bytes.
"""

from __future__ import annotations

# %.17g spells the special values the C way; -nan prints as nan
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "-0": "0"}


def fmt_float(x: float) -> str:
    s = "%.17g" % x
    return _SPECIAL.get(s, s)


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
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",\n")
            out.append(pad + '  "' + _escaped(str(key)) + '": ')
            _write(value, indent + 1, out)
        out.append("\n" + pad + "}")
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

# the quoted, indented head of each top-level str key kept so far; keys are
# schema strings, so a few dozen cover every report, and a dict with a key
# that finds the table full is written by _write
_HEADS: dict = {}
_HEADS_CAP = 256


def _flat(obj: dict) -> str:
    # a key that is not exactly a str looks up None, which is never kept, so no
    # equal key of another type reuses a head (a str subclass may print
    # otherwise than its value); that KeyError, a key not kept yet and a value
    # type without a formatter all send obj to _keep_heads
    return "{\n" + ",\n".join([_HEADS[key if type(key) is str else None]
                                 + _FLAT[type(value)](value)
                                 for key, value in obj.items()]) + "\n}"


def _keep_heads(obj: dict) -> bool:
    """Keep the head of every key of obj; False if obj is not flat or a head does not fit."""
    if not all(type(key) is str and type(value) in _FLAT for key, value in obj.items()):
        return False
    for key in obj:
        if key not in _HEADS:
            if len(_HEADS) >= _HEADS_CAP:
                return False
            _HEADS[key] = '  "' + _escaped(key) + '": '
    return True


def dumps_canonical(obj) -> str:
    if type(obj) is dict and obj:
        try:
            return _flat(obj)
        except KeyError:
            if _keep_heads(obj):
                return _flat(obj)
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
