"""Canonical JSON and CSV emission.

Floats are printed with 17 significant digits so that parse-and-reprint is
byte-identical; dict key order is insertion order; indentation is fixed at
two spaces.  Non-finite floats use the same spellings the json module accepts
(Infinity, -Infinity, NaN), and -0.0 prints as 0.

dumps_canonical has one writer per exact JSON type, in _WRITERS: None, bool,
int, float, str, dict, list and tuple.  Any other value takes the writer of
the first class in its MRO that has one, so an IntEnum prints as an int and
an OrderedDict as a dict.  A writer prints its value unindented; a dict or
list indents each nested container once, through _CHILDREN, and its keys
through their heads.  Each key whose type is exactly str is quoted once per
process and kept in a bounded table of heads, since reports repeat a few
fixed key sets; any other key is quoted through str() on each write.  A dict
is written in one pass over its items: each key's head from that table, or
else quoted now, and each value's writer by its exact type, or else by its
MRO.
"""

from __future__ import annotations

# %.17g spells the special values the C way; -nan prints as nan
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "-0": "0"}


def fmt_float(x: float) -> str:
    s = "%.17g" % x
    return _SPECIAL.get(s, s)


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


def _writer(obj, writers: dict):
    """The writer in writers of the first class in obj's MRO that has one."""
    for cls in type(obj).__mro__:
        if cls in writers:
            return writers[cls]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _head(key) -> str:
    head = '  "' + _escaped(str(key)) + '": '
    # a key that is not exactly a str is never kept: a str subclass may print
    # otherwise than its value, and 1, True and 1.0 are one dict key
    if type(key) is str and len(_HEADS) < _HEADS_CAP:
        _HEADS[key] = head
    return head


def _dict(obj: dict) -> str:
    if not obj:
        return "{}"
    body = ",\n".join([(type(key) is str and _HEADS.get(key) or _head(key))
                       + (_CHILDREN.get(type(value)) or _writer(value, _CHILDREN))(value)
                       for key, value in obj.items()])
    return "{\n" + body + "\n}"


def _list(obj) -> str:
    if not obj:
        return "[]"
    return "[\n  " + ",\n  ".join([_writer(value, _CHILDREN)(value) for value in obj]) + "\n]"


# the writer of each exact JSON type, which prints a value unindented
_WRITERS = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: str,
    float: fmt_float,
    str: lambda s: '"' + _escaped(s) + '"',
    dict: _dict,
    list: _list,
    tuple: _list,
}


def _nested(write):
    """write, with each line after the first indented once."""
    return lambda obj: write(obj).replace("\n", "\n  ")


# the writers of a value inside a dict or list: a nested container is indented
# once, which moves only its layout lines since an escaped string holds no raw
# newline, and a scalar is written as it is, so a flat report takes no replace
_CHILDREN = {**_WRITERS, dict: _nested(_dict), list: _nested(_list), tuple: _nested(_list)}

# the quoted, indented head of each exact-str key kept so far; keys are schema
# strings, so a few dozen cover every report, and a key that finds the table
# full is quoted on each write
_HEADS: dict = {}
_HEADS_CAP = 256


def dumps_canonical(obj) -> str:
    return (_WRITERS.get(type(obj)) or _writer(obj, _WRITERS))(obj)


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
