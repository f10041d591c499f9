import collections
import enum
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gftpoisson import dumps_canonical, serialize
from gftpoisson.serialize import _ESCAPES, dict_to_human, fmt_float, rows_to_csv


def _reference_fmt_float(x: float) -> str:
    """The three-check spelling fmt_float had before its special-value table."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0:
        return "0"
    return "%.17g" % x


def test_fmt_float_spellings():
    assert fmt_float(2.0) == "2"
    assert fmt_float(-0.0) == "0"
    assert fmt_float(0.0) == "0"
    assert fmt_float(math.inf) == "Infinity"
    assert fmt_float(-math.inf) == "-Infinity"
    assert fmt_float(math.nan) == "NaN"
    assert fmt_float(0.5671432904097838) == "0.56714329040978384"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips(x):
    assert float(fmt_float(x)) == x


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(float("-nan"))
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1.7976931348621571e+308)
def test_fmt_float_matches_the_three_check_spelling(x):
    assert fmt_float(x) == _reference_fmt_float(x)


def test_dumps_scalar_values():
    assert dumps_canonical(None) == "null"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(False) == "false"
    assert dumps_canonical(7) == "7"
    assert dumps_canonical("a\nb\"c") == '"a\\nb\\"c"'
    assert dumps_canonical({}) == "{}"
    assert dumps_canonical([]) == "[]"


def test_dumps_report_shape():
    d = {"predicate": "T1_F_in_S", "verdict": "Fails", "lhs": 2 * math.e,
         "rhs": 2.0, "margin": 2.0 - 2 * math.e, "residual": None, "N": 16}
    text = dumps_canonical(d)
    parsed = json.loads(text)
    assert parsed["predicate"] == "T1_F_in_S"
    assert parsed["lhs"] == 2 * math.e
    assert parsed["residual"] is None
    # reprinting the parsed structure reproduces the bytes
    assert dumps_canonical(parsed) == text


def test_dumps_round_trip_is_byte_stable():
    d = {"seed": 0,
         "checks": [{"name": "identities", "status": "pass",
                     "detail": "worst 0.1"},
                    {"name": "grid", "status": "pass",
                     "detail": "argmax [0.25, 0]"}],
         "values": [1 / 3, -0.0, 1e-300, 123456789.123456789],
         "nested": {"empty": {}, "list": []}}
    text = dumps_canonical(d)
    assert dumps_canonical(json.loads(text)) == text


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_canonical({"bad": object()})


def test_dumps_indentation_shape():
    text = dumps_canonical({"a": [1, 2], "b": {"c": 0.5}})
    assert text == ('{\n  "a": [\n    1,\n    2\n  ],\n'
                    '  "b": {\n    "c": 0.5\n  }\n}')


def test_rows_to_csv():
    text = rows_to_csv([{"name": "x", "value": 0.5, "ok": True},
                        {"name": "y", "value": None, "ok": False}])
    assert text == "name,value,ok\nx,0.5,true\ny,,false\n"


def test_dict_to_human_alignment_and_lists():
    text = dict_to_human({"verdict": "Holds", "argmax": [0.25, 0.0], "N": 16})
    lines = text.splitlines()
    assert lines[0] == "verdict  Holds"
    assert lines[1] == "argmax   [0.25, 0]"
    assert lines[2] == "N        16"


# ---- the table-driven writer against the general writer ----

def _general(obj, indent=0, out=None):
    """The isinstance-chain writer, kept here as the oracle of dumps_canonical."""
    top = out is None
    out = [] if top else out
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_reference_fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_ESCAPES) + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
        else:
            out.append("{\n")
            for i, (key, value) in enumerate(obj.items()):
                if i:
                    out.append(",\n")
                out.append(pad + '  "' + str(key).translate(_ESCAPES) + '": ')
                _general(value, indent + 1, out)
            out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        else:
            out.append("[\n")
            for i, value in enumerate(obj):
                if i:
                    out.append(",\n")
                out.append(pad + "  ")
                _general(value, indent + 1, out)
            out.append("\n" + pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "".join(out) if top else None


class _Level(enum.IntEnum):
    LOW = 1


class _Real(float):
    def __repr__(self):
        return "_Real"


class _Name(str):
    def __str__(self):
        return "renamed"


@pytest.mark.parametrize("obj", [
    {"flag": True, "off": False, "n": 1, "zero": 0, "big": -(10 ** 30)},
    {"level": _Level.LOW, "n": 2},
    {"level": _Level.LOW},
    {"x": _Real(0.1), "y": 0.1},
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "neg0": -0.0,
     "tiny": 5e-324, "third": 1 / 3},
    {'q"uo\\te\n': 'v"a\\l\tue\r\x00\x1f\x7f', "\x01": "\u2028é"},
    {'say "hi"': 'a "quoted" value', "back\\slash": "c:\\dir", "plain": ""},
    ['only "quotes"', "only \\ backslash", "tab\tonly"],
    {1: "int key", 2.5: "float key", None: "none key", True: "bool key"},
    {_Level.LOW: 1.0},
    {"empty": {}, "nested": {"a": 1.5, "b": None}, "list": [1, {"c": "d"}, []]},
    {"only": {}},
    {"only": []},
    [{"a": 1}, {"b": [0.5, None]}, {}],
    {"outer": {"inner": {"leaf": "x"}}},
    {"predicate": "T1_F_in_S", _Name("verdict"): "Holds"},
    {"predicate": "T1_F_in_S", "verdict": _Name("Holds")},
])
def test_flat_dicts_print_what_the_general_writer_prints(obj):
    assert dumps_canonical(obj) == _general(obj)


def test_a_str_subclass_never_reuses_the_head_of_its_equal_str():
    dumps_canonical({"verdict": "Holds"})
    assert dumps_canonical({_Name("verdict"): "Holds"}) == '{\n  "renamed": "Holds"\n}'
    assert dumps_canonical({"verdict": _Name("Holds")}) == '{\n  "verdict": "Holds"\n}'


def test_equal_keys_of_other_types_never_reuse_a_head():
    # 1, True and 1.0 are one dict key, but each prints as its own type
    dumps_canonical({"1": "str key"})
    for obj, text in [({1: "v"}, '{\n  "1": "v"\n}'),
                      ({True: "v"}, '{\n  "True": "v"\n}'),
                      ({1.0: "v"}, '{\n  "1.0": "v"\n}'),
                      ({1: "v"}, '{\n  "1": "v"\n}')]:
        assert dumps_canonical(obj) == _general(obj) == text
    assert not any(type(key) is not str for key in serialize._HEADS)


_Point = collections.namedtuple("_Point", "x y")


@pytest.mark.parametrize("obj", [
    collections.OrderedDict([("b", 1.5), ("a", [collections.OrderedDict(c=None)])]),
    {"outer": collections.OrderedDict(), "list": [collections.OrderedDict(z=True)]},
    {"argmax": _Point(0.25, -0.0), "nested": {"p": _Point(_Level.LOW, "y")}},
    [_Point(1, [2.5]), _Point((), {})],
    {"outer": {_Level.LOW: "int key", _Name("verdict"): _Name("Holds"), "k": 1}},
    {"outer": [{_Name("a"): {_Level.LOW: _Real(0.5)}}]},
], ids=["OrderedDict", "empty-OrderedDict", "namedtuple", "namedtuple-list",
        "subclass-keys", "deep-subclass-keys"])
def test_nested_subclasses_print_what_the_general_writer_prints(obj):
    # each takes the writer of the first class in its MRO that has one
    assert dumps_canonical(obj) == _general(obj)


def test_the_kept_heads_stop_at_their_cap(monkeypatch):
    monkeypatch.setattr(serialize, "_HEADS", {})
    cap = serialize._HEADS_CAP
    keys = [f"key {i}" for i in range(cap + 40)]
    for i in range(0, len(keys), 7):
        obj = {key: i + 0.5 for key in keys[i:i + 7]}
        assert dumps_canonical(obj) == _general(obj)
    assert len(serialize._HEADS) == cap
    # a dict whose keys are all kept still reuses their heads past the cap,
    # and a key that no longer fits is quoted on each write
    for obj in ({keys[0]: 1.5, keys[cap - 1]: None}, {keys[0]: 1.5, keys[-1]: "x"},
                {"a new key": True}):
        assert dumps_canonical(obj) == _general(obj)
    assert len(serialize._HEADS) == cap


def test_a_subclass_value_takes_the_isinstance_chain():
    # type(x) is float fails for the subclass, which still prints as a float,
    # not through its own repr
    assert dumps_canonical({"x": _Real(0.5)}) == '{\n  "x": 0.5\n}'


_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(alphabet=st.characters(max_codepoint=0x2100), max_size=8))
_keys = st.text(max_size=6) | st.integers(-5, 5) | st.booleans()
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_keys, inner, max_size=5), max_leaves=20)


@given(_values)
def test_canonical_writer_matches_the_general_writer(obj):
    assert dumps_canonical(obj) == _general(obj)
