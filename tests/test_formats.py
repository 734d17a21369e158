"""The package's own INI reader and JSON writer against the standard
library's ``configparser`` and ``json``, which the CLI no longer loads.

The INI reader must accept every text of the grammar in
``resrelax.config``'s docstring, and whenever it accepts a text,
``configparser`` (as the CLI used to configure it) must accept it too
with the same sections, keys and raw values; its deliberate refusals
(a ``[DEFAULT]`` section, a malformed header) are the only texts where
the two part.  The JSON writer must give the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` for the types the
commands emit.  Examples are drawn deterministically
(``derandomize=True``).
"""

import configparser
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resrelax import ConfigError
from resrelax.cli import _json_text
from resrelax.config import _read_ini

FORMATS = settings(derandomize=True, deadline=None, max_examples=300)


def stdlib_ini(text):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.read_string(text)
    return {name: {key: parser.get(name, key) for key in parser.options(name)}
            for name in parser.sections()}


def package_ini(text):
    return _read_ini(io.StringIO(text), "<text>")


# ---------------------------------------------------------------------------
# a generator of the documented grammar

NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True).filter(
    lambda name: name != "default")
# a value's text has no whitespace, so a "#" in it starts no comment
# unless it comes first (after "= "), and a leading "#" or ";" would
# make a continuation line a comment line
VALUE_TEXT = st.text(alphabet="abcXYZ019.,-+()[]'\"=:;#j", max_size=10).map(
    lambda text: text.lstrip("#;"))
DELIMITERS = st.sampled_from(["=", " = ", ":", " : ", "= ", "\t=\t", " :"])
FILLERS = st.sampled_from(["", "   ", "# a comment", "; a comment",
                           "  # indented comment", "\t; tab comment"])
INLINE = st.sampled_from(["", " # inline", "\t# inline # twice"])


@st.composite
def grammar_texts(draw):
    """(text, expected sections) from the documented grammar."""
    lines, expected = [], {}
    for section in draw(st.lists(NAMES, min_size=1, max_size=4,
                                 unique=True)):
        lines.append(draw(FILLERS))
        lines.append("[%s]%s" % (section, draw(INLINE)))
        expected[section] = {}
        # a key indented deeper than the one before would continue it
        indent = " " * draw(st.integers(0, 2))
        for key in draw(st.lists(NAMES, max_size=4, unique=True)):
            spelled = "".join(c.upper() if draw(st.booleans()) else c
                              for c in key)
            first = draw(VALUE_TEXT)
            lines.append("%s%s%s%s%s" % (indent, spelled, draw(DELIMITERS),
                                         first, draw(INLINE)))
            parts = [first]
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.booleans()):
                    filler = draw(FILLERS)
                    lines.append(filler)
                    if not filler.strip():
                        parts.append("")
                more = draw(VALUE_TEXT)
                if not more:
                    continue
                lines.append("%s%s%s%s" % (
                    indent, draw(st.sampled_from([" ", "  ", "\t", "    "])),
                    more, draw(INLINE)))
                parts.append(more)
            expected[section][key] = "\n".join(parts).rstrip()
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), \
        expected


@FORMATS
@given(grammar_texts())
@example(("[system]\nlevels = [(\"g\", -0.5), (\"e\", 0.5)]\n"
          "coupling_ops = [[[0, -0.5j],\n\n    # a comment\n"
          "                 [0.5j, 0]]]  # matrix\n",
          {"system": {"levels": "[(\"g\", -0.5), (\"e\", 0.5)]",
                      "coupling_ops": "[[[0, -0.5j],\n\n[0.5j, 0]]]"}}))
def test_grammar_is_accepted_as_configparser_reads_it(case):
    text, expected = case
    assert package_ini(text) == expected == stdlib_ini(text)


# any text of INI-significant characters: what the reader accepts,
# configparser accepts the same way
FRAGMENTS = st.sampled_from([" ", "  ", "\t", "\r", "\x0c", "\xa0", "[", "]",
                             "=", ":", "#", ";", "a", "B", "0", "-", "[s]",
                             "[t]", "a = 1", "B: x", " # c", "DEFAULT"])
RANDOM_LINES = st.lists(st.one_of(
    st.sampled_from(["[s]", "[t]", "a = 1", "A: 2 # c", "  b=", " x", "",
                     "  ", "; c"]),
    st.lists(FRAGMENTS, max_size=4).map("".join)), max_size=8).map("\n".join)


@settings(FORMATS, max_examples=1000)  # most such texts are refused
@given(st.one_of(RANDOM_LINES, RANDOM_LINES.map(lambda t: "[s]\n" + t)))
@example("[s]\na = 1 #x\n b\n\n  c\n")
@example("[s]\n  a = 1\n b = 2\n")
@example("[s]\na=1\n [t]\n")
@example("[s]]\na:b = c#d\n")
def test_accepted_text_reads_as_configparser_reads_it(text):
    try:
        sections = package_ini(text)
    except ConfigError:
        return
    assert sections == stdlib_ini(text)


@pytest.mark.parametrize("text, line, what", [
    ("[DEFAULT]\nx = 1\n[s]\n", 1, "[DEFAULT] section is not supported"),
    ("[s]\nx = 1\n\nX = 2\n", 4, "duplicate key s.x"),
    ("[s]\n[t]\n[s]\n", 3, "duplicate section [s]"),
    ("# comment\nx = 1\n[s]\n", 2, "key before the first [section]"),
    ("[s]\nx = 1\nnot a key\n", 3, "no '=' or ':'"),
    ("[s]\n = 1\n", 2, "empty key"),
    ("[s] # ok\n[t] trailing\n", 2, "malformed section header"),
    ("[s]\n[]\n", 2, "malformed section header"),
], ids=["default", "duplicate-key", "duplicate-section", "no-section",
        "no-delimiter", "empty-key", "trailing", "empty-header"])
def test_refusals_name_the_line(text, line, what):
    with pytest.raises(ConfigError) as info:
        package_ini(text)
    message = str(info.value)
    assert message.startswith("cannot parse <text>: ")
    assert what in message and message.endswith(" at line %d" % line)


# ---------------------------------------------------------------------------
# JSON

SCALARS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(-2 ** 70, 2 ** 70),
    st.booleans(), st.none(),
    st.text(st.characters(max_codepoint=0x10FFFF), max_size=6),
    st.sampled_from(["\x00\x1f\x7f\"\\/\b\f\n\r\t", "é \ud83d",
                     "\U0001f600", "𐏿"]))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@FORMATS
@given(DOCUMENTS)
@example({"nan": math.nan, "inf": [math.inf, -math.inf], "empty": [{}, []],
          "f64": np.float64(0.1), "zero": -0.0})
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [np.int64(1), {"a": np.bool_(True)},
                                 [1j], b"x", {1, 2}, object()],
                         ids=["int64", "bool_", "complex", "bytes", "set",
                              "object"])
def test_json_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_text(obj)
