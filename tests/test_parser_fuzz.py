"""Hypothesis fuzzing of the seed, form and point file parsers.

Each input is line soup built from the parser's own grammar: its keywords,
``gen``, ``;``, ``#``, parentheses, ``^-``, primed names and one-digit
numbers, both in the shape of a valid line and shuffled.  Whatever the
text, a parser returns or raises the shared file error (``SeedFileError``,
``FormFileError`` and ``PointFileError`` name one class) with a one-line
message; nothing else may escape.  Exponents stay one digit: the size of
exponent literals is not bounded yet.  A last test pins the line numbers
that the shared reader gives past comments, blank lines and CRLF endings,
another that point files and expressions take names by ``VarTable``'s
rule, and one that all three readers take ASCII digits only.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterwp.exact import GaussianParseError, parse_gaussian
from clusterwp.exprs import ExprError, _tokenize, parse_expression
from clusterwp.forms import FormFileError, parse_form_file
from clusterwp.laurent import VarTable
from clusterwp.regularity import PointFileError, parse_point_file
from clusterwp.seeds import ExchangeMatrix, Seed, SeedFileError, parse_seed_file

SL2 = Seed.initial(ExchangeMatrix(1, 3, ((0, 1, 1),)), ("x", "c1", "c2"))
A3 = Seed.initial(ExchangeMatrix(3, 3, ((0, 1, 0), (-1, 0, 1), (0, -1, 0))),
                  ("x13", "x14", "x15"))

DIGITS = tuple("0123456789") + ("\u00b2", "\u0661")   # superscript two, Arabic-Indic one
NAMES = ("x", "x'", "x''", "c1", "c2", "x13", "x14", "x15", "x24", "x24'",
         "g", "g'", "i", "1x", "x-y")
OPERATORS = ("(", ")", "^", "^-", "-", "+", "*", "/")
SYMBOLS = ("#", ";", "=", "gen", "'", "@") + OPERATORS


def soup(*pools, max_size=7):
    """Space-joined tokens drawn from the pools."""
    tokens = st.sampled_from(tuple(t for pool in pools for t in pool))
    return st.lists(tokens, max_size=max_size).map(" ".join)


def text_of(lines):
    return st.lists(lines, max_size=6).map("\n".join)


seed_lines = st.one_of(
    st.tuples(st.sampled_from(("rank", "mutable", "names", "row", "#")),
              soup(DIGITS, ("-1", "-2", "+1", "--1", "1.5"), NAMES, max_size=4))
    .map(" ".join),
    soup(("rank", "mutable", "names", "row"), DIGITS, NAMES, SYMBOLS),
)


@st.composite
def shaped_seed_texts(draw):
    """Seed files whose lines come in order and whose counts mostly agree."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n))
    entries = st.lists(st.sampled_from(("0", "1", "-1", "2", "-2", "x")),
                       min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=min(m, 1), max_size=m))
    return "\n".join([f"rank {n}", f"mutable {m}", "names " + " ".join(names)]
                     + ["row " + " ".join(row) for row in rows])


seed_texts = st.one_of(shaped_seed_texts(), text_of(seed_lines))

expressions = soup(DIGITS, NAMES, OPERATORS)
form_lines = st.one_of(
    st.builds("gen {} = {}".format, st.sampled_from(NAMES), expressions),
    st.builds("{} ; {} ; {}".format, expressions, st.sampled_from(NAMES),
              st.sampled_from(NAMES)),
    soup(DIGITS, NAMES, SYMBOLS),
)

LITERALS = ("0", "1", "-1", "1/2", "1/0", "i", "-i", "2+3i", "1-i", "3i", "i/2",
            "1/2+i", "--1")
point_lines = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(NAMES), st.sampled_from(LITERALS)),
    soup(DIGITS, NAMES, LITERALS, ("=", "#", "+", "/")),
)


def parses_or_raises(error, parse, *args):
    try:
        parse(*args)
    except error as exc:
        assert "\n" not in str(exc)


@settings(max_examples=300, deadline=None)
@given(seed_texts)
@example("rank 2\nmutable 2\nnames x x'\nrow 0 1\nrow -1 0")
@example("rank 9\nmutable 9\nnames x")
@example("rank \u00b2\nmutable 1\nnames x\nrow 0")
def test_seed_file_parser_fuzz(text):
    parses_or_raises(SeedFileError, parse_seed_file, text, "fuzz.seed")


@pytest.mark.parametrize("chart", [SL2, A3], ids=["sl2", "a3"])
@settings(max_examples=200, deadline=None)
@given(text=text_of(form_lines))
@example(text="gen x' = ( c1 * c2 + 1 ) / x\n1 / ( c1 * c2 ) ; x ; x'")
@example(text="gen g = x - x\ng ^- 1 ; x ; c1")
@example(text="0 ^- 1 ; x ; c1")
def test_form_file_parser_fuzz(chart, text):
    parses_or_raises(FormFileError, parse_form_file, text, chart, "fuzz.form")


@settings(max_examples=300, deadline=None)
@given(text_of(point_lines))
@example("x = 1\nx' = 1/0")
def test_point_file_parser_fuzz(text):
    parses_or_raises(PointFileError, parse_point_file, text, "fuzz.point")


@pytest.mark.parametrize("parse, text", [
    (parse_seed_file, "# A_1\n\nrank 1\r\nrank 1\n"),
    (lambda text, filename: parse_form_file(text, SL2, filename),
     "# sl2\n\n1 ; x ; c1\r\npfft\n"),
    (parse_point_file, "# origin\n\nx = 0\r\nx := 1\n"),
], ids=["seed", "form", "point"])
def test_file_errors_count_comment_blank_and_crlf_lines(parse, text):
    with pytest.raises(SeedFileError) as exc:
        parse(text, "f")
    assert (exc.value.filename, exc.value.line) == ("f", 4)
    assert str(exc.value) == f"f:4: {exc.value.reason}"
    assert SeedFileError is FormFileError is PointFileError


@settings(max_examples=300, deadline=None)
@given(st.text("abxXZ019_'i\u00e9", max_size=4))   # with one non-ASCII letter
def test_names_follow_the_vartable_rule(name):
    """A point file takes ``name``, and an expression reads it as one
    identifier token, exactly when VarTable does; an expression also reads
    ``i``, as the imaginary unit."""
    try:
        VarTable([name])
        valid = True
    except ValueError:
        valid = False
    try:
        taken = parse_point_file(f"{name} = 1\n") == {name: 1}
    except PointFileError as exc:
        assert exc.reason == f"bad variable name {name!r}"
        taken = False
    try:
        one_identifier = _tokenize(name) == [("ident", name, 1)]
    except ExprError:
        one_identifier = False
    assert taken == valid
    assert one_identifier == (valid or name == "i")


# a numeral of one to three digits with at least one non-ASCII decimal digit
unicode_numerals = st.lists(
    st.one_of(st.characters(categories=["Nd"]), st.sampled_from("0123456789")),
    min_size=1, max_size=3).map("".join).filter(lambda text: not text.isascii())


@settings(max_examples=200, deadline=None)
@given(unicode_numerals)
@example("\u0662")        # Arabic-Indic two
@example("1\uff10")       # fullwidth zero
def test_only_ascii_digits_are_numbers(numeral):
    """``int`` and ``Fraction`` read every Unicode decimal digit; the
    expression, literal and seed readers reject a numeral with a non-ASCII
    one, each with its own diagnostic."""
    with pytest.raises(ExprError) as exc:
        parse_expression(f"x^{numeral}", VarTable(["x"]))
    assert exc.value.message.startswith("unexpected character")
    for literal in (numeral, f"{numeral}/3", f"1/{numeral}", f"1+{numeral}i"):
        with pytest.raises(GaussianParseError, match="not a Gaussian-rational literal"):
            parse_gaussian(literal)
    with pytest.raises(SeedFileError, match="rank must be a single integer"):
        parse_seed_file(f"rank {numeral}\nmutable 1\nnames x\nrow 0\n")
    with pytest.raises(SeedFileError, match="is not an integer"):
        parse_seed_file(f"rank 2\nmutable 1\nnames x c\nrow 0 {numeral}\n")
