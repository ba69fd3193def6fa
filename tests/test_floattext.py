"""The numpy decimal formatter writes exactly Python's own text, value by value: ``"%d"`` for
integers, ``format(x, ".17g")`` and ``repr(x)`` for doubles, with the certificate deciding
which values keep their numpy digits and Python deciding the rest."""

import math
import re
import string
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from circledirac import floattext, spectrum

STYLES = {"g17": lambda v: format(v, ".17g"), "repr": repr}


def _texts(values, style):
    """Each double's text through rows_text, one per line."""
    values = np.asarray(values, dtype=float)
    return floattext.rows_text([(style, values)], ["", "\n"]).split("\n")[:-1]


def _assert_python_text(values):
    values = np.asarray(values, dtype=float)
    for style, python in STYLES.items():
        got = _texts(values, style)
        assert len(got) == values.size
        bad = [(v, g) for v, g in zip(values.tolist(), got) if g != python(v)]
        assert bad == [], style


def _count_arbiter(monkeypatch):
    """Wrap the arbiter; the list it returns gets the value count of each call."""
    calls, arbiter = [], floattext._python_text

    def counted(values, style):
        calls.append(len(values))
        return arbiter(values, style)

    monkeypatch.setattr(floattext, "_python_text", counted)
    return calls


def _neighbours(values):
    """The values with the doubles just below and just above each."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def _count_outside_band(values):
    """The count of nonzero values outside the band the formatter writes natively."""
    magnitudes = np.abs(np.asarray(values, dtype=float))
    return int(np.count_nonzero(~((floattext._LOW <= magnitudes) & (magnitudes < floattext._HIGH))
                                & (magnitudes != 0.0)))


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])


def test_seeded_doubles_over_every_exponent():
    # 200 000 doubles with uniformly random bits: every exponent, both signs, subnormals
    bits = np.random.default_rng(60).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_python_text(values[np.isfinite(values)])


def test_seeded_doubles_of_every_decimal_exponent():
    rng = np.random.default_rng(61)
    mantissa = rng.uniform(1.0, 10.0, 40_000)
    exponent = rng.integers(-307, 308, 40_000)
    _assert_python_text(np.concatenate([mantissa * 10.0 ** exponent, rng.uniform(0, 1, 20_000)]))


def test_zeros_and_subnormals():
    tiny = np.arange(1, 5001, dtype=np.int64).view(np.float64)
    subnormals = np.random.default_rng(62).integers(1, 2 ** 52, 20_000).view(np.float64)
    smallest_normal = np.float64(2.2250738585072014e-308).view(np.int64)
    edge = (smallest_normal + np.arange(-2000, 2000)).view(np.float64)
    values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324], tiny, -tiny[:100], subnormals, edge])
    _assert_python_text(values)
    assert _texts([0.0, -0.0], "g17") == ["0", "-0"]
    assert _texts([0.0, -0.0], "repr") == ["0.0", "-0.0"]


def test_powers_of_two_and_ten_and_their_neighbours():
    values = _neighbours(np.concatenate([POWERS_OF_TWO, POWERS_OF_TEN]))
    _assert_python_text(np.concatenate([values, -values]))


def test_values_that_round_up_to_the_next_power_of_ten():
    # the largest double below each power of ten: some round to 10^k in 17 digits, and
    # most read back as 10^k in repr
    below = [x if Fraction(x) < Fraction(10) ** k else math.nextafter(x, 0.0)
             for k, x in zip(range(-323, 309), POWERS_OF_TEN.tolist())]
    rounded = [x for x in below if format(x, ".17g").startswith("1e")]
    shortest = [x for x in below if repr(x).startswith("1e")]
    assert len(rounded) >= 10 and len(shortest) >= 250
    _assert_python_text(below + [9.9999999999999995e-5, 99999999999999999.0, 0.99999999999999999])


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e15, 1e16, 1e17])
def test_fixed_and_exponent_form_switch_where_python_switches(edge):
    # %g switches from fixed form at 1e-4 and 1e17, repr at 1e-4 and 1e16
    values = [edge * m for m in (1.0, 1.5, 9.999, 0.5, 0.9999999999999999)]
    values += np.nextafter(np.repeat(edge, 3), [0.0, np.inf, np.inf]).tolist()
    _assert_python_text(values + [-v for v in values])


def test_domain_edges_and_non_finite_values():
    largest = np.finfo(float).max
    values = [largest, -largest, np.nextafter(largest, 0.0), math.inf, -math.inf, math.nan]
    _assert_python_text(values)


def test_only_the_band_is_written_natively(monkeypatch):
    # every nonzero double outside [_LOW, _HIGH) goes to the arbiter, and nothing else here
    low, high = floattext._LOW, floattext._HIGH
    edges = [low, high, np.nextafter(low, 0.0), np.nextafter(low, np.inf),
             np.nextafter(high, 0.0), np.nextafter(high, np.inf)]
    subnormals = [5e-324, 2.2250738585072014e-308 / 3, np.nextafter(2.2250738585072014e-308, 0)]
    values = np.array(edges + subnormals + [np.finfo(float).max, 1.0, 0.0])
    values = np.concatenate([values, -values])
    calls = _count_arbiter(monkeypatch)
    _assert_python_text(values)
    # each sign: below _LOW, _HIGH and above it, three subnormals and the largest double
    outside = 2 * 7
    assert _count_outside_band(values) == outside
    assert sum(calls) == 2 * outside


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_the_estimate_never_decides_a_digit(offset, monkeypatch):
    # the exponent estimate patched to the exact floor(log10 x) plus an offset: one too low
    # is corrected by scaling again, and any other error leaves y outside [10^16, 10^17]
    # (but where y rounds to 10^17 after the second scaling), so the value goes to the
    # arbiter
    values = np.concatenate([_neighbours(POWERS_OF_TEN[::7]),
                             np.random.default_rng(67).uniform(0, 1, 500) * 1e-3])
    monkeypatch.setattr(floattext, "_estimate", lambda ax: np.array(
        [Decimal(v).adjusted() + offset for v in ax.tolist()]))
    calls = _count_arbiter(monkeypatch)
    _assert_python_text(values)
    outside = 2 * _count_outside_band(values)
    if offset == -1:
        assert sum(calls) == outside
    elif offset == 0:
        # y = 10^16 exactly is certified only where the power of ten scaling it is exact
        powers = [v for v in values.tolist() if Fraction(v) == 10 ** Decimal(v).adjusted()]
        assert sum(calls) == 2 * sum(v > 1e16 for v in powers) + outside > outside
    else:
        assert sum(calls) > 2 * values.size * 0.95


def test_forced_arbiter_gives_the_same_bytes(monkeypatch):
    # a certificate width of infinity, with no power of ten taken as exact, certifies
    # nothing, so every nonzero value goes to Python
    values = np.concatenate([
        np.random.default_rng(63).integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64),
        _neighbours(POWERS_OF_TEN), [0.0, -0.0]])
    values = values[np.isfinite(values)]
    want = {style: _texts(values, style) for style in STYLES}
    calls = _count_arbiter(monkeypatch)
    his, los, exact = floattext._powers()
    monkeypatch.setattr(floattext, "_WIDTH", math.inf)
    monkeypatch.setattr(floattext, "_powers", lambda: (his, los, exact & False))
    for style in STYLES:
        assert _texts(values, style) == want[style]
    nonzero = np.count_nonzero(values)
    assert sum(calls) == 2 * nonzero


def test_tables_never_reach_the_arbiter(monkeypatch):
    # the certificate covers every value of 100 x 101 tables at 24 random couplings
    calls = _count_arbiter(monkeypatch)
    for alpha in np.random.default_rng(64).uniform(0.0, 1.0, 24).tolist():
        table = spectrum.spectrum_table(alpha, 510998.9461, 100, 100)
        spectrum.lines_to_csv(table)
        spectrum.lines_to_json(table)
    assert calls == []


def test_scaled_value_error_bound():
    # hi + lo errs from x*10^(16-E) by at most 2^-47 (2^-104 of y < 2^57), measured exactly
    # on random doubles of the band and its edges, and the bound is within a factor 16 of the
    # worst error seen
    rng = np.random.default_rng(65)
    values = np.abs(rng.integers(1, 2 ** 63, 3000, dtype=np.int64).view(np.float64))
    values = values[(floattext._LOW <= values) & (values < floattext._HIGH)]
    values = np.concatenate([values, [floattext._LOW, np.nextafter(floattext._HIGH, 0.0), 0.1]])
    E = np.array([int(format(v, ".16e").split("e")[1]) for v in values.tolist()])
    hi, lo, *_ = floattext._scaled(values, E)
    worst = max(abs(Fraction(h) + Fraction(l) - Fraction(v) * Fraction(10) ** (16 - e))
                for h, l, v, e in zip(hi.tolist(), lo.tolist(), values.tolist(), E.tolist()))
    bound = Fraction(1, 2 ** 47)
    assert bound / 16 < worst <= bound
    assert floattext._WIDTH >= 2.0 ** -46 * 32


def test_power_table_words_are_nearest():
    his, los, exact = floattext._powers()
    for e, hi, lo, is_exact in zip(range(floattext._E_MIN, floattext._E_MAX + 1),
                                   *(x.tolist() for x in (his, los, exact))):
        power = Fraction(10) ** (16 - e)
        assert hi == float(power) and lo == float(power - Fraction(hi))
        assert is_exact == (Fraction(hi) == power)
    assert exact.sum() == 23    # 10^0 to 10^22, for E from 16 down to -6


@pytest.mark.parametrize("column", [
    np.array([0, 1, 9, 10, 99, 100, 12345, 10 ** 16, 10 ** 17 - 1]),
    np.arange(0, 30000, 7, dtype=np.uint32),
    # every value of the word table, at each width from 1 to 4 digits that it fits
    *(np.arange(10 ** width) for width in range(1, 5)),
    # one field a line: the table's width edge, the edge of one word and the widest field
    np.array([[9999, 0, 7], [10000, 1, 0], [99999999, 0, 42], [10 ** 8, 9, 1],
              [10 ** 17 - 1, 0, 10 ** 16]]),
])
def test_integers_are_percent_d(column):
    fields = [("d", c) for c in np.atleast_2d(column)]
    text = floattext.rows_text(fields, ["<", *"," * (len(fields) - 1), ">"], sep="|")
    rows = zip(*(c.tolist() for _, c in fields))
    assert text == "|".join("<%s>" % ",".join("%d" % n for n in row) for row in rows)


@pytest.mark.parametrize("column", [
    np.array([10 ** 17, 3]),
    np.array([-5, 0, 7]),
    np.array([2 ** 70, -(2 ** 70)], dtype=object),
    np.array([1.0, 2.0]),
])
def test_integers_outside_the_bound_are_refused(column):
    with pytest.raises(ValueError, match=r"\[0, 10\*\*17\)"):
        floattext.rows_text([("d", column)], ["<", ">"])


@pytest.mark.parametrize("fields, lengths", [
    ([("d", np.arange(3)), ("repr", np.array([1.5, 2.5]))], "[3, 2]"),
    ([("repr", np.array([1.5, 2.5])), ("d", np.arange(3))], "[2, 3]"),
    ([("g17", np.array([1.5])), ("g17", np.array([])), ("d", np.arange(1))], "[1, 0, 1]"),
])
def test_columns_of_unequal_length_are_refused(fields, lengths):
    with pytest.raises(ValueError, match=rf"^columns must have one length, got lengths "
                                         rf"{re.escape(lengths)}$"):
        floattext.rows_text(fields, ["", *"," * (len(fields) - 1), "\n"])


@pytest.mark.parametrize("literals, message", [
    # 16 fields with 18 literals once dropped a middle literal without a word
    (["<", *"," * 16, ">"], "16 fields need 17 literals, got 18"),
    (["<", *"," * 14, ">"], "16 fields need 17 literals, got 16"),
])
@pytest.mark.parametrize("rows", [0, 3])
def test_literal_count_is_one_more_than_fields(literals, message, rows):
    fields = [("repr", np.arange(rows, dtype=float))] * 16
    with pytest.raises(ValueError, match=rf"^{message}$"):
        floattext.rows_text(fields, literals)


def test_rows_across_chunks_with_literals():
    rng = np.random.default_rng(66)
    rows = 3 * floattext._CHUNK // 2 + 17
    n, x, y = rng.integers(0, 1000, rows), rng.normal(size=rows), rng.uniform(-1e-6, 1e6, rows)
    fields = [("d", n), ("repr", x), ("g17", y), ("repr", -x)]
    text = floattext.rows_text(fields, ["{", ": ", " | ", ", ", "}"], head="<", sep="\n", tail=">")
    want = "<" + "\n".join("{%d: %r | %.17g, %r}" % (a, b, c, -b)
                               for a, b, c in zip(n.tolist(), x.tolist(), y.tolist())) + ">"
    assert text == want
    empty = [("d", n[:0]), ("repr", x[:0])]
    assert floattext.rows_text(empty, ["(", ",", ")"], "[", ", ", "]") == "[]"


@pytest.mark.parametrize("roll", range(3))
def test_literals_of_every_length_keep_word_alignment(roll):
    # literals of 0 to 17 bytes, each beside every style in one of the three rolls, over rows
    # that cross two chunk boundaries; every style has at most 6 columns, so a chunk holds
    # _CHUNK // 6 rows
    rng = np.random.default_rng(69 + roll)
    styles = (["d", "g17", "repr"] * 7)[roll:roll + 17]
    rows = 2 * (floattext._CHUNK // 6) + 5
    literals = [string.ascii_letters[k:2 * k] for k in range(18)]
    highs = iter([10, 10 ** 4, 10 ** 5, 10 ** 8, 10 ** 9, 10 ** 17])
    special = [0.0, -0.0, 5e-324, -math.inf, math.nan, 1e300, 2.0 ** 60]
    columns = []
    for style in styles:
        if style == "d":
            columns.append(rng.integers(0, next(highs), rows))
            continue
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows)
        x[rng.integers(0, rows, 40)] = rng.choice(special, 40)
        columns.append(x)
    text = floattext.rows_text(list(zip(styles, columns)), literals, "[", ", ", "]")
    python = {"d": lambda n: "%d" % n, **STYLES}
    want = ["".join(literal + python[style](v) for literal, style, v in zip(literals, styles, row))
            + literals[-1] for row in zip(*(c.tolist() for c in columns))]
    assert text == "[" + ", ".join(want) + "]"
