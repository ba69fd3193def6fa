"""Python's own decimal text for arrays of doubles and integers, in one numpy pass.

:func:`rows_text` writes a table whose columns are numpy arrays, row by
row between literal strings, with every number spelt exactly as Python
spells it: an integer in [0, 10^17) as ``"%d"``, a double as
``format(x, ".17g")`` (the ``g17`` style) or as ``repr(x)`` (the ``repr``
style, which ``json.dumps`` writes for a finite float).  The columns are
converted a chunk of rows at a time, the text of a chunk is one byte
buffer, decoded once, and :func:`_chunks` yields each chunk's text as soon
as it is decoded, so that a caller can write a table without holding its
text.

Digits.  A double in the band 1e-250 <= |x| < 1e250 with decimal exponent
E (10^E <= |x| < 10^(E+1)) scales to y = |x|*10^(16-E) in [10^16, 10^17).
y is evaluated as a double-word hi + lo: |x| times the double-word nearest
10^(16-E), by Dekker's TwoProduct, whose operands and partial products
all stay normal in the band.  The table of powers is built once from
exact integers, each word correctly rounded by Python's ``int / int``;
the pass uses only real ``+ - *``, ``rint``, ``floor``, ``ceil`` and
integer operations, which give the same bits at every SIMD dispatch
level.  E comes from ``np.log10`` lowered by 1e-9, an estimate at most
one below the exponent: where round(y) then exceeds 10^17, the value is
scaled again at E + 1, and a y below 10^16 is refused, so the estimate
never decides a digit.  round(y) = 10^17 means the value rounds up to the
next power of ten.

* ``g17``: the digits are those of round(y), the correctly rounded 17
  digits of David Gay's ``dtoa`` (Gay, "Correctly rounded binary-decimal
  and decimal-binary conversions", 1990), which Python calls; an exact
  tie rounds to even, as ``dtoa`` does.
* ``repr``: the shortest digits that read back as x (Steele & White, "How
  to print floating-point numbers accurately", PLDI 1990), by one rule.
  With [A, B] x's rounding interval in the units of y, j is the largest
  power of ten with a multiple in [A, B], found by dividing both ends by
  ten until their quotients meet, and the digits are those of the
  multiple of 10^j nearest y, moved into [A, B] if it lies outside.  That
  is Python's rule also at powers of two, whose interval is lopsided.

The certificate.  hi + lo errs from y by at most 2^-104*y < 2^-47: the
table's words by 2^-106 relative, and the product by the roundings of
its low word.  Where the table's power is exact (10^0 to 10^22), y is
exact.  The interval's half-gaps are exact powers of two times the
table's words, whose products are exact; each end is taken as an exact
integer plus a part under 3, rounded twice.  A value keeps its digits
only when each decision lies further than _WIDTH = 2^-40 from its
boundary: for ``g17`` round(y) from the half-integers, unless y is exact;
for ``repr`` both ends of the interval from the integers and y from the
nearer midpoint between multiples of 10^j.

The arbiter.  Every other value goes to Python's own ``format(x,
".17g")`` or ``repr(x)``, :func:`_python_text`: those the certificate
leaves (in practice ``repr``'s exact cases: a tie between candidates, or
an interval end on the grid, as for every double in [2^52, 10^17)), and
every nonzero value outside the band: non-finite values, subnormals and
the doubles below 1e-250 or from 1e250 up, which no spectrum table holds.  Zeros are
written natively with their sign.  So every byte is Python's.

Layout.  A double's text is its sign and prefix (``0.``, ``0.0``, ...),
its digits with the point among them, and its exponent suffix, in five
words of zero-padded bytes, whose masks come from tables indexed by the
exponent and the number of digits.  Fixed and exponent form switch where
Python's do: fixed for -4 <= E < 17 in ``g17`` and -4 <= E < 16 in
``repr``, trailing zeros dropped, ``repr`` adding ``.0`` to an integer,
and an exponent of at least two digits with its sign.  A chunk of rows is
one buffer of 8-byte words, a row at a time: each literal right-aligned
in whole words after NUL bytes, each integer likewise (a column below
10^4 from one gather on a table of words), and each double's five words
assigned as a column.  Every zero byte, of the doubles' words and of the
NUL padding alike, is dropped in one ``bytes.translate``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .doubleword import _fast_two_sum, _two_product

__all__: list[str] = []

# The band of magnitudes written natively, besides zeros
_LOW, _HIGH = 1e-250, 1e250
# The decimal exponents the power table covers: the band's, -250 to 249, with one below
# for the estimate and room above for the correction
_E_MIN, _E_MAX = -251, 251
_TOP = 10 ** 17
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# The certificate's margin, in units of the last of 17 digits
_WIDTH = 2.0 ** -40
# Values formatted at a time: numpy's temporaries stay within 64 kB, where the allocator
# reuses them instead of mapping fresh pages.  The knee: 100 x 101 levels' CSV and JSON
# cost about 7% more at 4 000, 18% more at 16 000 and 44% more at 32 000.  Nothing else
# grows with the table: writing a 300 x 300 spectrum table chunk by chunk peaks at 1.8 MB
# (CSV) and 2.5 MB (JSON) of traced memory, where stacking its columns and joining its
# text peaked at 24.4 MB and 43.4 MB
_CHUNK = 8000
_WORD = np.dtype("<u8")
# the point's position among the digits when it has none
_NO_POINT = 24


@functools.cache
def _powers():
    """(hi, lo, exact) by E - _E_MIN: hi + lo nearest 10^(16-E), and whether hi is
    10^(16-E) exactly."""
    his, los, exact = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den
        p, q = hi.as_integer_ratio()
        rest = num * q - p * den
        his.append(hi)
        los.append(rest / (den * q))
        exact.append(rest == 0)
    return np.array(his), np.array(los), np.array(exact)


class _Tables(NamedTuple):
    """Words of text, and masks of 24-byte digit strings as three words a row."""

    quads: np.ndarray           # 4 digits by value
    ints: np.ndarray            # "%d" of 0 to 9999 right-aligned in a word, NUL in front
    prefixes: np.ndarray        # sign and "0.", "0.0", ... (see _layouts)
    suffixes: np.ndarray        # "e+XX" by exponent (see _layouts)
    body: list[np.ndarray]      # 9 words of masks by 25*written + point (see _layouts)
    lead: list[np.ndarray]      # 3 words keeping the last k of 17 digits, by k
    lasts: list[np.ndarray]     # 4 tables: the last nonzero digit's position (_significant)


@functools.cache
def _tables() -> _Tables:
    """The tables of :class:`_Tables`, built once."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T    # of 0000 to 9999
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, :4] = digits + 48

    def words(texts):
        return np.array([t.encode() for t in texts], dtype="S8").view(_WORD)

    # by 5*sign + characters before the digits of a fixed value below 1, less one
    prefixes = words([sign + ("0." + "0" * (k - 2) if k else "")
                      for sign in ("", "-") for k in (0, 2, 3, 4, 5)])
    # by exponent - _E_MIN, then one empty suffix for fixed form
    suffixes = words([f"e{e:+03d}" for e in range(_E_MIN, _E_MAX + 2)] + [""])
    # by 25*written + point, for the digits' bytes k: those before the point, those after it
    # (from the digits shifted up one byte) and the point itself
    k, written, point = np.arange(24), np.arange(19)[:, None, None], np.arange(25)[:, None]
    body = np.stack(((k < np.minimum(point, written)) * 255,
                     ((point < k) & (k <= written)) * 255,
                     ((k == point) & (point < written)) * 46))
    body = body.astype(np.uint8).reshape(3, -1, 24).view(_WORD)
    # by count of digits: the last that many of the 17 digits
    count = np.arange(18)[:, None]
    lead = (((17 - count <= k) & (k < 17)) * 255).astype(np.uint8).view(_WORD)
    # by digits 4k to 4k + 3: the position of the last nonzero one among the 17 (0 for 0)
    last = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    lasts = [np.where(last > 0, 4 * k + last, 0).astype(np.uint8) for k in range(4)]
    body = list(np.moveaxis(body, 2, 1).reshape(9, -1).copy())
    quads = quads.view(_WORD).ravel()
    # by value below 10^4, built on first use with the rest: "%d" at the word's end, the
    # digits moved to its last four bytes, and the bytes of the 3, 2, 1 or no leading zeros
    # of the 10, 90, 900 and 9 000 values of 1 to 4 digits cleared
    keep = np.repeat(~np.uint64(0) << np.array([56, 48, 40, 32], _WORD), [10, 90, 900, 9000])
    ints = quads << 32 & keep
    return _Tables(quads, ints, prefixes, suffixes, body, list(lead.T.copy()), lasts)


@functools.cache
def _layouts(shortest: bool):
    """(mask, prefix, suffix) indices of :func:`_tables` by (X - _E_MIN)*18 + L for a
    value of decimal exponent X with L digits, in the ``repr`` style if ``shortest``."""
    X, L = np.arange(_E_MIN, _E_MAX + 2)[:, None], np.arange(18)
    fixed = (X >= -4) & (X < 17 - shortest)
    point = fixed & (X >= 0)
    # digits written: also an integer's zeros up to its point, and the 0 of repr's ".0"
    written = np.where(point, np.maximum(L, X + 1 + shortest), L)
    # the point goes before digit `dot`, where digits follow it
    dot = np.where(point, X + 1, np.where(fixed, _NO_POINT, 1))
    dot = np.where(dot < written, dot, _NO_POINT)
    prefix = np.where(fixed & (X < 0), -X, 0)
    suffix = np.where(fixed, _E_MAX + 2 - _E_MIN, X - _E_MIN)
    return tuple(np.broadcast_to(index, written.shape).astype(np.int16).ravel()
                 for index in (25 * written + dot, prefix, suffix))


# the layout key of a zero, 0 or 0.0, with one digit at exponent 0
_ZERO = -_E_MIN * 18 + 1


def _groups(D) -> list[np.ndarray]:
    """Integers D in [0, 10^17) as their digits 0-3, 4-7, 8-11 and 12-15 and digit 16."""
    g0 = D // 10 ** 13
    r = D - g0 * 10 ** 13
    g1 = r // 10 ** 9
    r -= g1 * 10 ** 9
    g2 = r // 10 ** 5
    r -= g2 * 10 ** 5
    g3 = r // 10
    return [g0, g1, g2, g3, r - g3 * 10]


def _digit_words(groups) -> list[np.ndarray]:
    """The 17 decimal digits of :func:`_groups` as ASCII, 24 bytes in three words."""
    quads = _tables().quads
    g0, g1, g2, g3, g4 = groups
    return [quads[g0] | quads[g1] << 32, quads[g2] | quads[g3] << 32, (g4 + 48).astype(_WORD)]


def _significant(groups) -> np.ndarray:
    """The position of the last nonzero of the 17 digits of :func:`_groups` (0 for 0)."""
    length = (groups[4] > 0) * 17
    for last, g in zip(_tables().lasts, groups):
        np.maximum(length, last[g], out=length)
    return length


def _scaled(ax, E):
    """(hi, lo, t, tl, exact): y = ax*10^(16-E) as the double-word hi + lo, from the table's
    words t + tl; where the table's word t is exact (tl = 0), so is hi + lo."""
    his, los, exact = _powers()
    i = E - _E_MIN
    t, tl = his[i], los[i]
    p, e = _two_product(ax, t)
    return (*_fast_two_sum(p, e + ax * tl), t, tl, exact[i])


def _at_scale(ax, E, shortest):
    """(D, ok, above) for positive doubles ax at decimal exponent E.

    D is the 17-digit integer of the ``g17`` or, if ``shortest``, the
    ``repr`` digits of y = ax*10^(16-E); ok where the certificate holds and
    10^16 <= y and round(y) <= 10^17; above where round(y) > 10^17, so E is
    too small.
    """
    hi, lo, t, tl, exact = _scaled(ax, E)
    n = np.rint(lo)
    r = lo - n                        # exact, |r| <= 1/2
    Y = hi.astype(np.int64) + n.astype(np.int64)
    # round(y) > 10^17: E is too small, and Y may not even fit in 64 bits
    above = (hi > 1e17) | ((hi == 1e17) & (lo > 0.5))
    ok = ((hi > 1e16) | ((hi == 1e16) & (lo >= np.where(exact, 0.0, _WIDTH)))) & ~above
    if not shortest:
        # an exact y on a tie has r = -+1/2, and rint rounds lo, so Y (hi is even), to even
        ok &= (0.5 - np.abs(r) > _WIDTH) | exact
        return Y, ok, above
    # x's rounding interval [y - G, y + H], with G and H half the gaps to the neighbouring
    # doubles in the units of y: exact powers of two times the table's words
    bits = ax.view(np.int64)
    low, a = _end(Y, r, (ax - (bits - 1).view(float)) * 0.5, t, tl, -1)
    high, b = _end(Y, r, ((bits + 1).view(float) - ax) * 0.5, t, tl, 1)
    ok &= (a > _WIDTH) & (b > _WIDTH)
    # j, the largest power of ten with a multiple in [low, high]: the last k at which
    # high // 10^k still exceeds (low - 1) // 10^k.  The interval is over one unit wide, so
    # it holds an integer, and it mostly holds no multiple of 1000
    j = np.zeros(Y.size, np.int64)
    live = np.flatnonzero(ok)
    h, l, k = high[live], low[live] - 1, 0
    while live.size:
        k += 1
        h, l = h // 10, l // 10
        keep = h > l
        live, h, l = live[keep], h[keep], l[keep]
        j[live] = k
    # the multiple C of p = 10^j nearest y: 2(y - C) = 2(Y - C) + 2r, with the midpoints
    # between multiples at 2(y - C) = -+p, and the integer parts summed exactly first
    p = _POW10[j]
    C = (Y + p // 2) // p * p
    C -= ((2 * (Y - C) + p) + 2.0 * r < 0.0) * p
    d = 2 * (Y - C)
    ok &= np.minimum(np.abs((d + p) + 2.0 * r), np.abs((d - p) + 2.0 * r)) > 2.0 * _WIDTH
    C += (C < low) * p - (C > high) * p
    return C, ok, above


def _end(Y, r, gap, t, tl, sign):
    """(end, margin): the integer end of y - G (sign -1) or y + H (sign 1) nearest y,
    y = Y + r and G or H = gap*(t + tl), and the distance of the unrounded end from the
    integers.  gap*t and gap*tl are exact; the integer part of gap*t is taken exactly and
    the rest, under 3, is rounded twice."""
    G = gap * t
    whole = np.floor(G)
    part = r + sign * ((G - whole) + gap * tl)
    end = np.floor(part) if sign > 0 else np.ceil(part)
    return Y + sign * whole.astype(np.int64) + end.astype(np.int64), np.abs(part - np.rint(part))


def _estimate(ax):
    """floor(log10(ax)) or one less, from numpy's log10 (whose last bits vary between SIMD
    dispatch levels) lowered by far more than its error."""
    return np.floor(np.log10(ax) - 1e-9).astype(np.int64)


def _decimals(ax, shortest):
    """(D, X, ok): ax's digits as an integer in [10^16, 10^17) and its decimal exponent X."""
    E = np.clip(_estimate(ax), _E_MIN, _E_MAX - 1)
    D, ok, above = _at_scale(ax, E, shortest)
    redo = np.flatnonzero(above)
    if redo.size:
        E[redo] += 1
        D[redo], ok[redo], _ = _at_scale(ax[redo], E[redo], shortest)
    top = ok & (D == _TOP)
    D[top] = _TOP // 10
    E[top] += 1
    return D, E, ok


def _python_text(values, style: str) -> list[str]:
    """The arbiter: Python's own text of each value."""
    if style == "g17":
        return [format(v, ".17g") for v in values]
    return [repr(v) for v in values]


def _digit_keys(x, shortest: bool):
    """(written, key, digits) of doubles x: where they are written natively (zeros too), the
    layout key of each, and their digits as in :func:`_digit_words` (0 where not native)."""
    ax = np.abs(x)
    native = np.flatnonzero((_LOW <= ax) & (ax < _HIGH))
    # quietly: an estimate two or more below (never numpy's) casts a y past 2^63 to int64
    with np.errstate(all="ignore"):
        D, X, ok = _decimals(ax[native], shortest)
    native, D, X = native[ok], D[ok], X[ok]
    written = ax == 0.0
    written[native] = True
    # the digits of every value, 0 where a zero's layout or the arbiter writes it
    integer = np.zeros(x.size, np.int64)
    integer[native] = D
    groups = _groups(integer)
    key = np.full(x.size, _ZERO)
    key[native] = (X - _E_MIN) * 18 + _significant(groups)[native]
    return written, key, _digit_words(groups)


def _float_words(x, style: str) -> list[np.ndarray]:
    """The text of doubles x in ``style`` as five arrays of zero-padded words: 6 bytes of
    sign and prefix, 18 of digits and point (in three), 5 of exponent suffix.  The digits'
    temporaries end with :func:`_digit_keys`, and each word's masks are gathered as it is
    formed, so that fewer arrays of x's size are alive at once."""
    shortest = style == "repr"
    written, key, digits = _digit_keys(x, shortest)
    mask, prefix, suffix = (index[key].astype(np.intp) for index in _layouts(shortest))
    tables = _tables()
    body = tables.body
    shifted = [digits[0] << 8, digits[1] << 8 | digits[0] >> 56, digits[2] << 8 | digits[1] >> 56]
    words = [tables.prefixes[prefix + 5 * np.signbit(x)],
             *((d & body[i][mask]) | (s & body[3 + i][mask]) | body[6 + i][mask]
               for i, (d, s) in enumerate(zip(digits, shifted))),
             tables.suffixes[suffix]]
    arbitrated = np.flatnonzero(~written)
    if arbitrated.size:
        text = _python_text(x[arbitrated].tolist(), style)
        text = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        raw = np.zeros((arbitrated.size, 40), np.uint8)
        raw[:, 0:6], raw[:, 8:26] = text[:, :6], text[:, 6:]
        for word, value in zip(words, raw.view(_WORD).T):
            word[arbitrated] = value
    return words


def _int_width(column) -> int:
    """The width of an integer column's largest value; a column other than integers in
    [0, 10^17) raises ``ValueError``."""
    if column.dtype.kind not in "iu" or column.min() < 0 or column.max() >= _TOP:
        raise ValueError("an integer column must hold integers in [0, 10**17)")
    return len(str(int(column.max())))


def _int_bytes(v, width: int) -> np.ndarray:
    """Integers v in [0, 10^width), width <= 17, right-aligned in ``(n, width)`` bytes with
    their leading zeros as 0 bytes."""
    count = np.searchsorted(_POW10[1:width], v, side="right") + 1
    kept = [w & lead[count] for w, lead in zip(_digit_words(_groups(v)), _tables().lead)]
    return np.stack(kept, axis=1).view(np.uint8)[:, 17 - width:17]


def rows_text(fields, literals, head: str = "", sep: str = "", tail: str = "") -> str:
    """``head``, the rows joined by ``sep``, then ``tail``; a row is ``literals[0] field_0
    literals[1] ... field_k-1 literals[k]``.

    ``fields`` holds (style, column) pairs, each column an array of one
    value per row and each style ``"d"`` (integers in [0, 10^17); any other
    integer column raises ``ValueError``), ``"g17"`` or ``"repr"``.  Columns
    of unequal length, or other than one literal more than fields, raise
    ``ValueError``.
    """
    return "".join(_chunks(fields, literals, head, sep, tail))


def _chunks(fields, literals, head: str = "", sep: str = "", tail: str = ""):
    """The text of :func:`rows_text` in pieces that join to it: ``head``, each chunk of rows
    as soon as it is decoded, every chunk but the last ending in ``sep``, then ``tail``.

    A chunk reads only its own rows: its doubles are copied into one reused
    block per style and its integers are sliced, so nothing the generator
    allocates grows with the table.
    """
    if len(literals) != len(fields) + 1:
        raise ValueError(f"{len(fields)} fields need {len(fields) + 1} literals, "
                         f"got {len(literals)}")
    lengths = [len(column) for _, column in fields]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns must have one length, got lengths {lengths}")
    rows = lengths[0]
    if not rows:
        yield head + tail
        return
    styles = [style for style, _ in fields]
    columns = [np.asarray(column) for _, column in fields]
    widths = [_int_width(column) if style == "d" else None
              for style, column in zip(styles, columns)]
    floats = {style: [c for s, c in zip(styles, columns) if s == style]
              for style in dict.fromkeys(styles) if style != "d"}
    step = min(rows, max(1, _CHUNK // max(map(len, floats.values()), default=1)))
    blocks = {style: np.empty((step, len(group))) for style, group in floats.items()}
    # each row of the word buffer: the literals, the fields' slots, and sep, with each
    # literal and integer right-aligned in whole words after NUL bytes
    literals = [text.encode() for text in [*literals[:-1], literals[-1] + sep]]
    literals = [bytes(-len(text) % 8) + text for text in literals]
    row, starts = b"", []
    for literal, width in zip(literals, widths):
        row += literal
        starts.append(len(row) // 8)
        row += bytes(40 if width is None else (width + 7) // 8 * 8)
    buffer = np.tile(np.frombuffer(row + literals[-1], _WORD), (step, 1))
    slots = {style: np.array([at for s, at in zip(styles, starts) if s == style])
             for style in blocks}
    yield head
    for first in range(0, rows, step):
        part = slice(first, first + step)
        out = buffer[:min(step, rows - first)]
        for style, block in blocks.items():
            block = block[:len(out)]
            for j, column in enumerate(floats[style]):
                block[:, j] = column[part]
            for i, word in enumerate(_float_words(block.ravel(), style)):
                out[:, slots[style] + i] = word.reshape(len(out), -1)
        for column, width, at in zip(columns, widths, starts):
            if width is None:
                continue
            v = column[part].astype(np.int64, copy=False)
            if width <= 4:
                out[:, at] = _tables().ints[v]
            else:
                end = 8 * at + (width + 7) // 8 * 8
                out.view(np.uint8)[:, end - width:end] = _int_bytes(v, width)
        # in one expression, so that no bytes outlive the yield; the last row drops its sep
        cut = -len(sep) if sep and first + step >= rows else None
        yield out.tobytes().translate(None, b"\0")[:cut].decode("ascii")
    yield tail
