"""Exact ``'%.17g'`` text for blocks of float64 values, built by numpy.

``lines(table)`` returns the bytes of ``",".join('%.17g' % v for v in row)``
plus a newline for every row of a 2-D table, byte for byte.  Each nonzero
value in [1e-280, 1e280] is scaled to a 17-digit integer in double-double
arithmetic (Dekker's two-product with an exact table of powers of ten,
fetched by one gather per value) and written from lookup tables.  The
decade of ``floor(log10(v))`` is checked only where the scaled value lies
outside (1e16, 1e17), the one place a missed decade can show.  Zeros are
written as ``0`` / ``-0`` directly.  Values within ``_TIE_MARGIN`` of a
decimal tie, magnitudes outside [1e-280, 1e280] (subnormals included) and
non-finite values are formatted by ``'%.17g'`` one at a time.

``write_rows`` writes a table in blocks, and finds its +0.0 cells itself:
it cuts the rows into runs whose +0.0 cells lie in the same columns.  A
run with none goes to ``lines`` in blocks of ``BLOCK_VALUES`` values.  The
edge signals are +0.0 in every column but the edges of a segment piece's
graph.  For a run with +0.0 cells only the times and the other cells go
through the 48-byte rows below, each closed by ",".  One ``translate`` and
one ``split`` give their texts, and ``%`` puts them into the copies of the
run's bytes template: a ``%s`` per text, each followed by its separators
and "0," cells.

``dynamics`` imports this module on its first CSV write, so neither the
module nor its tables (about 2 ms to build) cost anything on
``import consensuslab``.

Each value gets one 48-byte row, a superset of every text '%.17g' can give
it, and a keep mask picks that text out of the row.  The other bytes are
set to NUL, and one ``bytes.translate`` deletes the NULs, with no index
array.  The row:

  bytes 0-5    "-0.000"   the sign, and "0." plus the zeros of 1e-4 <= |v| < 1
  bytes 6-39   the 17 significant digits, each followed by a point slot
  bytes 40-44  "e+ddd" / "e-ddd"
  byte  45     the separator, "," or "\\n"

The mask depends only on the code (sign, layout, kept digits): layout
d + 4 for fixed notation (-4 <= d <= 16, d the decimal exponent), 21 for a
two-digit exponent and 22 for a three-digit one; kept digits 1-17 after the
trailing zeros are dropped.  Row words 1-4 hold the 16 low digits as four
4-digit words, each read from a table of "d.d.d.d." strings.
"""

from __future__ import annotations

import numpy as np

# values per block (see write_rows): the block's temporaries stay under
# 2 MB (tracemalloc peaks of a whole write: 1.18 MB on an 8001 x 101 dense
# table, 0.94 MB on an 8001 x 191 table 2 % nonzero, 1.24 MB on 8001 x 191
# tables of +0.0 runs written by templates, 0.51 MB on one of +0.0 alone)
BLOCK_VALUES = 6144

_POW_MIN, _POW_MAX = -270, 300  # 10**k for every k = 16 - d of the fast range
_EXP_MAX = 300  # the exponent tables cover |d| <= _EXP_MAX
_LAYOUTS = 23
_ROW = 48
_SEP_COL = 45
# The double-double hi + lo is within 1e-14 of |v| * 10**(16 - d) < 1e17:
# the table's 10**k is off by at most 2**-106 relative (1.3e-15 absolute at
# 1e17), and v * pow_lo and the error sum add at most 2**-53 * 24 < 3e-15
# in rounding.  A fraction within 1e-12 of one half may be a decimal tie
# either way, so it is sent to '%.17g'.
_TIE_MARGIN = 1e-12


def _split(x):
    """Dekker's split of a double into two halves of at most 26 bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _powers_of_ten():
    """10**k = hi + lo for k in [_POW_MIN, _POW_MAX], lo the rounded exact
    remainder, from Python integers: 10**m - hi, and
    10**-m - num/den = (den - num * 10**m) / (den * 10**m)."""
    tens = [1]
    for _ in range(max(-_POW_MIN, _POW_MAX)):
        tens.append(tens[-1] * 10)
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        p = tens[abs(k)]
        if k >= 0:
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            hi.append(1 / p)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * p) / (den * p))
    return np.array(hi), np.array(lo)


def _digit_tables():
    """Row words "d.d.d.d." and trailing-zero counts (4 for 0) by 4-digit word."""
    digit_bytes = np.full((10000, 8), ord("."), np.uint8)
    digit_bytes[:, 0::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    zeros = np.zeros((10,) * 4, np.int64)  # indexed by the 4 digits of the word
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[..., 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    return digit_bytes.view(np.uint64).ravel(), zeros.ravel()


def _lead_words():
    """Row word 0, "-0.000" then the leading digit and its point slot, by digit."""
    lead_bytes = np.tile(np.frombuffer(b"-0.0000.", np.uint8), (10, 1))
    lead_bytes[:, 6] += np.arange(10, dtype=np.uint8)
    return lead_bytes.view(np.uint64).ravel()


def _separator_words():
    """Row word 5 holding only the separator byte: "," and "\\n"."""
    sep_bytes = np.zeros((2, 8), np.uint8)
    sep_bytes[:, _SEP_COL % 8] = (ord(","), ord("\n"))
    return sep_bytes.view(np.uint64).ravel()


def _exponent_tables():
    """Row words "e+ddd" and layout code offsets (layout - 4) * 17, by d + _EXP_MAX."""
    d = np.arange(-_EXP_MAX, _EXP_MAX + 1)
    exp_bytes = np.zeros((d.size, 8), np.uint8)
    exp_bytes[:, 0] = ord("e")
    exp_bytes[:, 1] = np.where(d < 0, ord("-"), ord("+"))
    exp_bytes[:, 2:5] = np.abs(d)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    layout = np.where((d >= -4) & (d <= 16), d + 4, np.where(np.abs(d) >= 100, 22, 21))
    return exp_bytes.view(np.uint64).ravel(), (layout - 4) * 17


def _keep_masks():
    """Keep mask by code (sign * _LAYOUTS + layout) * 17 + kept - 1."""
    sign, layout, kept = (a.reshape(-1, 1) for a in np.indices((2, _LAYOUTS, 17)))
    kept = kept + 1
    col = np.arange(_ROW)
    digit = (col - 6) // 2  # the digit in a digit slot, or before a point slot
    in_digits = (col >= 6) & (col < 40)
    digit_slot = in_digits & (col % 2 == 0)
    point_slot = in_digits & (col % 2 == 1)
    d = layout - 4
    fixed = layout < 21
    whole = fixed & (d >= 0)  # digits 0..d before the point
    small = fixed & (d < 0)  # "0." and -d - 1 zeros before the digits
    shown = np.where(whole, np.maximum(kept, d + 1), kept)
    point_after = np.where(whole, d, 0)
    return (((col == 0) & (sign == 1))
            | (digit_slot & (digit < shown))
            | (point_slot & (digit == point_after) & (kept > point_after + 1) & ~small)
            | (small & (col >= 1) & (col < 2 - d))
            | (~fixed & ((col == 40) | (col == 41) | (col == 43) | (col == 44)))
            | ((layout == 22) & (col == 42))
            | (col == _SEP_COL))


_POW_HI, _POW_LO = _powers_of_ten()
# columns 10**k = hi + lo and Dekker's halves of hi, by k - _POW_MIN: one gather per value
_POW = np.column_stack((_POW_HI, _POW_LO, *_split(_POW_HI)))
_DIGIT_WORDS, _WORD_ZEROS = _digit_tables()
_LEAD_WORDS = _lead_words()
_EXP_WORDS, _LAYOUT_CODES = _exponent_tables()
_MASKS = _keep_masks()
# keep mask of a left-aligned '%.17g' text, by its length
_TEXT_MASKS = (np.arange(_ROW) < np.arange(_ROW)[:, None]) | (np.arange(_ROW) == _SEP_COL)
_COMMA_WORD, _NEWLINE_WORD = _separator_words()


def _scaled(v, d):
    """v * 10**(16 - d) as a double-double hi + lo (Dekker's two-product)."""
    pow_hi, pow_lo, ph, pl = np.take(_POW, 16 - d - _POW_MIN, axis=0).T
    p = v * pow_hi
    vh, vl = _split(v)
    err = ((vh * ph - p) + vh * pl + vl * ph) + vl * pl  # p + err = v * pow_hi exactly
    lo = err + v * pow_lo
    hi = p + lo
    return hi, lo - (hi - p)


def _decade_shift(hi, lo):
    """+1 where hi + lo >= 1e17, -1 where it is below 1e16, else 0."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return above.astype(np.int64) - below


def _decimal(v):
    """17-digit integers ``num`` and exponents ``d`` of positive finite
    values, v = num * 10**(d - 16) rounded to nearest; ``exact`` is False
    where the rounding is too close to a tie to trust.

    ``d`` starts as floor(log10(v)), which may miss the decade by one next
    to a power of ten.  Only the candidates, whose hi lies outside
    (1e16, 1e17), are checked against the decade and rescaled where they
    miss it; a rescaled value that still misses is left to '%.17g'."""
    d = np.floor(np.log10(v)).astype(np.int64)
    hi, lo = _scaled(v, d)
    exact = np.ones(v.size, bool)
    # hi + lo leaves [1e16, 1e17) only if hi <= 1e16 or hi >= 1e17, and then
    # |hi - 5.5e16| >= 4.5e16: 1e17 - 5.5e16 = 5.5e16 - 1e16 = 4.5e16 in exact
    # doubles and rounding is monotone, so the candidates hold every missed decade
    cand = np.flatnonzero(np.abs(hi - 5.5e16) >= 4.5e16)
    if cand.size:
        shift = _decade_shift(hi[cand], lo[cand])
        missed = shift != 0
        redo = cand[missed]
        if redo.size:  # log10 was one decade off next to a power of ten
            d[redo] += shift[missed]
            hi[redo], lo[redo] = _scaled(v[redo], d[redo])
            exact[redo] = _decade_shift(hi[redo], lo[redo]) == 0
    # hi >= 1e16 > 2**53 is a whole number, so only lo needs rounding
    floor = np.floor(lo)
    frac = lo - floor
    exact &= np.abs(frac - 0.5) > _TIE_MARGIN
    num = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = num == 10 ** 17  # rounded up into the next decade
    num[carry] = 10 ** 16
    return num, d + carry, exact


def _fill_digits(rows, code, pick, v):
    """Write the digits and exponents of the positive values ``v`` (the
    entries ``pick`` of the block) into their rows and codes; return the
    indices into ``v`` that are too close to a tie to trust.  A function of
    its own, so its temporaries are freed before the block's masks are
    gathered."""
    num, d, exact = _decimal(v)
    lead = num // 10 ** 16
    low = num - lead * 10 ** 16
    words = []
    for p in (10 ** 12, 10 ** 8, 10 ** 4):
        w = low // p
        low = low - w * p
        words.append(w)
    words.append(low)
    zeros = np.take(_WORD_ZEROS, words[3])
    walk = np.flatnonzero(words[3] == 0)  # the zeros go on into the words before
    if walk.size:
        z = np.take(_WORD_ZEROS, words[0][walk])
        for w in words[1:3]:
            w = w[walk]
            z = np.where(w == 0, z + 4, np.take(_WORD_ZEROS, w))
        zeros[walk] += z
    code[pick] += np.take(_LAYOUT_CODES, d + _EXP_MAX) + 16 - zeros
    rows[pick, 0] = np.take(_LEAD_WORDS, lead)
    for c, w in enumerate(words, 1):
        rows[pick, c] = np.take(_DIGIT_WORDS, w)
    rows[pick, 5] |= np.take(_EXP_WORDS, d + _EXP_MAX)
    return np.flatnonzero(~exact)


def _text_rows(rows, flat):
    """Fill the 48-byte rows of the values ``flat``, whose word 5 already
    holds each value's separator byte, and return their keep masks."""
    mag = np.abs(flat)
    code = np.where(np.signbit(flat), (_LAYOUTS + 4) * 17, 4 * 17)  # "0" / "-0" until set below
    fast = (mag >= 1e-280) & (mag <= 1e280)
    pick = slice(None)
    slow = np.empty(0, np.int64)
    if not fast.all():
        rows[:, 0] = _LEAD_WORDS[0]
        pick = np.flatnonzero(fast)
        slow = np.flatnonzero(~fast & (mag != 0.0))
    v = mag[pick]
    if v.size:
        inexact = _fill_digits(rows, code, pick, v)
        if inexact.size:
            slow = np.concatenate((slow, np.arange(flat.size)[pick][inexact]))
    mask = np.take(_MASKS, code, axis=0)
    text = rows.view(np.uint8)
    for i, x in zip(slow.tolist(), flat[slow].tolist()):
        s = ("%.17g" % x).encode("ascii")
        text[i, :len(s)] = np.frombuffer(s, np.uint8)
        mask[i] = _TEXT_MASKS[len(s)]
    return mask


def lines(table):
    """The ASCII bytes of a 2-D float64 table, one comma-separated line per row."""
    flat = table.ravel()
    rows = np.empty((flat.size, 6), np.uint64)
    seps = rows.reshape(table.shape + (6,))[:, :, 5]
    seps[:, :-1] = _COMMA_WORD
    seps[:, -1] = _NEWLINE_WORD
    text = rows.view(np.uint8)
    text *= _text_rows(rows, flat).view(np.uint8)  # NUL out the dropped bytes
    # every byte of a '%.17g' text and its separator is printable, so
    # deleting the NULs leaves exactly the kept bytes
    return text.tobytes().translate(None, b"\0")


def _template(cols, width):
    """The bytes format of a line of ``width`` values that are +0.0 outside
    the columns ``cols``: a ``%s`` for the time and for each listed cell,
    each followed by its separator and the "0," cells up to the next, with
    "\\n" in place of the last ",".  No '%.17g' text holds "," or "%"."""
    gaps = np.diff(cols, prepend=-1, append=width).tolist()
    return b"".join(b"%s," + b"0," * (g - 1) for g in gaps)[:-1] + b"\n"


def _support_lines(times, values, chunks):
    """The lines of the rows [a, b) of every chunk (a, b, cols, template) in
    turn: one digit pass over the times and the listed cells, whose texts
    then fill each chunk's copies of its template."""
    counts = [(b - a) * (cols.size + 1) for a, b, cols, _ in chunks]
    flat = np.empty(sum(counts))
    v = 0
    for (a, b, cols, _), count in zip(chunks, counts):
        cells = flat[v:v + count].reshape(b - a, cols.size + 1)
        cells[:, 0] = times[a:b]
        cells[:, 1:] = values[a:b, cols]
        v += count
    rows = np.empty((flat.size, 6), np.uint64)
    rows[:, 5] = _COMMA_WORD
    text = rows.view(np.uint8)
    text *= _text_rows(rows, flat).view(np.uint8)
    texts = text.tobytes().translate(None, b"\0").split(b",")
    parts = []
    v = 0
    for (a, b, _, template), count in zip(chunks, counts):
        parts.append(template * (b - a) % tuple(texts[v:v + count]))
        v += count
    return b"".join(parts)


def _runs(values, r, s):
    """The rows [r, s) of ``values`` as runs (a, b, mask) of rows that are
    +0.0 in the same cells: ``mask`` holds the bytes of a bool row, False at
    those cells.  The mask is None for the whole scan block when it holds no
    +0.0 cell or is cut into more runs than a sixteenth of its rows."""
    nonzero = values[r:s].view(np.int64) != 0
    if nonzero.all():
        return [(r, s, None)]
    cuts = np.flatnonzero((nonzero[1:] != nonzero[:-1]).any(axis=1)) + 1
    if cuts.size > (s - r) // 16:
        return [(r, s, None)]
    ends = [0, *cuts.tolist(), s - r]
    return [(r + a, r + b, nonzero[a].tobytes()) for a, b in zip(ends[:-1], ends[1:])]


def write_rows(fh, times, values):
    """Write the lines of the table ``t, v1, ..., vM`` (``times`` beside the
    rows of ``values``) to the binary file ``fh``, a block of rows at a time.

    The rows are scanned in blocks of 16 x ``BLOCK_VALUES`` cells, on the
    int64 view, where +0.0 is the one double whose bits are all zero (so
    -0.0 keeps its "-0"), and cut into runs of rows whose +0.0 cells lie in
    the same columns.  A run with no +0.0 cell is written by ``lines``,
    about ``BLOCK_VALUES`` cells at a time.  Any other run formats only the
    times and its other cells, and each line is the run's template with
    their texts in place; runs go in chunks of rows, and the chunks in
    blocks weighed as formatted values plus the template bytes / 48 (a
    value's 48-byte row holds as much memory as 48 bytes of template).
    A scan block cut into more runs than a sixteenth of its rows (scattered
    zeros) is written whole by ``lines``, so it costs what the dense path
    costs.
    """
    width = values.shape[1]
    step = max(1, BLOCK_VALUES // (width + 1))
    templates = {None: None}  # a run's (columns, template) by its mask; None for lines
    block, held = [], 0.0
    for q in range(0, times.size, 16 * step):
        for r, s, mask in _runs(values, q, min(q + 16 * step, times.size)):
            if mask not in templates:
                cols = np.flatnonzero(np.frombuffer(mask, bool))
                templates[mask] = (cols, _template(cols, width)) if cols.size < width else None
            cols, template = templates[mask] or (None, None)
            weight = width + 1 if cols is None else cols.size + 1 + len(template) / 48  # per line
            run_step = max(1, int(BLOCK_VALUES // weight))
            for a in range(r, s, run_step):
                b = min(a + run_step, s)
                if block and (cols is None or held + (b - a) * weight > BLOCK_VALUES):
                    fh.write(_support_lines(times, values, block))
                    block, held = [], 0.0
                if cols is None:
                    fh.write(lines(np.column_stack((times[a:b], values[a:b]))))
                else:
                    block.append((a, b, cols, template))
                    held += (b - a) * weight
    if block:
        fh.write(_support_lines(times, values, block))
