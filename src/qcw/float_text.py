"""Text of floats in bulk: ``repr``'s for the CSV outputs, ``float()``'s
for the fit inputs.

``_fmt_column`` writes a column by one ``repr`` of its list. ``_path_rows``
writes the rows of ``path.csv`` from one byte matrix: each float by the
shortest round-trip decimals it proves equal to ``repr``'s, and by
``repr`` where it cannot.
``_csv_floats`` reads the float cells of comma-separated lines: in numpy
where it proves the value equal to ``float()``'s, and by ``float()`` for
the rest.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _fmt_column(values) -> list[str]:
    """Full-precision, round-trippable text of each float: ``repr(float(v))``.

    One ``repr`` of the whole list, split at its separators, gives the same
    strings as one ``repr`` per float at a fraction of the calls.
    """
    return repr(np.asarray(values, dtype=float).tolist())[1:-1].split(", ")


# Shortest round-trip decimals in numpy, for the floats of ``path.csv``. For
# 1e-4 <= |v| < 1e16, where ``repr`` writes fixed notation, |v| * 10^s lies in
# [1e16, 1e17] for one s, and that product P is formed exactly as hi + lo by
# Dekker's two-product (Veltkamp split, no FMA). ``repr`` (David Gay's dtoa,
# mode 0) writes the fewest digits that read back as v, and of those the
# nearest: the nearest multiple of 10^j to P for the largest j whose nearest
# multiple lies strictly within half a gap of v (times 10^s) of P. Whatever
# this cannot prove goes to ``repr``: zero, subnormals, non-finite values and
# exponent notation, powers of two (whose gap below is half the gap above),
# ties, and any comparison within a relative 2^-45 of its threshold.

#: 10^s for s = 0..22, all exact doubles, with their Veltkamp halves.
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: ASCII digits of 0..9999, four bytes each, one uint32 per number.
_ASCII4 = np.stack(
    np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1
).view(np.uint32).ravel()
_TIE_MARGIN = 2.0**-45
_DOT, _COMMA = ord("."), ord(",")
#: The side column's text, "bid" and "ask", down columns 0 and 1.
_SIDES = np.array([list(b"bid"), list(b"ask")], dtype=np.uint8).T


def _ascii20(n: np.ndarray) -> np.ndarray:
    """The 20 zero-padded ASCII digits of each int64 0 <= ``n`` < 10^18, one row each."""
    groups = np.empty((len(n), 5), dtype=np.int64)
    high, low = np.divmod(n, 10**8)
    high, groups[:, 2] = np.divmod(high, 10**4)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10**4)
    groups[:, 3], groups[:, 4] = np.divmod(low, 10**4)
    return _ASCII4.take(groups).view(np.uint8)


def _shortest_digits(v: np.ndarray):
    """``(ok, digits, scale, zeros)``: where ``ok``, ``repr(v)`` holds the
    decimal digits ``digits * 10^-scale`` of |v| in fixed notation, and
    ``digits`` ends in exactly ``zeros`` zeros. Elsewhere they read 1.0 and
    only ``repr`` knows."""
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    mantissa, exponent = np.frexp(a)
    ok &= mantissa != 0.5
    # floor((exponent - 1) * log10(2)) is floor(log10(a)) or one less
    s = 16 - np.floor((exponent - 1) * 0.30102999566398120).astype(np.int64)
    del mantissa, exponent  # the writer's peak memory is this function's: free early
    s -= (a * _POW10.take(s) >= 1e17).view(np.int8)
    pow10 = _POW10.take(s)
    hi = a * pow10
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI.take(s), _POW10_LO.take(s)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    del c, a_hi, a_lo, b_hi, b_lo
    near = np.rint(lo)
    r = lo - near  # P = d17 + r exactly, |r| <= 1/2
    d17 = hi.astype(np.int64) + near.astype(np.int64)
    half_gap = np.spacing(a) * 0.5 * pow10  # in (0.55, 11.2]: d17 is inside
    digits, zeros = d17.copy(), np.zeros(len(a), dtype=np.int64)
    h_in, h_out = half_gap * (1 - _TIE_MARGIN), half_gap * (1 + _TIE_MARGIN)
    live = np.flatnonzero(ok)  # the values still inside at j - 1
    for j in range(1, 19):
        if live.size == 0:
            break
        step = 10**j
        d, rr, lo_h, hi_h = d17[live], r[live], h_in[live], h_out[live]
        rem = d % step
        # Distances from P to the multiples of 10^j below and above; past 64
        # they are far outside the half gap, so clip them where their sums
        # stay exact to 2^-47.
        down = np.minimum(rem, 64) + rr
        up = np.minimum(step - rem, 64) - rr
        in_down, in_up = down < lo_h, up < lo_h
        unsure = (in_down ^ (down <= hi_h)) | (in_up ^ (up <= hi_h))
        unsure |= in_down & in_up & (np.abs(down - up) <= hi_h - lo_h)
        ok[live[unsure]] = False
        go_up = in_up & ~(in_down & (down < up))
        keep = (in_down | in_up) & ~unsure
        live = live[keep]
        digits[live] = (d - rem + step * go_up)[keep]
        zeros[live] = j  # a multiple of 10^(j+1) would be inside at j + 1
    ok &= (zeros > 0) | (np.abs(r) != 0.5)  # a tie between two 17-digit decimals
    return ok, np.where(ok, digits, 10**16), np.where(ok, s, 16), np.where(ok, zeros, 16)


def _float_fields(v: np.ndarray):
    """``(ok, fields)``: ``repr`` of each ``v``, down the NUL-padded rows of
    column ``fields[:, i]``. Where ``ok`` the digit proof wrote it: the sign,
    the integer part ending at one row for all, '.', then the fraction.
    Elsewhere ``repr`` wrote it, from the top row."""
    ok, digits, scale, zeros = _shortest_digits(v)
    n_int = np.maximum(16 + (digits >= 10**16) + (digits >= 10**17) - scale, 1)
    n_frac = np.maximum(scale - zeros, 1)
    int_width, frac_width = int(n_int.max()), int(n_frac.max())
    # Digit row c is 10^(int_width - 1 - c) of v, that is 10^(int_width - 1 - c + s)
    # of ``digits``. Those sit in 24-byte rows after four '0's, with two
    # spare rows at each end: every digit row kept reads the value's own row,
    # and one masked off may read a neighbour's.
    padded = np.full((len(v) + 4, 6), 0x30303030, dtype=np.uint32)
    padded[2:-2, 1:] = _ascii20(digits).view(np.uint32)
    width = int_width + frac_width
    starts = np.arange(72, 24 * len(v) + 72, 24) - int_width - scale
    body = sliding_window_view(padded.view(np.uint8).ravel(), width)[starts].T
    rows = np.arange(width)[:, None]
    keep = (rows >= int_width - n_int) & (rows < int_width + n_frac)
    bad = np.flatnonzero(~ok)
    texts = _fmt_column(v[bad]) if bad.size else []
    height = max([width + 2, *map(len, texts)])
    fields = np.zeros((height, len(v)), dtype=np.uint8)
    fields[0] = (v < 0) * ord("-")
    np.multiply(body[:int_width], keep[:int_width], out=fields[1 : int_width + 1])
    fields[int_width + 1] = _DOT
    np.multiply(body[int_width:], keep[int_width:], out=fields[int_width + 2 : width + 2])
    by_repr = "".join(text.ljust(height, "\0") for text in texts).encode("ascii")
    fields[:, bad] = np.frombuffer(by_repr, np.uint8).reshape(bad.size, height).T
    return ok, fields


def _path_bytes(k0: int, block) -> bytes:
    """The rows of a chunk, each NUL-padded to one width."""
    n, at_ask = block.at_ask.size, block.at_ask
    _, prices = _float_fields(np.concatenate((block.s_bid, block.s_ask)))
    _, imbs = _float_fields(block.imbalance)
    t = np.arange(k0, k0 + n, dtype=np.int64)
    t_digits = np.searchsorted(_POW10[1:19], t, side="right") + 1
    t_width = int(t_digits[-1])
    t = _ascii20(t)[:, 20 - t_width :].T * (np.arange(t_width)[:, None] >= t_width - t_digits)
    # s_trade and side are the ask's where at_ask, else the bid's.
    trade = prices.take(np.arange(n) + n * at_ask, axis=1)
    side = _SIDES.take(at_ask.view(np.uint8), axis=1)
    fields = (t, prices[:, :n], prices[:, n:], trade, side, imbs)
    # The chunk's text, transposed: one column per row of path.csv.
    bounds = np.cumsum([0] + [len(field) + 1 for field in fields])
    mat = np.empty((bounds[-1], n), dtype=np.uint8)
    for field, b0, b1 in zip(fields, bounds, bounds[1:]):
        mat[b0 : b1 - 1] = field
        mat[b1 - 1] = _COMMA
    mat[-1] = ord("\n")
    return mat.T.tobytes()


def _path_rows(chunks):
    """``path.csv`` text of a simulated path, one piece of rows per ``(k0, block)`` chunk.

    A chunk's rows are :func:`_path_bytes` without their NULs. ``s_trade``
    is bitwise the executed level, so its text is that level's.
    """
    for k0, block in chunks:
        yield _path_bytes(k0, block).translate(None, b"\0").decode("ascii")


# Decimal cells in numpy. A cell -?d*.?d* of 1-19 digits is the integer M of
# its digits (M < 10^19 < 2^64) over 10^f, f its digits after the dot. In an
# x87 long double (64-bit significand) both are exact, so their quotient is
# rounded once (W. D. Clinger, PLDI 1990). Rounding it again to float64 gives
# float()'s correctly rounded value unless the long double lies exactly
# halfway between two float64s, where its significand ends in a 1 and ten
# 0s; the midpoint below a power of two lies in the binade below and ends
# so too. Without such long doubles, Clinger's fast path (M < 2^53, 10^f
# exact in float64) rounds once. Every other cell is left to float().
_WIDTH = 24  # bytes of a cell's window, and of the zeros that precede each text
_LONG_DIVISION = bool(
    np.finfo(np.longdouble).nmant == 63
    and np.longdouble(1).tobytes()[:8] == (1 << 63).to_bytes(8, "little")
)
#: 10^f for f = 0..23 digits after a dot, and 1 at 24, for no dot.
_DIVISOR_LONG = np.cumprod(np.full(_WIDTH + 1, 10, dtype=np.longdouble)) / 10
_DIVISOR_LONG[_WIDTH] = 1
_DIVISOR = _DIVISOR_LONG.astype(np.float64)


def _repeat(byte: int) -> np.uint64:
    return np.uint64(int.from_bytes(bytes([byte]) * 8, "little"))


#: Row w, column c: word w of a 24-byte window masked to its last c bytes.
_KEEP = np.ascontiguousarray(
    (np.arange(_WIDTH)[::-1] < np.arange(_WIDTH + 1)[:, None]).astype(np.uint8) * np.uint8(255)
).view("<u8").T.copy()
#: Gathers the low bits of a word's bytes into its top byte.
_GATHER = np.uint64(0x0102040810204080)


def _decimal_cells(text: np.ndarray, end: np.ndarray, length: np.ndarray):
    """``(values, fast)``: float() of each cell of ``length`` bytes that ends
    at ``text[24 + end]``, where ``fast`` is set; elsewhere only float() knows.

    Each cell is read as the 24 bytes before its end, three little-endian
    words XORed with '0' so that digits read 0-9, with the bytes before the
    cell (and its sign) cleared. A non-digit byte is flagged by + 0x76; one
    flag at most is allowed, on a '.', and the bytes before it then move up
    by one. Three SWAR steps per word give the digits' integer (D. Lemire,
    Softw. Pract. Exp. 51, 2021).
    """
    negative = text.take(end + _WIDTH - length) == ord("-")
    length = length - negative
    x = np.ascontiguousarray(sliding_window_view(text, _WIDTH)[end].view("<u8").T)
    work = _KEEP.take(np.minimum(length, _WIDTH), axis=1)
    x ^= _repeat(0x30)
    x &= work
    np.add(x, _repeat(0x76), out=work)
    work &= _repeat(0x80)
    work >>= np.uint64(7)
    work *= _GATHER
    work >>= np.uint64(56)
    work[1] <<= np.uint64(8)
    work[2] <<= np.uint64(16)
    marks = work[0] | work[1]
    marks |= work[2]  # bit p: byte p of the window is no digit
    fast = (marks & (marks - np.uint64(1))) == 0
    dot = marks != 0
    # bytes after the one flag (from its float exponent), or 24 if none
    after = marks.astype(np.float64).view(np.int64)
    after >>= 52
    np.subtract(1046, after, out=after)
    np.minimum(after, _WIDTH, out=after)
    fast &= ~dot | (text.take(end + (_WIDTH - 1) - after) == ord("."))
    length -= dot
    fast &= (length >= 1) & (length <= 19)
    # the bytes before the dot move up one, to the window that ends a byte earlier
    np.left_shift(x, np.uint64(8), out=work)
    work[1:] |= x[:-1] >> np.uint64(56)
    x ^= work
    for row, keep in zip(x, _KEEP):
        row &= keep.take(after)
    x ^= work
    x *= np.uint64(10 * 256 + 1)
    x >>= np.uint64(8)
    x &= np.uint64(0x00FF00FF00FF00FF)
    x *= np.uint64(100 * 65536 + 1)
    x >>= np.uint64(16)
    x &= np.uint64(0x0000FFFF0000FFFF)
    x *= np.uint64(10000 * 2**32 + 1)
    x >>= np.uint64(32)
    x[0] *= np.uint64(10**16)
    x[1] *= np.uint64(10**8)
    mantissa = x[0] + x[1]
    mantissa += x[2]
    del x, work
    if _LONG_DIVISION:
        quotient = mantissa.astype(np.longdouble)
        quotient /= _DIVISOR_LONG.take(after)
        fast &= quotient.view(np.uint64)[::2] & np.uint64(0x7FF) != 0x400
        values = quotient.astype(np.float64)
    else:
        values = mantissa.astype(np.float64)
        values /= _DIVISOR.take(after)
        fast &= mantissa < np.uint64(2**53)
    np.negative(values, out=values, where=negative)
    return values, fast


def _float_cells(text: np.ndarray, end: np.ndarray, length: np.ndarray):
    """float() of each cell, as :func:`_decimal_cells` takes them: in numpy
    where that is exact, else one by one; None where float() raises."""
    values, fast = _decimal_cells(text, end, length)
    body = text[_WIDTH:]
    try:
        for i in np.flatnonzero(~fast).tolist():
            values[i] = float(body[end[i] - length[i]:end[i]].tobytes())
    except ValueError:
        return None
    return values


# csv's default field size limit: the streaming reader rejects a longer cell.
_FIELD_LIMIT = 131072


def _line_floats(text: np.ndarray, n_fields: int, indexes):
    """The float cells of the columns ``indexes``, one row each, of the lines
    in ``text[24:]``, which each end in LF; None where a line has not
    ``n_fields`` fields, a field reaches csv's limit, or float() raises."""
    body = text[_WIDTH:]
    seps = body == ord(",")
    seps |= body == ord("\n")
    seps = np.flatnonzero(seps)
    rows = seps.size // n_fields
    line_ends = body[seps] == ord("\n")
    gaps = np.diff(seps, prepend=-1)  # each field's length, plus one
    if (
        seps.size != rows * n_fields
        or np.count_nonzero(line_ends) != rows
        or not line_ends[n_fields - 1::n_fields].all()
        or gaps.max(initial=0) > _FIELD_LIMIT
    ):
        return None
    length = gaps.reshape(rows, n_fields)[:, indexes].ravel()
    length -= 1
    values = _float_cells(text, seps.reshape(rows, n_fields)[:, indexes].ravel(), length)
    return None if values is None else values.reshape(rows, len(indexes))


def _csv_floats(buf: bytearray, end: int, n_fields: int, indexes):
    """:func:`_line_floats` of the lines in ``buf[24:end]``, as csv reads them:
    CRLF is a line end and blank lines are skipped; None on a bare CR."""
    if buf[end - 1] == ord("\n") and buf.find(b"\r", _WIDTH, end) < 0:
        rows = _line_floats(np.frombuffer(buf, np.uint8, end), n_fields, indexes)
        if rows is not None:
            return rows
    # CRLF, a blank line, no LF at the end, or a row to refuse: once more, by line
    text = bytes(buf[_WIDTH:end]).replace(b"\r\n", b"\n")
    if b"\r" in text:
        return None
    lines = b"".join(line + b"\n" for line in text.split(b"\n") if line)
    return _line_floats(np.frombuffer(bytes(_WIDTH) + lines, np.uint8), n_fields, indexes)
