"""CSV rows from float64 columns, byte for byte as printf ``%.17g`` writes
them, formatted a column at a time.

For |x| in [1e-200, 1e200) the decimal exponent k and the correctly
rounded 17-digit integer N = round(|x| 10^(16-k)) come from double-double
arithmetic: Dekker's split and exact product, no fused multiply-add, with
10^q as hi + lo from exact integers.  The computed y = |x| 10^(16-k) is
then within 1e-13 of the exact one (a few units of 2^-106 y, plus the
rounding of one sum below 256), so floor(y) and the rounding of its
fraction are exact unless that fraction lies within ``_BAND`` of one
half.  k is floor(log10 |x|), which holds when floor(y) lies in
[10^16, 10^17); a carry of N to 10^17 becomes 10^16 at k + 1.  The digits
are laid out by the C ``%g`` rules through index templates, and all rows
are joined by one compaction of a byte matrix.

The values this path does not decide are formatted by ``'%.17g' %``
itself, one at a time: zero, NaN and infinities, |x| outside that range
(subnormals included), a fraction within ``_BAND`` of one half, and a k
that log10 got wrong (only a few ulps from a power of ten).  This is the
exact fast path with a rejection test of Loitsch, "Printing
floating-point numbers quickly and accurately" (PLDI 2010), in front of
the exact routine of Gay, "Correctly rounded binary-decimal and
decimal-binary conversions" (1990).
"""

import functools

import numpy as np

# A scaled value whose fraction lies within this of 1/2 takes the fallback.
_BAND = 1e-9
_LOW, _HIGH = 1e-200, 1e200
_K_MIN, _K_MAX = -202, 202      # log10's decades in range, and a carry
_WIDTH = 24                     # longest field: -9.9999999999999998e-201
_ROWS = 2048                    # rows formatted per block
_SPLIT = 134217729.0            # 2**27 + 1, Dekker's splitter
_HUNDREDS = 100.0 ** np.arange(4, -1, -1)

# A value's source bytes, which the templates index, are 14 two-byte rows.
# Row 2p + h holds pair p of half h of N, the halves d0 .. d8 and d9 .. d16
# each led by zeros to ten digits, so digit j is byte _DIGIT[j]; then come
# the exponent sign and hundreds digit, its last two digits, '.' and 'e',
# and the sign ('-' or NUL) with a NUL.
_DIGIT = [1, 4, 5, 8, 9, 12, 13, 16, 17, 6, 7, 10, 11, 14, 15, 18, 19]
_ZERO, _EXP_SIGN, _EXP, _DOT, _E, _SIGN, _NUL = 0, 20, 21, 24, 25, 26, 27
# Row of the pair that ends at digit 2r (r = 0 .. 8): d0, d1 d2, .., d15 d16,
# and the rank r of each row's pair (the pair 00 that leads d9 gets 0).
_PAIR_ROW = np.array([0, 2, 4, 6, 8, 3, 5, 7, 9])
_PAIR_RANK = np.array([[0, 0], [1, 5], [2, 6], [3, 7], [4, 8]], np.uint8)[:, :, None]


def _bytes(text):
    """text's bytes as uint16, two at a time, in memory order."""
    return np.frombuffer(text.encode(), np.uint16)


_PAIRS = _bytes("".join(f"{i:02d}" for i in range(100)))
_EXP_HEADS = _bytes("".join(s + h for h in "0123456789" for s in "+-"))


def _split(v):
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


def _power(q):
    """10^q as hi + lo: hi the nearest double, lo the nearest to the rest,
    both from exact integer ratios (int / int rounds correctly)."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


@functools.cache
def _tables():
    """For k from _K_MIN to _K_MAX, the rows hi, hi's split and lo of
    10^(16-k) and the first template row of k's class; and the templates:
    row 17 c + n - 1 lists the source bytes, NUL-padded, of a value of
    class c (k + 4 for fixed notation, 21 and 22 for two and three exponent
    digits) with n significant digits."""
    hi, lo = np.array([_power(16 - k) for k in range(_K_MIN, _K_MAX + 1)]).T
    k = np.arange(_K_MIN, _K_MAX + 1)
    cls = np.where((k >= -4) & (k <= 16), k + 4, np.where(np.abs(k) >= 100, 22, 21))
    templates = np.full((23, 17, _WIDTH + 1), _NUL, np.intp)
    for c in range(23):
        for n in range(1, 18):
            digits, k = _DIGIT[:n], c - 4
            if c > 20:
                row = digits[:1] + ([_DOT, *digits[1:]] if n > 1 else [])
                row += [_E, _EXP_SIGN, *range(_EXP + 22 - c, _EXP + 3)]
            elif k < 0:
                row = [_ZERO, _DOT] + [_ZERO] * (-k - 1) + digits
            else:
                row = _DIGIT[:k + 1] + ([_DOT, *digits[k + 1:]] if n > k + 1 else [])
            templates[c, n - 1, :len(row) + 1] = [_SIGN, *row]
    return np.array([hi, *_split(hi), lo]), 17 * cls - 1, templates.reshape(23 * 17, -1)


@functools.lru_cache(maxsize=4)
def _offsets(m):
    """The templates as offsets into the flat source bytes of m values."""
    templates = _tables()[2]
    return templates // 2 * (2 * m) + templates % 2


def _scaled(a, k):
    """floor(y) and y - floor(y) for y = a 10^(16-k)."""
    hi, hi_high, hi_low, lo = _tables()[0].take(k - _K_MIN, axis=1)
    p = a * hi
    a_high, a_low = _split(a)
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    whole = np.floor(p)                                 # p + err == a * hi
    rest = (p - whole) + (err + a * lo)
    rest_floor = np.floor(rest)
    return whole.astype(np.int64) + rest_floor.astype(np.int64), rest - rest_floor


def _write_floats(dest, x):
    """Write '%.17g' % v of each v in x, NUL-padded, into the rows of the
    contiguous byte matrix dest, which are _WIDTH + 1 bytes wide."""
    m = len(x)
    a = np.abs(x)
    in_range = (a >= _LOW) & (a < _HIGH)                # NaN compares false
    a = np.where(in_range, a, 1.0)                      # the fallback rewrites these
    k = np.floor(np.log10(a)).astype(np.int64)
    N, frac = _scaled(a, k)
    fast = in_range & (N >= 10**16) & (N < 10**17) & (np.abs(frac - 0.5) > _BAND)
    N += frac > 0.5
    carry = N == 10**17
    N[carry] = 10**16
    k += carry

    # Digit pairs from floor quotients of N's halves, exact below 10^9.
    N = np.minimum(np.maximum(N, 10**16), 10**17 - 1)
    high = N // 10**8
    halves = np.concatenate([high, N - high * 10**8]).astype(float)
    pairs = np.floor(halves / _HUNDREDS[:, None])
    pairs[1:] -= 100.0 * pairs[:-1]
    pairs = pairs.astype(np.intp)
    source = np.empty((14, m), np.uint16)
    _PAIRS.take(pairs, out=source[:10].reshape(5, 2 * m))
    ak = np.abs(k)
    source[10] = _EXP_HEADS.take(ak // 100 * 2 + (k < 0))
    source[11] = _PAIRS.take(ak % 100)
    source[12] = _bytes(".e")
    source[13] = np.signbit(x) * _bytes("-\0")

    # n = 2 r + 1 significant digits, less one if the last nonzero pair, of
    # rank r, ends in 0 (d0 alone never does).
    last = (_PAIR_RANK * (pairs.reshape(5, 2, m) != 0)).max(axis=(0, 1))
    end = pairs.reshape(-1).take(_PAIR_ROW[last] * m + np.arange(m))
    row = _tables()[1].take(k - _K_MIN) + 2 * last + 1
    index = _offsets(m).take(row - (end % 10 == 0), axis=0)
    index += np.arange(0, 2 * m, 2)[:, None]
    # Every offset is in range; "clip" lets take write into dest unbuffered.
    source.view(np.uint8).reshape(-1).take(index, out=dest, mode="clip")

    for i in np.flatnonzero(~fast):
        dest[i, :_WIDTH] = np.frombuffer(("%.17g" % x[i]).encode().ljust(_WIDTH, b"\0"),
                                         np.uint8)


def csv_rows(columns) -> str:
    """CSV text of the columns, one line per row, each ending in a newline:
    a float64 column as '%.17g' writes each value, a bool column as 0 or 1."""
    columns = [np.asarray(c) for c in columns]
    parts = []
    for start in range(0, len(columns[0]), _ROWS):
        block = [c[start:start + _ROWS] for c in columns]
        text = np.zeros((len(block), len(block[0]), _WIDTH + 1), np.uint8)
        for field, c in zip(text, block):
            if c.dtype == bool:
                field[:, 0] = c + 48
            else:
                _write_floats(field, c)
        text[:, :, _WIDTH] = ord(",")
        text[-1, :, _WIDTH] = ord("\n")
        rows = text.transpose(1, 0, 2).tobytes()
        parts.append(rows.translate(None, b"\0").decode("ascii"))
    return "".join(parts)
