"""Text of float arrays: full-precision CSV, and strict-JSON lists.

Every matrix the CLI writes as CSV goes through :func:`write_csv`.  Its bytes
are exactly those of ``np.savetxt(path, a, delimiter=",", fmt="%.17g")``:
each value is Python's ``"%.17g" % x`` (17 significant digits, so the file
reads back to the same doubles), values are separated by ``,`` and each row
ends in ``\\n``.  The formatting runs in numpy, about 16k values at a time,
instead of one Python call per value.

How one finite value ``x`` with ``1e-280 <= |x| <= 1e280`` is formatted:

* ``k = floor(log10|x|)`` guesses the decimal exponent, and
  ``y = |x| * 10**(16 - k)`` is computed as a double-double: ``10**s`` is a
  (hi, lo) pair of doubles built from exact rational powers, and
  ``|x| * hi`` is split exactly into product and error by Dekker's method.
  The error of ``y`` is below 1e-14.
* If ``y`` falls outside ``[10**16, 10**17)`` the guess was one off; ``k`` is
  corrected and ``y`` recomputed.  ``N = round(y)`` are the 17 digits; if
  rounding carries to ``10**17``, ``N`` becomes ``10**16`` and ``k`` grows by 1.
* A value whose fraction ``y - floor(y)`` lies within 1e-6 of one half (a
  possible exact tie, or too close to call), a non-finite value, and a value
  outside the range above are formatted by ``"%.17g" %`` itself.
* The digits come from a 10000-entry table of 4-character groups; trailing
  zeros are dropped, and the layout is that of ``%g``: fixed notation for
  ``-4 <= k < 17``, else ``d.ddde±XX``; ``-0`` for negative zero.
"""

from __future__ import annotations

import math

import numpy as np

# Below and above these magnitudes the double-double product could leave the
# normal range, so such values take the per-value path.
_MIN_FAST, _MAX_FAST = 1e-280, 1e280
# Decimal scales 10**s the fast path uses: s = 16 - k with |k| <= 281.
_S_MIN, _S_MAX = 16 - 281, 16 + 281
_BLOCK = 1 << 14  # values formatted per block
_HALF_GUARD = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1 (Dekker split)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """10**s for each scale s as a double hi plus a double lo, each rounded
    to nearest from exact integer ratios (int / int is correctly rounded)."""
    hi = np.empty(_S_MAX - _S_MIN + 1)
    lo = np.empty_like(hi)
    for i, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi[i] = num / den
        h_num, h_den = float(hi[i]).as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    return (hi, *_split(hi), lo)


_P10_HI, _P10_HI_HI, _P10_HI_LO, _P10_LO = _pow10_table()

# "0000" .. "9999"; a 4-digit group is one 32-bit word of text
_GROUPS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_GROUP_WORDS = _GROUPS.copy().view(np.uint32).ravel()
# trailing zero count of each 4-digit group (4 for the group 0000)
_GROUP_TZ = (_GROUPS[:, ::-1] == ord("0")).cumprod(axis=1).sum(axis=1)

# The text of one value is built in a row of slots, then the slots its layout
# keeps are compressed out.  The row holds every character any layout uses,
# in order, so that a layout keeps a few runs of slots: the sign; the "0" of
# "0.000ddd"; the 17 digits (A), of which those before the point are kept;
# the 17 digits again (B), preceded by three "0" pads, of which the run from
# the point onwards is kept ("." is written over the slot before the first
# digit after the point, which is a pad for "0.000ddd"); "e", either
# exponent sign and the exponent's digits; the separator.  Digit groups are
# written as 32-bit words, so A, B and the exponent start on word
# boundaries.
_TEMPLATE = np.frombuffer(
    b"-0__" + b"0" * 20 + b"0" * 20 + b"e+-_" + b"0000" + b",___", dtype=np.uint8
)
_WIDTH = _TEMPLATE.size
_SIGN, _LEAD, _A, _B = 0, 1, 7, 27
_E, _EXP_PLUS, _EXP_MINUS, _EXP_ONES, _SEP = 44, 45, 46, 51, 52
# layout kinds: fixed notation for k = -4 .. 16, then exponent notation with
# two or three exponent digits, positive or negative exponent
_KIND_EXPONENTS = (*range(-4, 17), 17, 100, -5, -100)


def _kept_slots(k: int, nd: int) -> list:
    """Slots of the ``%.17g`` text of an unsigned value with decimal exponent
    k and nd significant digits, separator excluded; the point is at
    ``_B + k`` in fixed notation and at ``_B`` in exponent notation."""
    if -4 <= k < 0:
        return [_LEAD, *range(_B + k, _B + nd)]
    fixed = 0 <= k < 17
    before = k + 1 if fixed else 1
    slots = [*range(_A, _A + before)]
    if nd > before:
        slots += range(_B + before - 1, _B + nd)
    if not fixed:
        exponent = range(_EXP_ONES - 1 - (abs(k) >= 100), _EXP_ONES + 1)
        slots += [_E, _EXP_MINUS if k < 0 else _EXP_PLUS, *exponent]
    return slots


def _keep_table() -> np.ndarray:
    """Keep-masks indexed by ((kind * 17) + nd - 1) * 2 + negative."""
    table = np.zeros((len(_KIND_EXPONENTS), 17, 2, _WIDTH), dtype=bool)
    for kind, k in enumerate(_KIND_EXPONENTS):
        for nd in range(1, 18):
            table[kind, nd - 1, :, _kept_slots(k, nd)] = True
    table[..., 1, _SIGN] = True
    table[..., _SEP] = True
    return table.reshape(-1, _WIDTH)


_KEEP = _keep_table()


def _scaled(ax, k):
    """(p, t) with p + t = ax * 10**(16 - k) to within 1e-14; p is a double,
    an integer whenever the sum is at least 2**53."""
    i = (16 - _S_MIN) - k
    hi, hh, hl, lo = (np.take(t, i) for t in (_P10_HI, _P10_HI_HI, _P10_HI_LO, _P10_LO))
    p = ax * hi
    ah, al = _split(ax)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + ax * lo


def _digits(ax):
    """17-digit integers N and decimal exponents k with ax = N * 10**(k - 16)
    rounded to nearest, plus the mask of values left to ``%``."""
    zero = ax == 0.0
    fast = (ax >= _MIN_FAST) & (ax <= _MAX_FAST)
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    p, t = _scaled(ax, k)
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))
    low = (p < 1e16) | ((p == 1e16) & (t < 0))
    off = high.astype(np.int64) - low
    idx = np.flatnonzero(off)
    if idx.size:
        k[idx] += off[idx]
        p[idx], t[idx] = _scaled(ax[idx], k[idx])
    floor_t = np.floor(t)
    frac = t - floor_t
    n = p.astype(np.int64) + (floor_t + (frac > 0.5)).astype(np.int64)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _HALF_GUARD)
    # p below 2**53 may not be an integer; neither it nor an N outside the
    # 17-digit range can arise after the correction, but both would be wrong
    slow |= fast & ((p < 2.0**53) | (n < 10**16) | (n > 10**17))
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    n[zero] = 0
    k[zero] = 0
    return n, k, slow


class _Blocks:
    """Text buffers for blocks of up to `rows` rows of `ncols` values.  Slots
    that no value writes keep the template's characters across blocks."""

    def __init__(self, rows: int, ncols: int):
        self.chars = np.tile(_TEMPLATE, (rows * ncols, 1))
        self.chars.reshape(rows, ncols, _WIDTH)[:, -1, _SEP] = ord("\n")
        self.words = self.chars.view(np.uint32)
        self.keep = np.empty_like(self.chars, dtype=bool)
        self.groups = np.empty((rows * ncols, 5), dtype=np.int64)

    def format(self, x: np.ndarray) -> np.ndarray:
        """uint8 text of the values x, whole rows of `ncols`."""
        m = x.size
        chars, words, keep, groups = self.chars[:m], self.words[:m], self.keep[:m], self.groups[:m]
        n, k, slow = _digits(np.abs(x))
        hi, lo = np.divmod(n, 10**8)
        np.divmod(lo, 10**4, out=(groups[:, 3], groups[:, 4]))
        np.divmod(hi, 10**4, out=(lo, groups[:, 2]))
        np.divmod(lo, 10**4, out=(groups[:, 0], groups[:, 1]))
        digit_words = np.take(_GROUP_WORDS, groups)
        words[:, _A // 4:_A // 4 + 5] = digit_words
        words[:, _B // 4:_B // 4 + 5] = digit_words
        words[:, _EXP_ONES // 4] = np.take(_GROUP_WORDS, np.abs(k))

        # significant digits after dropping trailing zeros: from the last
        # group, or from an earlier one for the few values whose last group is 0
        nd = 17 - np.take(_GROUP_TZ, groups[:, 4])
        short = np.flatnonzero(groups[:, 4] == 0)
        for j in range(3, 0, -1):
            g = groups[short, j]
            nd[short] = np.where(g != 0, 1 + 4 * j - np.take(_GROUP_TZ, g), nd[short])
            short = short[g == 0]
        nd[short] = 1
        fixed = (k >= -4) & (k < 17)
        point = np.where(fixed, k, 0)
        point += np.arange(_B, _B + m * _WIDTH, _WIDTH)
        chars.ravel()[point] = ord(".")
        kind = np.where(fixed, k + 4, 21 + (np.abs(k) >= 100) + 2 * (k < 0))
        code = (kind * 17 + nd - 1) * 2 + np.signbit(x)
        np.take(_KEEP, code, axis=0, out=keep)

        rows = np.flatnonzero(slow)
        for i in rows:
            text = np.frombuffer(("%.17g" % x[i]).encode(), dtype=np.uint8)
            chars[i, :text.size] = text
            keep[i, :_SEP] = np.arange(_SEP) < text.size
        out = chars[keep]
        for i in rows:
            chars[i, :_SEP] = _TEMPLATE[:_SEP]
        return out


def write_csv(path, a) -> None:
    """Write a 1-D (one value per line) or 2-D float array to `path` as CSV
    text with every value formatted as ``"%.17g" % x``: the bytes of
    ``np.savetxt(path, a, delimiter=",", fmt="%.17g")``.  Rows are formatted
    a block at a time, so memory beyond `a` stays small."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got {a.ndim}-D")
    with open(path, "wb") as fh:
        if a.size == 0:
            fh.write(b"\n" * a.shape[0])
            return
        rows = max(1, _BLOCK // a.shape[1])
        blocks = _Blocks(min(rows, a.shape[0]), a.shape[1])
        for i in range(0, a.shape[0], rows):
            fh.write(blocks.format(a[i:i + rows].ravel()))


def finite_or_null(values) -> list:
    """`values` as a JSON list, each non-finite number written as null (an
    overflowed network can respond with inf or nan)."""
    return [v if math.isfinite(v) else None for v in np.asarray(values, dtype=float).tolist()]
