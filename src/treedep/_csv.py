"""Exact ``%.17g`` CSV writing without a Python call per value.

``write_csv`` writes the same bytes as ``np.savetxt(path, table,
delimiter=",", fmt="%.17g", header=header, comments="")``, block by block.

Fast path, for zeros and for finite normal values whose decimal exponent
lies in the power-of-ten table: the decimal exponent E comes from ``log10``,
corrected by one where the scaled value leaves [1e16, 1e17); the 17 digits
are round(|x| * 10^(16-E)), where the product is taken in double-double
(Dekker's error-free product against an exact (hi, lo) split of 10^k, so no
fused multiply-add is needed) and its error, below 1e-13 units of the last
digit, is far inside the tie margin; digits become ASCII by a 4-digit table,
and each value is laid out by a per-shape gather index following the ``%g``
rules.  Everything else -- fractions within ``_TIE_MARGIN`` of one half,
subnormals, inf, nan and exponents outside the table -- is formatted by
Python's ``"%.17g" % v``, which is what ``np.savetxt`` calls, so every byte
matches it.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK_VALUES = 1 << 13

# Decimal exponents taken by the fast path.  Inside this range no step of
# Dekker's product overflows or underflows and every lo part is a normal double.
_E_MIN, _E_MAX = -280, 280
_TIE_MARGIN = 2.0**-20
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
_WIDTH = 25  # longest %.17g text ("-1.2345678901234567e-100") plus a delimiter

# Columns of the per-value gather source: four '0' pads, the 17 digits (the
# last 16 on a 4-byte boundary, so digit groups land as uint32 words), '.',
# '-', the exponent suffix and the delimiter that follows the value.
_PAD0 = 3
_D0 = _PAD0 + 4
_DOT = _D0 + 17
_MINUS = _DOT + 1
_SUFFIX = _MINUS + 1
_DELIM = _SUFFIX + 5
_SRC = _DELIM + 1


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """Power-of-ten, digit and layout tables, built once.

    ``pow10`` holds 10^k as an exact double-double from integers: hi is 10^k
    correctly rounded and lo the remainder 10^k - hi correctly rounded, with
    hi pre-split for Dekker's product.  A layout key (sign, %g exponent X,
    count of significant digits) picks a row of ``index``, the source column
    of each output byte, and of ``mask``, the bytes kept.  X = -5 and -6
    stand for exponential notation with a two- and a three-digit exponent.
    """
    ks = range(16 - _E_MAX - 1, 16 - _E_MIN + 2)
    hi, lo = [], []
    for k in ks:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    pow10 = (hi, *_split(hi), np.array(lo), ks[0])

    place = 10 ** np.arange(3, -1, -1)
    quads = (ord("0") + np.arange(10000)[:, None] // place % 10).astype(np.uint8)
    quads = quads.view(np.uint32).ravel()
    zeros4 = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5))
    suffix = np.array([b"e%+03d" % e for e in range(-400, 400)], dtype="S5")
    suffix = suffix.view(np.uint8).reshape(-1, 5)

    neg = np.arange(2)[:, None, None, None]
    x = np.arange(-6, 17)[:, None, None]
    nd = np.arange(18)[:, None]
    j = np.arange(_WIDTH)
    fixed = x >= -4
    start = np.where(fixed, _D0 + np.minimum(x, 0), _D0)
    ints = np.where(fixed, np.maximum(x, 0) + 1, 1)
    last = _D0 + nd - 1
    body = np.where(last >= start + ints, last - start + 2, ints)
    size = neg + body + np.where(fixed, 0, -x - 1)
    q = j - neg
    idx = np.where(q > ints, start + q - 1, start + q)
    idx = np.where(q == ints, _DOT, idx)
    idx = np.where(q >= body, _SUFFIX + q - body, idx)
    idx = np.where(q < 0, _MINUS, idx)
    idx = np.minimum(np.where(j == size, _DELIM, idx), _SRC - 1)
    return (pow10, quads, zeros4, suffix,
            idx.reshape(-1, _WIDTH), (j <= size).reshape(-1, _WIDTH))


def _scaled(ax, e, pow10):
    """(n, r): floor and fraction of ax * 10^(16-e), with error below 1e-13."""
    hi, hi_h, hi_l, lo, k0 = pow10
    k = 16 - e - k0
    bh, bl = hi_h[k], hi_l[k]
    p = ax * hi[k]
    ah, al = _split(ax)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    n = np.floor(p)
    r = (p - n) + (err + ax * lo[k])
    carry = np.floor(r)
    return n.astype(np.int64) + carry.astype(np.int64), r - carry


class _BlockFormatter:
    """Formats blocks of up to ``capacity`` values of a ``cols``-column table.

    It owns the scratch arrays, reused for every block so that no large
    temporary is allocated per block: ``src`` holds one gather-source row per
    value, its constant columns (pads, '.', '-', the delimiter after each
    value) filled in here; ``base`` is each output byte's source-row offset.
    """

    def __init__(self, capacity: int, cols: int):
        self.src = np.empty((capacity, _SRC), dtype=np.uint8)
        self.src[:, _PAD0:_D0] = ord("0")
        self.src[:, _DOT] = ord(".")
        self.src[:, _MINUS] = ord("-")
        self.src[:, _DELIM] = ord(",")
        self.src[cols - 1 :: cols, _DELIM] = ord("\n")
        self.base = np.repeat(np.arange(capacity) * _SRC, _WIDTH).reshape(capacity, _WIDTH)
        self.index = np.empty((capacity, _WIDTH), dtype=np.intp)
        self.text = np.empty((capacity, _WIDTH), dtype=np.uint8)
        self.keep = np.empty((capacity, _WIDTH), dtype=bool)

    def format(self, values: np.ndarray) -> bytes:
        """Text of a flat block of values, each followed by its delimiter."""
        pow10, quads, zeros4, suffix, index, mask = _tables()
        count = values.size
        ax = np.abs(values)
        neg = np.signbit(values).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.floor(np.log10(ax))
        zero = ax == 0
        scaled = (e >= _E_MIN) & (e <= _E_MAX)  # excludes subnormals, inf and nan
        fast = zero | scaled
        e = np.where(scaled, e, 0).astype(np.int64)
        ax = np.where(scaled, ax, 1.0)

        n, r = _scaled(ax, e, pow10)
        off = np.flatnonzero((n < 10**16) | (n >= 10**17))
        if off.size:
            e[off] += np.where(n[off] < 10**16, -1, 1)
            n[off], r[off] = _scaled(ax[off], e[off], pow10)
        fast &= (np.abs(r - 0.5) >= _TIE_MARGIN) & (n >= 10**16) & (n < 10**17)
        digits = n + (r > 0.5)
        top = digits == 10**17
        digits[top] = 10**16
        e += top
        digits[zero] = 0

        src = self.src[:count]
        src[:, _D0] = ord("0") + digits // 10**16
        words = src.view(np.uint32)
        hi8, lo8 = np.divmod(digits % 10**16, 10**8)
        groups = np.divmod(hi8, 10**4) + np.divmod(lo8, 10**4)
        nd = np.full(count, 17)  # significant digits once trailing zeros go
        trailing = np.ones(count, dtype=bool)
        for col in range(3, -1, -1):
            words[:, (_D0 + 1) // 4 + col] = quads[groups[col]]
            nd -= trailing * zeros4[groups[col]]
            trailing &= groups[col] == 0
        sci = (e < -4) | (e >= 17)
        src[sci, _SUFFIX:_DELIM] = suffix[e[sci] + 400]
        layout = np.where(sci, -5 - (np.abs(e) >= 100), e)

        # row of the (sign, X + 6, nd) layout table; mode="clip" because the
        # default mode="raise" copies through a buffer when given ``out``
        key = (neg * 23 + layout + 6) * 18 + nd
        gather = self.index[:count]
        np.take(index, key, axis=0, out=gather, mode="clip")
        gather += self.base[:count]
        text = self.text[:count]
        np.take(src.ravel(), gather, out=text, mode="clip")
        keep = self.keep[:count]
        np.take(mask, key, axis=0, out=keep, mode="clip")
        slow = np.flatnonzero(~fast)
        for i, v in zip(slow.tolist(), values[slow].tolist()):
            raw = ("%.17g" % v).encode()
            text[i, : len(raw)] = np.frombuffer(raw, dtype=np.uint8)
            text[i, len(raw)] = src[i, _DELIM]
            keep[i] = np.arange(_WIDTH) <= len(raw)
        return text[keep].tobytes()


def write_csv(path, header: str, table) -> None:
    """Write a 2-D float64 table as CSV, the bytes ``np.savetxt`` writes with
    ``delimiter=","``, ``fmt="%.17g"`` and ``comments=""``.

    ``header`` is written as its own line unless it is empty.  Memory beyond
    the table stays O(``BLOCK_VALUES``).
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] == 0:
        raise ValueError(f"expected a 2-D table with columns, got shape {table.shape}")
    rows, cols = table.shape
    per_block = max(1, BLOCK_VALUES // cols)
    formatter = _BlockFormatter(min(rows, per_block) * cols, cols)
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        for start in range(0, rows, per_block):
            fh.write(formatter.format(table[start : start + per_block].ravel()))
