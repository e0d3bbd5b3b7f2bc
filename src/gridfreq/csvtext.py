"""CSV text of float64 cells: each value exactly as f"{v:.9g}", vectorised.

format_rows turns a block of float64 rows into CSV lines, the bytes that
",".join(f"{v:.9g}" for v in row) + "\\n" gives for each row, with no
Python per value. Each cell becomes a 32-byte row of four little-endian
words; every byte it does not keep is NUL, and one bytes.translate drops
them all:

    byte  0      '-'
    bytes 1-5    '0.000', the lead of fixed notation below 1
    bytes 6-22   d1 . d2 . d3 ... d8 . d9, a '.' slot after each digit
    bytes 24-27  'e+XX' / 'e-XX'
    byte  28     the separator: ',' or, for a row's last cell, '\\n'

The other bytes (23, 29-31) carry the digit count and notation class that
pick the cell's mask, and are never kept.

How a cell is formatted:

1. Exponent and mantissa. X = floor(log10|v|), then s = |v| 10^(8-X),
   with 10^k from a table of correctly rounded powers of ten. m = rint(s)
   is the 9-digit mantissa, and m = 1e9 carries back to 1e8 at X + 1.
   log10 can put X one off only within about 1e-13 (relative) of a power
   of ten, where s lies that close to 1e8 or 1e9 and rounds to the same
   digits and X as the exact value does.
2. Digits. m splits into d1 and two 4-digit groups, each one lookup in a
   10000-entry table of words that already hold the digits, the '.' slots
   and the digit counts used below.
3. Bytes to keep. "%.9g" writes fixed notation for X = -4..8 and exponent
   notation otherwise, without trailing zeros. A mask word table, indexed
   by (sign, notation class, significant digits), keeps each cell's bytes;
   the classes are fixed notation for each X = -4..8, exponent notation,
   and zero.
4. Exact fallback. A cell takes f"{v:.9g}" itself, spliced into its row,
   when it is not finite, when |v| is outside [1e-99, 1e98] (so every
   vectorised exponent has two digits), or when s lies within 1e-5 of a
   rounding tie. s has two roundings (the table entry and the product),
   so it is within 2^-52 s < 2.3e-7 of the exact |v| 10^(8-X): away from
   a tie, rint(s) rounds the way the exact decimal expansion does, which
   is how Python rounds. About 2 cells in 10^5 fall in that tie window.

The tables are built with NumPy arithmetic on the first call, not at
import, the powers of ten from Python ints (float(10**k) and 1 / 10**-k,
each correctly rounded).
"""
from __future__ import annotations

import functools

import numpy as np

_LO, _HI = 1e-99, 1e98      # the range the vectorised path formats
_TIE = 0.5 - 1e-5           # |s - rint(s)| above this takes the fallback
_POW_LO = -92               # powers[i] = 10^(i + _POW_LO)
_X0 = 101                   # row of X in the exponent tables
_ZERO_ROW = 2 * _X0 + 1     # the exponent-table row of zero cells
_EXP, _ZERO = 13, 14        # notation classes after fixed X = -4..8
_K1, _K2 = 6, 10            # sizes of the mask table's k1 and k2 axes (below)
_PER_SIGN = 15 * _K2 * _K1  # mask rows per sign


def _words(byte_columns) -> np.ndarray:
    """Little-endian int64 words from 8 broadcastable columns of bytes."""
    w = np.zeros(np.broadcast(*byte_columns).shape, np.int64)
    for i, b in enumerate(byte_columns):
        w |= np.asarray(b, np.int64) << (8 * i)
    return w.astype("<i8")


@functools.cache
def _tables():
    dot, zero = ord("."), ord("0")
    # digit words of a 4-digit group g (d . d . d . d [.]), with the
    # group's significant digits: k1 counts from d1 when the last group is
    # zero, and the last group's byte 7 holds k2 * _K1, k2 = 5 + its digits
    g = np.arange(10000)
    d = [zero + g // 1000, zero + g // 100 % 10, zero + g // 10 % 10, zero + g % 10]
    sig = np.select([g % 10 > 0, g % 100 > 0, g % 1000 > 0, g > 0], [4, 3, 2, 1], 0)
    group1 = _words([d[0], dot, d[1], dot, d[2], dot, d[3], dot])
    group2 = _words([d[0], dot, d[1], dot, d[2], dot, d[3], np.where(sig > 0, 5 + sig, 0) * _K1])
    group1_k1 = 1 + sig
    lead = _words([ord("-"), zero, dot, zero, zero, zero, zero + np.arange(10), dot])
    powers = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k
                       for k in range(_POW_LO, 110)])
    # exponent words 'e', sign, two digits, ',' and the class's mask offset
    x = np.arange(2 * _X0 + 2) - _X0
    cls = np.where((x >= -4) & (x <= 8), x + 4, _EXP)
    cls[_ZERO_ROW] = _ZERO
    offset = cls * (_K2 * _K1)
    exponent = _words([ord("e"), np.where(x < 0, ord("-"), ord("+")),
                       zero + abs(x) // 10 % 10, zero + abs(x) % 10, ord(","),
                       offset & 255, offset >> 8, 0])
    # mask words, rows (sign, class, k2, k1); k = k2 if the last group is nonzero
    s, c, k2, k1, col = np.ix_(range(2), range(15), range(_K2), range(_K1), range(32))
    k = np.where(k2 > 0, k2, k1)
    X = c - 4
    below1 = (c < _EXP) & (X < 0)
    j = (col - 6) // 2                      # the digit, or the digit before a '.' slot
    digit = (col >= 6) & (col <= 22) & (col % 2 == 0)
    dot_slot = (col >= 7) & (col <= 21) & (col % 2 == 1)
    kept = np.where((c < _EXP) & (X >= 0), np.maximum(k, X + 1), k)
    point = np.where(c == _EXP, 0, X)       # the '.' follows digit point
    keep = (((col == 0) & (s == 1)) | (col == 28)
            | ((col == 1) & (below1 | (c == _ZERO))) | ((col == 2) & below1)
            | ((col >= 3) & (col <= 5) & below1 & (col - 3 < -X - 1))
            | (digit & (c != _ZERO) & (j < kept))
            | (dot_slot & (c != _ZERO) & ~below1 & (j == point) & (k > point + 1))
            | ((col >= 24) & (col <= 27) & (c == _EXP)))
    masks = np.where(keep, 255, 0).astype(np.uint8).reshape(-1, 32).view("<i8")
    return lead, group1, group2, group1_k1, powers, exponent, masks


def format_rows(block: np.ndarray) -> bytes:
    """CSV lines of a 2-D float64 block: per row, ",".join(f"{v:.9g}") and
    "\\n". The transient is about 110 bytes per cell."""
    lead, group1, group2, group1_k1, powers, exponent, masks = _tables()
    ncols = block.shape[1]
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    c = np.fmin(np.fmax(a, _LO), _HI)       # nan -> _LO: every c is formattable
    zero = v == 0
    fallback = (c != a) ^ zero
    del a
    x = np.floor(np.log10(c)).astype(np.intp)
    s = c * powers[8 - _POW_LO - x]
    del c
    m = np.rint(s)
    fallback |= np.abs(s - m) > _TIE
    del s
    carry = m == 1e9
    if carry.any():
        m[carry] = 1e8
        x += carry
    digits = m.astype(np.intp)
    del m
    first5 = digits // 10000
    last4 = digits - first5 * 10000
    d1 = first5 // 10000
    mid4 = first5 - d1 * 10000
    del digits, first5
    x += _X0
    if zero.any():
        x[zero] = _ZERO_ROW

    rows = np.empty((n, 4), "<i8")
    rows[:, 0] = lead[d1]
    rows[:, 1] = group1[mid4]
    w = group2[last4]
    rows[:, 2] = w
    key = (w >> 56) + group1_k1[mid4]
    w = exponent[x]
    rows[:, 3] = w
    key += w >> 40
    key += np.signbit(v) * _PER_SIGN
    del w, x, d1, mid4, last4
    rows &= masks.take(key, axis=0)
    text = rows.view(np.uint8).reshape(n, 32)
    text[ncols - 1::ncols, 28] = ord("\n")
    for i in np.flatnonzero(fallback):
        t = f"{v[i]:.9g}".encode()
        text[i] = 0
        text[i, :len(t)] = np.frombuffer(t, np.uint8)
        text[i, len(t)] = ord("\n") if i % ncols == ncols - 1 else ord(",")
    return rows.tobytes().translate(None, b"\0")
