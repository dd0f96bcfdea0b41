"""CSV rows of integer and float cells, formatted by numpy.

format_rows(ints, floats) returns, byte for byte,

    "".join(",".join(["%d" % v for v in i] + ["%.17g" % v for v in f]) + "\\n"
            for i, f in zip(ints.tolist(), floats.tolist()))

Each cell becomes one or more 64-bit words of ASCII, padded with NUL bytes
anywhere; a row is its cells' words, each cell's last byte holding its
separator, and the NULs are deleted from the whole text at the end.

A float cell x = +-0 or 1e-4 <= |x| < 1e17 is where '%.17g' writes fixed
point: |x| rounds to D * 10**(X - 16), D the integer of 17 digits and X in
[-4, 16]. X comes from log10. Dekker's TwoProduct (Dekker 1971, "A
floating-point technique for extending the available precision") splits
|x| * 10**(16 - X) exactly into hi + lo; 10**k is exact for k <= 22. An X
that log10 put in the next decade shows as hi + lo outside [1e16, 1e17) and
is moved. hi >= 2**53 is an even integer, so D = hi + rint(lo) and rint's
ties-to-even is the rounding of '%'. D never rounds up to 10**17: the
largest double below 10**(X + 1) scales to at most 10**17 - 8. The digits
come from a table of four ASCII digits per word; trailing zeros of the
fraction are dropped.
An integer cell 0 <= v < 10**7 is two table lookups. Every other cell (nan,
+-inf, |x| < 1e-4, |x| >= 1e17, and integers outside [0, 10**7)) goes
through '%' one at a time.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_U64 = np.dtype("<u8")
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)
_SPLIT = 2.0 ** 27 + 1    # Veltkamp's splitter for 53-bit doubles


def _split(a):
    """(ah, al): a == ah + al exactly, each of at most 26 significant bits."""
    t = a * _SPLIT
    ah = t - (t - a)
    return ah, a - ah


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use so that importing stays cheap."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    # the four digits of g in ASCII, the first in the lowest byte
    padded = ((48 + digits) << np.arange(0, 32, 8)).sum(axis=1).astype(np.uint64)
    # g without leading zeros (g = 0 is "0"), from the lowest byte up
    length = 1 + (g >= 10) + (g >= 100) + (g >= 1000)
    left = padded >> (8 * (4 - length)).astype(np.uint64)
    pow10 = np.array([float(10 ** k) for k in range(21)])
    pow10_hi, pow10_lo = _split(pow10)

    # Masks of the float text by code = (neg * 21 + X + 4) * 18 + keep, where
    # keep is the number of digits of D written. The digit string Z holds
    # "000" in bytes 2-4 and the 17 digits of D in bytes 5-21, and S is Z one
    # byte up. Text = (Z & INT) | (S & FRAC) | MARKS: the X + 1 integer
    # digits from Z, the dot, then the fraction from S up to digit keep - 1;
    # for X < 0 the fraction begins with -X - 1 of the zeros after "0.".
    neg, X, keep = (v.reshape(-1, 1) for v in np.meshgrid(
        [0, 1], np.arange(-4, 17), np.arange(18), indexing="ij"))
    j = np.arange(24)
    masks = np.zeros((3, len(X), 24), dtype=np.uint8)
    masks[0][(j >= 5) & (j < 6 + X)] = 0xFF
    masks[1][(j >= 7 + X) & (j < 6 + keep)] = 0xFF
    masks[2][(j == 6 + X) & (keep > X + 1)] = ord(".")
    masks[2][(j == 5 + X) & (X < 0)] = ord("0")
    masks[2][(j == 4 + np.minimum(X, 0)) & (neg == 1)] = ord("-")
    return SimpleNamespace(
        padded=padded,
        head=np.where(g > 0, left, 0).astype(np.uint64),  # 0 is no bytes
        tail=np.concatenate([left, padded]),   # index + 10**4: padded
        zeros=(digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1),
        pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10_lo,
        masks=masks.view(_U64).transpose(2, 0, 1).copy())  # [word, mask, code]


def _two_product(t, a, k):
    """(hi, lo): hi = fl(a * 10**k) and hi + lo == a * 10**k exactly."""
    bh, bl = t.pow10_hi.take(k), t.pow10_lo.take(k)
    hi = a * t.pow10.take(k)
    ah, al = _split(a)
    lo = hi - ah * bh       # Dekker's order keeps each step exact
    lo -= al * bh
    lo -= ah * bl
    np.subtract(al * bl, lo, out=lo)
    return hi, lo


def _float_words(x):
    """Three words of the '%.17g' text of each x, and the indices left to '%'."""
    t = _tables()
    a = np.abs(x)
    nonzero = a != 0
    outside = (a < 1e-4) | ~(a < 1e17)     # NaN is outside
    np.copyto(a, 2.0, where=outside)       # far from a power of ten
    rest = np.flatnonzero(outside & nonzero)
    X = np.floor(np.log10(a))
    np.clip(X, -4, 16, out=X)
    X = X.astype(np.intp)
    hi, lo = _two_product(t, a, 16 - X)
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:          # log10 missed the decade next to a power of ten
        h, l = hi[near], lo[near]
        X[near] += ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.intp)
        X[near] -= (h < 1e16) | ((h == 1e16) & (l < 0))
        hi[near], lo[near] = _two_product(t, a[near], 16 - X[near])
    D = hi.astype(np.int64)
    D += np.rint(lo).astype(np.int64)
    D *= nonzero
    # digits 0-2 (one leading zero), 3-6, 7-10, 11-14, and 15-16 times 100
    g0 = D // 10 ** 14
    D -= g0 * 10 ** 14
    g3 = D // 100
    g4 = D - g3 * 100
    g4 *= 100
    g1 = g3 // 10 ** 8
    g3 -= g1 * 10 ** 8
    g2 = g3 // 10 ** 4
    g3 -= g2 * 10 ** 4
    keep = 19 - t.zeros.take(g4)
    ends = np.flatnonzero((g4 == 0) & nonzero)
    if ends.size:          # digits 15 and 16 are zero: count on to the left
        zeros = 0
        for g in (g0, g1, g2, g3):
            g = g[ends]
            zeros = np.where(g == 0, zeros + 4, t.zeros.take(g))
        keep[ends] -= zeros
    keep *= nonzero        # +-0 writes its integer digit alone
    code = X + 4
    code *= 18
    code += keep
    code -= (x.view(np.int64) >> 63) * (21 * 18)   # the sign bit
    words = []
    for low, high in ((None, g0), (g1, g2), (g3, g4)):
        z = t.padded.take(high)
        z <<= np.uint64(32)
        z |= np.uint64(0x30300000) if low is None else t.padded.take(low)
        words.append(z)
    carry = 0
    for z, (int_mask, frac_mask, marks) in zip(words, t.masks):
        s = z << np.uint64(8)
        s |= carry
        carry = z >> np.uint64(56)
        z &= int_mask.take(code)
        s &= frac_mask.take(code)
        z |= s
        z |= marks.take(code)
    return words, rest


def _int_words(v):
    """One word of the '%d' text of each v, and the indices left to '%'.

    The word holds v // 10**4 (no bytes if 0) in bytes 0-2, then the four
    digits of the rest; or, below 10**4, v alone from byte 0.
    """
    t = _tables()
    rest = np.flatnonzero((v < 0) | (v >= 10 ** 7))
    v = v.copy()
    v[rest] = 0
    head = v // 10 ** 4
    v -= head * 10 ** 4
    shift = (head > 0).astype(np.uint64)
    v += shift.astype(np.intp) * 10 ** 4
    shift *= np.uint64(24)
    words = t.tail.take(v)
    words <<= shift
    words |= t.head.take(head)
    return words, rest


def format_rows(ints, floats) -> str:
    """The CSV text of the rows [*ints[r], *floats[r]]: '%d' and '%.17g' cells.

    ints is an (R, I) integer array and floats an (R, F) float array.
    """
    ints = np.asarray(ints, dtype=np.int64)
    floats = np.asarray(floats, dtype=np.float64)
    rows, n_int = ints.shape
    n_float = floats.shape[1]
    int_words, int_rest = _int_words(ints.ravel())
    float_words, float_rest = _float_words(floats.ravel())
    int_texts = [b"%d" % v for v in ints.ravel()[int_rest].tolist()]
    float_texts = [b"%.17g" % v for v in floats.ravel()[float_rest].tolist()]
    # words per cell: room for its longest text and the separator after it
    wi = (max([7] + [len(s) for s in int_texts]) + 8) // 8
    wf = (max([23] + [len(s) for s in float_texts]) + 8) // 8
    width = n_int * wi + n_float * wf
    buf = bytearray(8 * rows * width)
    out = np.frombuffer(buf, dtype=_U64).reshape(rows, width)
    int_cells = out[:, :n_int * wi].reshape(rows, n_int, wi)
    float_cells = out[:, n_int * wi:].reshape(rows, n_float, wf)
    int_cells[:, :, 0] = int_words.reshape(rows, n_int)
    for k, words in enumerate(float_words):
        float_cells[:, :, k] = words.reshape(rows, n_float)
    for cells, rest, texts in ((int_cells, int_rest, int_texts),
                               (float_cells, float_rest, float_texts)):
        if texts:
            size = 8 * cells.shape[2]
            words = b"".join(text.ljust(size, b"\0") for text in texts)
            cells[np.divmod(rest, cells.shape[1])] = np.frombuffer(
                words, dtype=_U64).reshape(len(texts), -1)
        cells[:, :, -1] |= _COMMA
    out[:, -1] ^= _COMMA ^ _NEWLINE      # a row ends in a newline
    return buf.translate(None, b"\0").decode("ascii")
