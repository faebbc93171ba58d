"""`'%.17g' % v` of float arrays, byte for byte, computed in numpy.

For 0 < x < 1 the 17 significant digits are D = round(x 10^(16 - E)) with
E = floor(log10 x), and 10^16 <= D < 10^17.  x 10^s, s = 16 - E, is
ldexp(x, s) 5^s, where ldexp is exact and 5^s is held as a pair hi + lo of
doubles rounded from the exact integer.  Dekker's exact two-product (Numer.
Math. 18, 1971) gives ldexp(x, s) hi as p + e with no error, so
x 10^s = p + q, q = e + ldexp(x, s) lo, with a relative error below 2^-100:
an absolute error below 1e-13 on a q of a few units.  The estimate of E
from `log10` can be off by one next to a power of ten; those rows are
scaled again with E corrected until p + q lies in [10^16, 10^17).  A value whose fraction q - round(q) is
within `TIE_MARGIN` of 1/2, where the error could decide the rounding, is left
to the `%` template, as is any value outside (0, 1): zeros, negatives, ones
and the non-finite.

The text is laid out with the `%g` rules: fixed notation for -4 <= E < 0,
exponent notation below, trailing zeros stripped, and at least two exponent
digits.  Each value takes four 8-byte words, padded with `PAD`, a byte that
UTF-8 text never holds, so that dropping every `PAD` byte of a buffer leaves
the text.
"""

from __future__ import annotations

import numpy as np

PAD = 0xFF
TIE_MARGIN = 1e-9
WORDS = 4  # 8-byte words per value: lead, 16 fraction digits, exponent and newline

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
_S = range(342)  # s = 16 - E over E in [-325, 0]: the floor(log10 x) estimates and their corrections


def _split(a):
    """a as hi + lo with 26-bit halves, so that products of halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW5 = [5**s for s in _S]
_POW5_HI = np.array([float(p) for p in _POW5])
_POW5_LO = np.array([float(p - int(hi)) for p, hi in zip(_POW5, _POW5_HI.tolist())])
_POW5_HH, _POW5_HL = _split(_POW5_HI)


def pad_words(texts, width: int, dtype=np.uint64, right: bool = False) -> np.ndarray:
    """The byte strings `texts`, each padded with PAD to `width` bytes (on the
    left where `right`), as one flat array of `dtype` words."""
    pad = bytes([PAD])
    fill = (lambda t: t.rjust(width, pad)) if right else (lambda t: t.ljust(width, pad))
    return np.frombuffer(b"".join(map(fill, texts)), dtype)


def _quads():
    """The text of 0000..9999 as uint32 words: as printed, and with trailing
    zeros turned into PAD.  Built in numpy: 10^4 byte strings would add ~1 MB
    to the peak memory."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return text.view(np.uint32).ravel(), np.where(trailing, np.uint8(PAD), text).view(np.uint32).ravel()


# the fraction's digits four at a time: as printed, stripped, and none
_QUAD, _QUAD_STRIPPED = _quads()
_QUAD_PAD = np.uint32(0xFFFF_FFFF)


def _lead(notation: int, d: int) -> bytes:
    """The text before the fraction digits, for first digit d: 0.d to 0.000d in
    fixed notation 1 to 4 (E = -notation), d. before the fraction and the
    exponent in notation 5, d alone before the exponent in notation 6."""
    if notation <= 4:
        return b"0." + b"0" * (notation - 1) + b"%d" % d
    return b"%d." % d if notation == 5 else b"%d" % d


# word 0 by notation and first digit, word 3 by -E
_LEAD = pad_words([_lead(notation, d) for notation in range(7) for d in range(10)], 8, right=True)
_TAIL = pad_words([b"\n" if k <= 4 else b"e-%02d\n" % k for k in range(326)], 8)


def _scaled(x: np.ndarray, E: np.ndarray):
    """x 10^(16 - E) as p + q: p the rounded product ldexp(x, s) hi, q the rest."""
    s = 16 - E
    a = np.ldexp(x, s.astype(np.int32))  # numpy's int64 ldexp loop is ~10x slower
    ah, al = _split(a)
    hh, hl = _POW5_HH[s], _POW5_HL[s]
    p = a * _POW5_HI[s]
    q = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * _POW5_LO[s]
    return p, q


def _outside(p, q):
    """-1 where p + q < 10^16, +1 where p + q >= 10^17, else 0."""
    low = (p < 1e16) | ((p == 1e16) & (q < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (q >= 0.0))
    return high.astype(np.intp) - low


def _digits(x: np.ndarray):
    """(D, E, exact) for a float64 array x: x = D 10^(E - 16) to 17 significant
    digits where `exact`; rows that are not exact hold no meaningful D or E."""
    exact = (x > 0.0) & (x < 1.0)
    if not exact.all():
        x = np.where(exact, x, 0.5)
    E = np.floor(np.log10(x)).astype(np.intp)
    p, q = _scaled(x, E)
    # E is off where p + q lies outside [10^16, 10^17), which p then does too
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    while edge.size:
        off = _outside(p[edge], q[edge])
        edge = edge[off != 0]
        E[edge] += off[off != 0]
        p[edge], q[edge] = _scaled(x[edge], E[edge])
    r = np.rint(q)
    exact &= np.abs(q - r) < 0.5 - TIE_MARGIN
    D = p.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(D == 10**17)  # rounding reached the next power of ten
    D[carry] = 10**16
    E[carry] += 1
    return D, E, exact


def write_g17(x: np.ndarray, out: np.ndarray) -> int:
    """Write `'%.17g\\n' % v` of each value v of the 1-D float64 array x into
    the matching row of `out`, a (len(x), WORDS) uint64 array, padded with PAD
    bytes.  Returns how many values went through the `%` template."""
    D, E, exact = _digits(x)
    k = -E
    # floor division by a constant is fast in numpy, its remainder is not: take it as a difference
    top = D // 10**8
    d0 = top // 10**8
    quads = []
    for part in (top - d0 * 10**8, D - top * 10**8):
        high = part // 10**4
        quads += [high, part - high * 10**4]
    q32 = out.view(np.uint32)
    for i, quad in enumerate(quads):
        q32[:, 2 + i] = (_QUAD if i < 3 else _QUAD_STRIPPED)[quad]
    lead = np.minimum(k, 5) * 10 + d0
    # a last quad of zeros: strip from the last quad that has a nonzero digit
    rare = np.flatnonzero(quads[3] == 0)
    if rare.size:
        rare_quads = [quad[rare] for quad in quads]
        last = np.select([quad != 0 for quad in rare_quads[2::-1]], [2, 1, 0], -1)
        for i, quad in enumerate(rare_quads):
            q32[rare, 2 + i] = np.where(i < last, _QUAD[quad], np.where(i == last, _QUAD_STRIPPED[quad], _QUAD_PAD))
        lead[rare[(last < 0) & (k[rare] > 4)]] += 10  # no fraction digit left: no point before the exponent
    out[:, 0] = _LEAD[lead]
    out[:, 3] = _TAIL[k]
    rest = np.flatnonzero(~exact)
    text = out.view(np.uint8)
    for row in rest:
        line = ("%.17g\n" % float(x[row])).encode()
        text[row] = PAD
        text[row, : len(line)] = np.frombuffer(line, np.uint8)
    return len(rest)
