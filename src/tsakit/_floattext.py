"""``repr``'s exact text of every float in an array at once, and the CSV
lines made of such texts.

A float's digits are the shortest that read back as it, and of those the
closest: ``repr``'s digits. Ryū (Adams, "Ryū: fast float-to-string
conversion", PLDI 2018) finds them with fixed-width integer arithmetic,
which here runs over whole ``uint64`` arrays. A column of texts is a list of
words: ``uint64`` arrays holding one word of each text, its characters in
the bytes from the lowest, each part at a fixed place and NUL in the places
a text leaves empty. A float's places are: the sign, ``0.`` and up to three
zeros, 17 digits each followed by a slot for the point (an integer value's
zeros and ``.0`` among them), then ``e``, a sign and three digits.
``_lines`` lays columns side by side, one line per text, and deletes the
NULs. Every operand of the digits' arithmetic is a ``uint64`` array or a
non-negative Python int: numpy makes ``uint64`` mixed with ``int64``
float64, and numpy scalars warn on the overflow that arrays wrap.
"""
from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)
# "0" in the low byte of the low k 16-bit lanes, k = 0..4: the ASCII offset.
_ZERO_LANES = np.array([0x0030003000300030 & ((1 << 16 * k) - 1) for k in range(5)],
                       dtype=np.uint64)
# "." in the slot of lane k - 1, k = 1..4; none at k = 0 and 5.
_DOTS = np.array([0] + [0x2E00 << 16 * k for k in range(4)] + [0], dtype=np.uint64)
# The word of each group of four digits 0000..9999, each digit's value in
# the low byte of a 16-bit lane, the first in the lowest.
_DIGITS = np.arange(10, dtype=np.uint64)
_QUADS = (_DIGITS[:, None, None, None] | _DIGITS[None, :, None, None] << 16
          | _DIGITS[None, None, :, None] << 32 | _DIGITS[None, None, None, :] << 48).ravel()
# "0" in the low k bytes, k = 0..3.
_ZEROS = np.array([int.from_bytes(b"0" * k, "little") for k in range(4)], dtype=np.uint64)
_BITS = 125  # Ryū's DOUBLE_POW5_INV_BITCOUNT and DOUBLE_POW5_BITCOUNT
_BLOCK = 4096  # values per Ryū pass: simulate's chunk, and a small working set


@functools.cache
def _exponent_table() -> tuple[np.ndarray, ...]:
    """Ryū's constants for each biased binary exponent 0..2046: the four
    32-bit limbs of its 125-bit power of five, lowest first; the shift
    j - 96; q; and the decimal exponent of vr."""
    rows, p = [], 1
    for _ in range(342):  # DOUBLE_POW5_INV_SPLIT[q]: just above 2**k / 5**q
        rows.append((1 << (p.bit_length() - 1 + _BITS)) // p + 1)
        p *= 5
    p = 1
    for _ in range(326):  # DOUBLE_POW5_SPLIT[i]: 5**i cut or padded to 125 bits
        shift = p.bit_length() - _BITS
        rows.append(p >> shift if shift >= 0 else p << -shift)
        p *= 5
    limbs = np.frombuffer(b"".join(r.to_bytes(16, "little") for r in rows), dtype="<u4")
    limbs = limbs.reshape(-1, 4).T.astype(np.uint64, order="C")

    ie = np.arange(2047)
    e2 = np.maximum(ie, 1) - 1077  # the binary exponent of 4 * m2
    pos = e2 >= 0
    ae = np.abs(e2)
    q = np.where(pos, (ae * 78913) >> 18, (ae * 732923) >> 20) - (ae > np.where(pos, 3, 1))
    i = ae - q  # for e2 < 0, the power of five that multiplies
    j = np.where(pos, q - e2 + _BITS - 1 + _pow5bits(q), q + _BITS - _pow5bits(i))
    row = np.where(pos, q, 342 + i)
    return (*limbs[:, row], (j - 96).astype(np.uint8), q.astype(np.int16),
            np.where(pos, q, q + e2).astype(np.int16))


def _pow5bits(e: np.ndarray) -> np.ndarray:
    return ((e * 1217359) >> 19) + 1


def _shift_down(cols, s, s32, s64) -> np.ndarray:
    """floor(X / 2**(96 + s)) mod 2**64, where s = 32 - s32 = 64 - s64 and
    ``cols`` are the 32-bit columns of X, each at least 0 and below 2**64."""
    acc = cols[0] >> 32
    for col in cols[1:3]:
        acc += col
        acc >>= 32
    acc += cols[3]
    out = acc & _M32
    out >>= s
    acc >>= 32
    acc += cols[4]
    out |= (acc & _M32) << s32
    acc >>= 32
    acc += cols[5]
    acc <<= s64  # s <= 29: an error in column 5 that 2**32 divides leaves no bit
    out |= acc
    return out


def _trailing_zeros(x: np.ndarray) -> np.ndarray:
    """How many times 10 divides each element (at most 19)."""
    count = np.zeros(x.size, dtype=np.intp)
    idx = np.arange(x.size)
    for _ in range(19):
        quotient = x // 10
        keep = quotient * 10 == x
        idx = idx[keep]
        if not idx.size:
            break
        x = quotient[keep]
        count[idx] += 1
    return count


def _interval(ie: np.ndarray, mv: np.ndarray, mm_shift: np.ndarray):
    """Ryū's vr, vp and vm: floor(m * mul / 2**j) for m = mv, mv + 2 and
    mv - 1 - mm_shift, from the one product mv * mul in 32-bit columns. Its
    working arrays are freed on return."""
    *limbs, s = (np.take(t, ie) for t in _exponent_table()[:5])
    cols = [np.zeros_like(mv) for _ in range(6)]
    for i, half in enumerate((mv & _M32, mv >> 32)):  # the high half < 2**23
        for k, limb in enumerate(limbs):
            product = half * limb
            cols[i + k] += product & _M32
            product >>= 32
            cols[i + k + 1] += product
    shifts = s, 32 - s, 64 - s
    vr = _shift_down(cols, *shifts)
    for k, limb in enumerate(limbs):  # X + 2 * mul
        cols[k] += limb << 1
    vp = _shift_down(cols, *shifts)
    # X - (1 + mm_shift) * mul, with 2**33 added to each of columns 0..3 to
    # keep it at least 0, and taken back from the column above as 2.
    for k, limb in enumerate(limbs):
        cols[k] += (1 << 33) - (2 if k else 0)
        cols[k] -= limb * 3
        np.subtract(cols[k], limb, out=cols[k], where=mm_shift)
    cols[4] -= 2
    return vr, vp, _shift_down(cols, *shifts)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's d2d over an array: for the bits of positive finite nonzero
    float64s, the shortest digits that read back as each, and of those the
    closest (ties to even), as an integer, and its decimal exponent."""
    ie = (bits >> 52).astype(np.intp)
    mantissa = bits & ((1 << 52) - 1)
    m2 = mantissa | ((ie != 0).astype(np.uint64) << 52)
    even = (m2 & 1) == 0  # Ryū's acceptBounds: the interval keeps its ends
    mm_shift = (mantissa != 0) | (ie <= 1)
    mv = m2 << 2
    vr, vp, vm = _interval(ie, mv, mm_shift)
    pos = ie >= 1077  # e2 >= 0
    q, e10 = (np.take(t, ie) for t in _exponent_table()[5:])

    # Whether vr and vm are exact, with the trailing zeros that implies.
    vr_zeros = np.zeros(mv.size, dtype=bool)
    vm_zeros = np.zeros(mv.size, dtype=bool)
    small = np.flatnonzero(pos & (q <= 21))
    p5 = _POW5[q[small]]
    mvs = mv[small]
    five = mvs % 5 == 0
    vr_zeros[small] = five & (mvs % p5 == 0)
    vm_zeros[small] = ~five & even[small] & ((mvs - 1 - mm_shift[small]) % p5 == 0)
    vp[small] -= (~five & ~even[small] & ((mvs + 2) % p5 == 0)).astype(np.uint64)
    tiny = ~pos & (q <= 1)
    vr_zeros |= tiny
    vm_zeros |= tiny & even & mm_shift
    vp -= (tiny & ~even).astype(np.uint64)
    twos = np.ones_like(mv) << np.minimum(q, 62).astype(np.uint64)
    vr_zeros |= ~pos & (q > 1) & (q < 63) & ((mv & (twos - 1)) == 0)

    # Ryū drops a digit while vp // 10 > vm // 10, that is, the largest r
    # with vp % 10**r < vp - vm =: w. That holds for every 10**r <= w; past
    # those, r goes on for as long as vp's digits are 0. Then, if vm has
    # dropped only zeros, it drops the zeros vm still ends in.
    w = vp - vm
    removed = _digit_count(w) - 1
    p = _POW10[removed + 1]
    more = np.flatnonzero(vp % p < w)
    removed[more] += 1 + _trailing_zeros(vp[more] // p[more])
    tail = np.flatnonzero(vm_zeros)
    vm_tail = _trailing_zeros(vm[tail])
    vm_zeros[tail] = vm_tail >= removed[tail]
    removed[tail] = np.where(vm_zeros[tail], vm_tail, removed[tail])
    kept, dropped = np.divmod(vr, _POW10[np.maximum(removed, 1) - 1])
    vr_zeros &= dropped == 0  # every dropped digit before the last was 0
    last = np.where(removed > 0, kept % 10, 0)
    vr = np.where(removed > 0, kept // 10, kept)
    vm = vm // _POW10[removed]
    last = np.where(vr_zeros & (last == 5) & (vr % 2 == 0), 4, last)  # round half even
    up = ((vr == vm) & ~(even & vm_zeros)) | (last >= 5)
    return vr + up.astype(np.uint64), e10 + removed


def _digit_count(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.searchsorted(_POW10, x, side="right"), 1)


def _quads(x: np.ndarray, count: int) -> list[np.ndarray]:
    """The ``count`` lowest groups of four digits of each uint64, most
    significant group first, one word per group: each digit's value, not
    yet ASCII, in the low byte of a 16-bit lane, the first in the lowest."""
    words = []
    for k in reversed(range(count)):
        group = x // 10 ** (4 * k)
        group -= group // 10000 * 10000
        words.append(np.take(_QUADS, group.astype(np.intp)))
    return words


def _int_words(values) -> list[np.ndarray]:
    """The text of each non-negative integer: a word per four digits of the
    longest."""
    x = np.asarray(values).astype(np.uint64)
    n = _digit_count(x)
    count = -(-int(n.max(initial=1)) // 4)
    lead = 4 * count - n  # leading zeros, left NUL
    return [w | (_ZERO_LANES[4] - np.take(_ZERO_LANES, lead - 4 * k, mode="clip"))
            for k, w in enumerate(_quads(x, count))]


def _float_words(values) -> list[np.ndarray]:
    """``repr`` of each element as a Python float, in at most six words:
    those that some element writes. The values go through Ryū and the
    layout ``_BLOCK`` at a time, so the working arrays stay small."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    words = np.empty((6, x.size), dtype=np.uint64)
    for start in range(0, x.size, _BLOCK):
        words[:, start:start + _BLOCK] = _float_block(x[start:start + _BLOCK])
    return [w for w in words if w.any()]


def _float_block(x: np.ndarray) -> list[np.ndarray]:
    """``_float_words``' six words of each element of x."""
    finite = np.isfinite(x)
    zero = x == 0.0
    digits, e10 = _shortest(np.where(finite & ~zero, np.abs(x), 1.0).view(np.uint64))
    digits[zero] = 0
    n = _digit_count(digits)
    e = np.where(zero, 0, e10) + n - 1  # the exponent of d.ddd
    fixed = (e >= -4) & (e < 16)
    below_one = fixed & (e < 0)
    integer = fixed & (e >= n - 1)
    # Of the 17 digit lanes, those written (the rest are NUL), and the one
    # whose slot holds the point (-1 for none). An integer value writes the
    # zeros up to its point and one after it.
    written = np.where(integer, e + 2, n)
    point = np.where(fixed, np.where(e >= 0, e, -1), np.where(n > 1, 0, -1))

    left = digits * _POW10[17 - n]  # the digits from the 17th place down
    first = left // 10 ** 16
    rest = [w | np.take(_ZERO_LANES, written - 1 - 4 * k, mode="clip")
            | np.take(_DOTS, point - 4 * k, mode="clip")
            for k, w in enumerate(_quads(left - first * 10 ** 16, 4))]
    head = ((np.signbit(x) & ~np.isnan(x)).astype(np.uint64) * ord("-")
            | below_one.astype(np.uint64) * int.from_bytes(b"\0" b"0.", "little")
            | _ZEROS[np.where(below_one, -e - 1, 0)] << 24
            | (first + ord("0")) << 48
            | (point == 0).astype(np.uint64) * ord(".") << 56)

    exponent = np.zeros_like(head)
    sci = np.flatnonzero(~fixed)
    es = e[sci]
    ae = np.abs(es).astype(np.uint64)
    exponent[sci] = (int.from_bytes(b"e+", "little") + (es < 0).astype(np.uint64) * 2 * 256
                     | np.where(ae >= 100, ae // 100 + ord("0"), 0) << 16
                     | (ae // 10 % 10 + ord("0")) << 24
                     | (ae % 10 + ord("0")) << 32)

    special = np.flatnonzero(~finite)
    head[special] = (head[special] & 0xFF) | np.where(
        np.isnan(x[special]), int.from_bytes(b"nan", "little") << 8,
        int.from_bytes(b"inf", "little") << 8).astype(np.uint64)
    for w in rest + [exponent]:
        w[special] = 0
    return [head, *rest, exponent]


def _lines(columns, end: bytes) -> bytes:
    """The bytes of one line per text: its cells in ``columns`` joined by ","
    and ended by ``end``, without the NULs. A column is bytes that every line
    repeats, or a list of words, each an array (one word of each text, or one
    for all) or bytes. A one-byte "," or ``end`` goes in the last byte of the
    word before it when no text uses that byte."""
    parts = [b","] * (2 * len(columns))
    parts[0::2] = columns
    parts[-1] = end
    words, m = [], 1  # [word, the byte put in its last byte]
    for part in parts:
        for word in [part] if isinstance(part, bytes) else part:
            if not isinstance(word, bytes):
                words.append([word, 0])
                m = max(m, word.size)
            elif (len(word) == 1 and words and isinstance(words[-1][0], np.ndarray)
                  and not words[-1][1] and not (words[-1][0] >> 56).any()):
                words[-1][1] = word[0] << 56
            else:
                words += [[int.from_bytes(word[k:k + 8], "little"), 0]
                          for k in range(0, len(word), 8)]
    buffer = bytearray(8 * m * len(words))
    rows = np.frombuffer(buffer, dtype="<u8").reshape(m, len(words))
    for k, (w, last) in enumerate(words):
        rows[:, k] = w
        if last:
            rows[:, k] |= last
    return bytes(buffer.translate(None, b"\0"))
