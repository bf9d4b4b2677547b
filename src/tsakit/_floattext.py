"""``repr``'s exact text of every float in an array at once, and the CSV
lines made of such texts.

A float's digits are the shortest that read back as it, and of those the
closest: ``repr``'s digits. Ryū (Adams, "Ryū: fast float-to-string
conversion", PLDI 2018) finds them with fixed-width integer arithmetic,
which here runs over whole ``uint64`` arrays, ``_BLOCK`` values a pass. A
column of texts is a list of words: ``uint64`` arrays holding one word of
each text, its characters in the bytes from the lowest and NUL in the places
a text leaves empty. A float's text has four words. Byte 0 holds the sign.
Bytes 1..22 are one-byte places for the digits, right-aligned, with the
point shifted in among them: after ``0.`` and the zeros of a value below 1,
or before the last ``0`` of an integer value. Bytes 24..28 hold ``e``, the
exponent's sign and three digit places. An integer's text has seven digit
places a word, right-aligned. A float's bytes 23 and 31 and an integer
word's top byte are always NUL, so a one-byte separator can go there.
``_lines`` lays columns side by side, one line per text, and deletes the
NULs. The digits' arithmetic mixes ``uint64`` arrays only with each other
and with non-negative Python ints, and indexes with ``intp`` arrays: numpy
makes ``uint64`` mixed with ``int64`` float64, and numpy scalars warn on the
overflow that arrays wrap.
"""
from __future__ import annotations

import functools

import numpy as np

_BLOCK = 8192  # values per pass, and so per simulate chunk: tier-1 bounds its working set
_M32 = 0xFFFFFFFF
_ABS = (1 << 63) - 1
_INF = 0x7FF0000000000000  # the bits of inf; a finite |x| has lower bits
_ONE = 0x3FF0000000000000  # the bits of 1.0
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)
_BITS = 125  # Ryū's DOUBLE_POW5_INV_BITCOUNT and DOUBLE_POW5_BITCOUNT
_PLACES = 22  # a float's places for digits and point, bytes 1..22


@functools.cache
def _exponent_table() -> tuple[np.ndarray, ...]:
    """Ryū's constants for each biased binary exponent 0..2046: the four
    32-bit limbs of its 125-bit power of five, lowest first; the shift
    j - 96; what a float's bits exceed its m2 by; the bits of the exponent's
    power of two, the one float whose mm_shift is 0 (0 where none is); q;
    the decimal exponent of vr; and whether vp may lose 1 or vm be exact
    (e2 >= 0 with q <= 21, or e2 < 0 with q <= 1)."""
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
    hidden = (np.maximum(ie, 1) - 1).astype(np.uint64) << 52
    power_of_two = np.where(ie > 1, ie, 0).astype(np.uint64) << 52
    return (*limbs[:, row], (j - 96).astype(np.uint64), hidden, power_of_two, q,
            np.where(pos, q, q + e2), np.where(pos, q <= 21, q <= 1))


def _pow5bits(e: np.ndarray) -> np.ndarray:
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _layout_table() -> tuple[np.ndarray, ...]:
    """How a float's n digits d (1..17) with exponent e (of d.ddd) are laid
    out, per row u * 18 + n, where u = e + 4 in the fixed notation
    (-4 <= e < 16) and u = 20 in the scientific one. The places' values
    right-aligned are d * 10**k + 9 * 10**f * (d // 10**f): d, its zeros,
    and a 0 inserted at place f (counted from the last) for the point; each
    row holds 10**k, 10**f and 9 * 10**f (1 and 0 where nothing is inserted)
    and the three words that make the places ASCII, with the point at its
    place and NUL before the first place written. Then the exponent word of
    each e = -324..308 (0 where e is fixed); the word of each group of four
    digits 0000..9999, each digit's value in a byte, the first lowest; and,
    for c = 0..7, the ASCII zeros of an integer word's last c places."""
    u, n = np.divmod(np.arange(21 * 18), 18)
    e = u - 4
    # d.ddd with a point if more digits follow the first; an integer value's
    # digits, its zeros and ".0"; else the point before the last n - 1 - e
    # digits, after "0." and -e - 1 zeros when e < 0.
    scientific = u == 20
    integer = ~scientific & (e >= n - 1)
    k = np.where(integer, e - n + 3, 0)
    point = np.where(scientific, n - 1, np.where(integer, 1, n - 1 - e))
    written = np.where(scientific, n + (n > 1),
                       np.where(integer, e + 3, n + 1 + np.maximum(-e, 0)))
    inserted = np.where((k == 0) & (point > 0) & (point < n), point, 0)
    places = np.where(np.arange(_PLACES) < written[:, None], 0x30, 0).astype(np.uint8)
    places[point > 0, point[point > 0]] = ord(".")
    text = np.zeros((u.size, 24), dtype=np.uint8)
    text[:, _PLACES:0:-1] = places  # place 0, the last, in byte 22
    e10 = np.arange(-324, 309)
    ae = np.abs(e10).astype(np.uint64)
    exponents = (np.where(e10 < 0, int.from_bytes(b"e-", "little"), int.from_bytes(b"e+", "little"))
                 .astype(np.uint64) | np.where(ae >= 100, ae // 100 + 0x30, 0) << 16
                 | (ae // 10 % 10 + 0x30) << 24 | (ae % 10 + 0x30) << 32)
    exponents[(e10 >= -4) & (e10 < 16)] = 0
    digits = np.arange(10, dtype=np.uint64)
    quads = (digits[:, None, None, None] | digits[None, :, None, None] << 8
             | digits[None, None, :, None] << 16 | digits[None, None, None, :] << 24).ravel()
    zeros = [int.from_bytes(b"\0" * (7 - c) + b"0" * c + b"\0", "little") for c in range(8)]
    return (_POW10[k], _POW10[inserted], np.where(inserted > 0, 9 * _POW10[inserted], 0),
            *text.view("<u8").T.copy(), exponents, quads, np.array(zeros, dtype=np.uint64))


def _interval(ie: np.ndarray, a: np.ndarray):
    """Ryū's vr, vp and vm for the bits ``a`` of positive finite floats with
    biased exponents ``ie``: floor(m * mul / 2**j) for m = mv, mv + 2 and
    mv - 1 - mm_shift, where mv = 4 * m2. With b = mv - 2 these are b + 2,
    b + 4 and b + 1 - mm_shift. Each 32-bit column of b * mul, lowest first,
    goes into three running sums, with the column's limb of mul times 2, 4
    and 1 - mm_shift; each sum carries its high bits to the next column."""
    *limbs, shift, hidden, power_of_two = _exponent_table()[:7]
    b = a - np.take(hidden, ie)  # m2
    b <<= 2
    b -= 2
    low = b & _M32
    b >>= 32  # the high half, < 2**23
    exact_power = a == np.take(power_of_two, ie)  # mm_shift = 0
    vr, vp, vm = np.zeros((3, a.size), dtype=np.uint64)
    carry = 0  # the part of b * mul at the next column, < 2**56
    for limbs_c in limbs:
        limb = np.take(limbs_c, ie)
        column = low * limb
        over = column >> 32
        column &= _M32
        column += carry
        carry = over
        carry += b * limb
        for v in (vr, vp, vm):
            v >>= 32
            v += column
        del column
        np.add(vm, limb, out=vm, where=exact_power)
        limb <<= 1
        vr += limb
        limb <<= 1
        vp += limb
        del limb
    # floor((sum + carry * 2**32) / 2**s), s <= 29: the true value is below
    # 2**64, so the carry's wrapped shift is exact.
    s = np.take(shift, ie)
    carry <<= 32 - s
    for v in (vr, vp, vm):
        v >>= s
        v += carry
    return vr, vp, vm


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


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's d2d over an array: for the bits of positive finite nonzero
    float64s, the shortest digits that read back as each, and of those the
    closest (ties to even), as an integer, and the decimal exponent of its
    last digit."""
    ie = (a >> 52).view(np.intp)
    vr, vp, vm = _interval(ie, a)
    hidden, power_of_two, q, exp10, rare = _exponent_table()[5:]

    # Where vp may lose 1 or vm be exact: a few exponents around 2**53.
    idx = np.flatnonzero(np.take(rare, ie))
    ies = ie[idx]
    mv = (a[idx] - hidden[ies]) << 2
    pos = ies >= 1077  # e2 >= 0, and q <= 21; else q <= 1
    p5 = _POW5[q[ies]]
    even = (mv & 4) == 0  # Ryū's acceptBounds: the interval keeps its ends
    mm_shift = a[idx] != power_of_two[ies]
    five = pos & (mv % 5 == 0)
    vm_zeros = even & ~five & np.where(pos, (mv - 1 - mm_shift) % p5 == 0, mm_shift)
    vp[idx] -= ~even & ~five & (~pos | ((mv + 2) % p5 == 0))

    # Ryū drops a digit while vp // 10 > vm // 10, that is, the largest r
    # with vp % 10**r < vp - vm =: w. Since w <= 4 * mul / 2**j + 1 < 401,
    # r <= 3 passes or not one at a time, and past 3 goes on for as long as
    # vp's digits are 0. Then, if vm has dropped only zeros, it drops the
    # zeros vm still ends in.
    w = vp - vm
    removed = np.zeros(a.size, dtype=np.intp)
    for p in (10, 100, 1000):
        drops = vp - vp // p * p < w
        removed += drops
    more = np.flatnonzero(drops)
    removed[more] += _trailing_zeros(vp[more] // 1000)
    del vp, w, drops, more
    tail = idx[vm_zeros]
    vm_tail = _trailing_zeros(vm[tail])
    vm_zeros[vm_zeros] = vm_tail >= removed[tail]
    removed[tail] = np.maximum(vm_tail, removed[tail])

    # vr rounded half up at the removed digits, except that an exact vr
    # (Ryū's vrIsTrailingZeros) halfway between goes to the even one.
    scale = np.take(_POW10, removed)
    vr += scale // 2
    rounded = vr // scale
    ties = np.flatnonzero((rounded * scale == vr) & (removed > 0) & (rounded & 1 == 1))
    del vr
    iet = ie[ties]
    qt = q[iet]
    mvt = (a[ties] - hidden[iet]) << 2
    low_bits = (1 << np.minimum(qt, 63).astype(np.uint64)) - 1
    exact = np.where(iet >= 1077, (qt <= 21) & (mvt % _POW5[np.clip(qt, 1, 21)] == 0),
                     (qt <= 1) | ((qt < 63) & (mvt & low_bits == 0)))
    rounded[ties[exact]] -= 1
    vm //= scale
    up = rounded == vm
    up[idx[vm_zeros]] = False  # vm is exact and an end the interval keeps
    rounded += up
    return rounded, np.take(exp10, ie) + removed


def _digit_count(x: np.ndarray) -> np.ndarray:
    """How many decimal digits each element (at least 1) has: t or t + 1
    for t = floor(log10(2) * the bit length of its float)."""
    t = ((x.astype(np.float64).view(np.uint64) >> 52) - 1022) * 1233 >> 12
    t = t.view(np.intp)
    return t + (x >= np.take(_POW10, t))


def _digit_word(x: np.ndarray, count: int) -> np.ndarray:
    """Each x < 10**count (count = 7 or 8) as a word of its ``count``
    digits' values, one a byte from the lowest, the first lowest."""
    quads = _layout_table()[7]
    high = x // 10000
    x = x - high * 10000
    return (np.take(quads, high.view(np.intp)) >> 8 * (8 - count)
            | np.take(quads, x.view(np.intp)) << 8 * (count - 4))


def _int_words(values) -> list[np.ndarray]:
    """The text of each non-negative integer: a word per seven digits of the
    longest, right-aligned in bytes 0..6."""
    x = np.asarray(values).astype(np.uint64)
    n = _digit_count(np.maximum(x, 1))
    zeros = _layout_table()[8]
    words = []
    for k in reversed(range(-(-int(n.max(initial=1)) // 7))):
        group = x // 10 ** (7 * k)
        group -= group // 10 ** 7 * 10 ** 7
        words.append(_digit_word(group, 7) + np.take(zeros, n - 7 * k, mode="clip"))
    return words


def _float_words(values) -> list[np.ndarray]:
    """``repr`` of each element as a Python float, in at most four words:
    those that some element writes. The values go through Ryū and the
    layout ``_BLOCK`` at a time, so the working arrays stay small."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    words = np.empty((4, x.size), dtype=np.uint64)
    for start in range(0, x.size, _BLOCK):
        _float_block(x[start:start + _BLOCK], words[:, start:start + _BLOCK])
    return [w for w in words if w.any()]


def _float_block(x: np.ndarray, out: np.ndarray) -> None:
    """``_float_words``' four words of each element of x, into ``out``."""
    bits = x.view(np.uint64)
    a = bits & _ABS
    normal = a - 1 < _INF - 1  # finite and nonzero; the rest are written as 1.0 first
    a[~normal] = _ONE
    digits, last = _shortest(a)
    del a
    n = _digit_count(digits)
    e = last + n - 1  # the exponent of d.ddd
    del last
    row = np.minimum((e + 4).view(np.uint64), 20).view(np.intp) * 18 + n
    del n
    scale, divisor, nines, *ascii_words, exponents = _layout_table()[:7]
    places = digits * np.take(scale, row)
    places += np.take(nines, row) * (digits // np.take(divisor, row))
    del digits
    upper = places // 10 ** 7
    out[2] = _digit_word(places - upper * 10 ** 7, 7) + np.take(ascii_words[2], row)
    del places
    top = upper // 10 ** 8
    out[1] = _digit_word(upper - top * 10 ** 8, 8) + np.take(ascii_words[1], row)
    del upper
    out[0] = _digit_word(top, 8) + np.take(ascii_words[0], row) | (bits >> 63) * ord("-")
    out[3] = np.take(exponents, e + 324)

    special = np.flatnonzero(~normal)
    xs = x[special]
    zero = (xs == 0).astype(np.uint64)
    out[2, special] = zero * (int.from_bytes(b"0.0", "little") << 32)
    out[0, special] = np.where(np.isnan(xs), int.from_bytes(b"nan", "little") << 8,
                               out[0, special] | (1 - zero) * (int.from_bytes(b"inf", "little") << 8))


def _lines(columns, end: bytes) -> bytearray:
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
    del rows
    return buffer.translate(None, b"\0")
