"""The bulk float text against ``repr``, byte for byte, the streamed
``simulate`` rows against one ``repr`` per row, and one pass's working set.

The kernel's uint64 arithmetic depends on numpy's integer promotion rules,
which NEP 50 changed in numpy 2, so CI also runs this file under numpy 1.x.
"""
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from tsakit import _floattext, cli
from tsakit._floattext import _float_words, _int_words, _lines
from tsakit.armodel import (ArModel, RandomWalkSpec, simulate_ar,
                            simulate_random_walk)

_BLOCK = 1 << 16  # values per kernel call: its working arrays stay small


def _assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, values.size, _BLOCK):
        block = values[start:start + _BLOCK].tolist()
        got = _lines([_float_words(block)], b", ")
        want = (repr(block)[1:-1] + ", ").encode()  # one C loop of float repr
        if got != want:
            pairs = zip(got.split(b", "), want.split(b", "), block)
            bad = next((g, w, v) for g, w, v in pairs if g != w)
            pytest.fail(f"{bad[2].hex()}: got {bad[0]!r}, repr gives {bad[1]!r}")


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(20180618).integers(
        0, 1 << 64, 1_002_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_reprs(values[np.isfinite(values)][:1_000_000])


def test_powers_of_two_and_ten():
    _assert_reprs(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    _assert_reprs(_neighbours(tens))


def test_subnormals_and_special_values():
    info = np.finfo(np.float64)
    subnormal_bits = np.random.default_rng(3).integers(1, 1 << 52, 20_000, dtype=np.uint64)
    subnormals = subnormal_bits.view(np.float64)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             info.max, -info.max, info.tiny, np.nextafter(info.tiny, 0.0)]
    _assert_reprs(np.concatenate([subnormals, -subnormals, edges]))
    text = _lines([_float_words(edges[:5])], b" ")
    assert text == b"0.0 -0.0 inf -inf nan "


def test_integers_and_notation_switches():
    rng = np.random.default_rng(4)
    integers = rng.integers(0, 1 << 53, 20_000, endpoint=True).astype(np.float64)
    near_1e16 = 1e16 + 2.0 * np.arange(-500, 500)
    switches = [9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05,
                2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2]
    values = np.concatenate([integers, near_1e16, _neighbours(switches)])
    _assert_reprs(np.concatenate([values, -values]))


def test_ties_round_half_even():
    # n + 1/4 and n + 3/4 for 2**50 <= n < 2**51 are exact 18-digit decimals
    # ending in 5; the two 17-digit neighbours are equally near and both read
    # back, so repr keeps the even one.
    n = np.random.default_rng(5).integers(1 << 50, 1 << 51, 5_000).astype(np.float64)
    values = np.concatenate([n + 0.25, n + 0.75])
    ties = [v for v in values.tolist()
            if len(Decimal(v).as_tuple().digits) == len(repr(v).replace(".", "")) + 1
            and Decimal(v).as_tuple().digits[-1] == 5]
    assert len(ties) == values.size
    _assert_reprs(values)


def test_two_decimal_values():
    values = np.round(np.random.default_rng(6).uniform(-1000, 1000, 100_000), 2)
    _assert_reprs(values)


def test_integer_text():
    values = np.array([0, 1, 9, 10, 99, 100, 12345, 2 ** 32 - 1, 2 ** 32,
                       10 ** 19, 2 ** 64 - 1], dtype=np.uint64)
    text = _lines([_int_words(values)], b"\n")
    assert text == "".join(f"{v}\n" for v in values.tolist()).encode()


def _per_row(values, start=1) -> str:
    return "".join([f"{t},{v!r}\n" for t, v in enumerate(values.tolist(), start)])


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8191, 8192, 8193, 100_000])
def test_streamed_rows_equal_per_row_text(n, capsys):
    # n = 100000 crosses t = 9 -> 10 and t = 99999 -> 100000.
    assert cli.main(["simulate", "ar", "--phi", "0.5,-0.2", "--mean", "3.5",
                     "--n", str(n), "--seed", "7"]) == 0
    series = simulate_ar(ArModel(phi=(0.5, -0.2), sigma2=1.0, mean=3.5), n, 7)
    assert capsys.readouterr().out == "t,value\n" + _per_row(series.values)

    assert cli.main(["simulate", "random-walk", "--drift", "0.25", "--n", str(n),
                     "--seed", "7"]) == 0
    walk = simulate_random_walk(RandomWalkSpec(drift=0.25), n, 7)
    assert capsys.readouterr().out == "t,value\n" + _per_row(walk.values)


@pytest.mark.parametrize("start", [8, 99_998, 2 ** 32 - 3, 2 ** 63 - 2])
def test_row_text_across_digit_counts(start):
    values = np.random.default_rng(start % 1000).standard_normal(5)
    assert cli._row_text(values, start) == _per_row(values, start).encode()


def test_one_pass_working_set():
    # One pass of _BLOCK values, from the bits to the four words, peaks at
    # 122.3 bytes a value under tracemalloc (248 at 4096 values a pass with
    # the six-word layout). The bound leaves 5.7 bytes a value, so one more
    # uint64 array held through the pass (8 bytes a value) fails it.
    values = np.random.default_rng(7).standard_normal(_floattext._BLOCK) * 3.7
    _float_words(values)  # the tables are built once per process
    tracemalloc.start()
    try:
        _float_words(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / values.size < 128
