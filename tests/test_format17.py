"""The numpy `%.17g` kernel: byte for byte the text of the `%` template."""

import math
from fractions import Fraction

import numpy as np
import pytest

from envqueue.format17 import PAD, WORDS, write_g17


def kernel_text(values):
    """The kernel's text of `values`, one line each, and how many it left to the template."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((len(values), WORDS), np.uint64)
    templated = write_g17(values, out)
    text = out.view(np.uint8).ravel()
    return text[text != PAD].tobytes(), templated


def template_text(values):
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def assert_same_lines(values):
    got, templated = kernel_text(values)
    expected = template_text(values)
    if got != expected:
        pairs = zip(got.split(b"\n"), expected.split(b"\n"))
        wrong = [(repr(v), g, e) for v, (g, e) in zip(np.asarray(values).tolist(), pairs) if g != e]
        pytest.fail(f"{len(wrong)} values differ, first {wrong[:5]}")
    return templated


def test_every_binade_down_to_the_subnormals():
    rng = np.random.default_rng(20)
    exponents = np.repeat(np.arange(-1074, 0), 200)
    # mantissas in [1, 2): below 2^-1022 ldexp rounds them onto the subnormal grid
    values = np.ldexp(1.0 + rng.random(exponents.size), exponents)
    edges = np.ldexp(1.0, np.arange(-1074, 0))
    values = np.concatenate([values, edges, np.nextafter(edges, 0.0)[1:], [5e-324, np.nextafter(1.0, 0.0)]])
    assert (values > 0).all() and (values < 1).all() and (values < 2.0**-1022).sum() > 10_000
    templated = assert_same_lines(values)
    # only values whose rounding is within 1e-9 of a tie leave the kernel: none here but by chance
    assert templated <= 2


def exact_ties():
    """Dyadic x = j / 2^t < 1 whose 18th significant digit is a 5 followed only by
    zeros.  j 5^t, with j odd, holds the digits, and 10^17 <= j 5^t < 10^18 only
    for 18 <= t <= 25."""
    rng = np.random.default_rng(3)
    ties = []
    for t in range(18, 26):
        low, high = -(-10**17 // 5**t), min(10**18 // 5**t, 2**t)
        for j in rng.integers(low, high, 40).tolist():
            j |= 1
            if j < high:
                ties.append(j / 2**t)
    return ties


def test_exact_ties_go_to_the_template():
    ties = exact_ties()
    for x in ties:
        digits = str(Fraction(x).numerator * 10**40 // Fraction(x).denominator).rstrip("0")
        assert len(digits) == 18 and digits.endswith("5"), x
    assert len(ties) > 200
    assert assert_same_lines(ties) == len(ties)
    # one ulp away the rounding is clear, and the kernel writes them
    neighbours = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
    assert assert_same_lines(neighbours) == 0


def carries(x):
    """x prints as the power of ten above it."""
    printed = Fraction("%.17g" % x)
    return printed > Fraction(x) and printed == Fraction(10) ** round(math.log10(printed))


def test_powers_of_ten_and_their_neighbours():
    # floor(log10 x) is off by one next to a power of ten, and a rounding can
    # carry into the next decade
    around = []
    for e in range(-323, 0):
        x = float(Fraction(10) ** e)
        below, above = np.nextafter(x, 0.0), np.nextafter(x, 1.0)
        around += [np.nextafter(below, 0.0), below, x, above, np.nextafter(above, 1.0)]
    around = [x for x in around if x > 0.0]  # the two below 1e-323 are 5e-324 and 0
    assert sum(map(carries, around)) >= 5  # the double nearest 1e-305 lies below it and prints as 1e-305
    assert assert_same_lines(around) == 0


def test_values_outside_the_unit_interval_use_the_template():
    values = [0.0, -0.0, 1.0, -5e-324, -1e-300, -0.5, 2.0, 1e300, np.inf, -np.inf, np.nan, 0.5, 0.25, 1e-5]
    assert assert_same_lines(values) == 11


def test_fraction_of_zeros_strips_the_point():
    # 17 digits that end in zeros, down to a first digit alone: 5e-05 and 0.5
    values = [5e-5, 0.5, 0.125, 1e-5, 1.5e-7, 0.0625, 2.0**-30, 1e-100, 1e-300, 3e-320]
    assert assert_same_lines(values) == 0
