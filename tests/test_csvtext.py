"""The numpy trace-cell formatter against '%d' and '%.17g', byte for byte.

csvtext.format_rows computes the digits of '%.17g' itself for the
fixed-point decades 1e-4 <= |x| < 1e17; these tests hold it to Python's own
formatting on the values where such a kernel goes wrong: exact ties, the
edges of each decade, zeros inside and after the integer part, and random
bit patterns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etlqg.cli import _trace_csv
from etlqg.csvtext import format_rows
from etlqg.simulation import TraceBlock

from test_cli import assert_same_text, reference_trace_csv


def reference_rows(ints, floats):
    return "".join(",".join(["%d" % v for v in i] + ["%.17g" % v for v in f])
                   + "\n" for i, f in zip(ints.tolist(), floats.tolist()))


def assert_like_percent(values, ints=None):
    """Format values five to a row, 2048 rows per call, as the CLI does."""
    values = np.asarray(values, dtype=float)
    floats = np.resize(values, (max(1, -(-values.size // 5)), 5))
    if ints is None:
        ints = np.zeros((len(floats), 3), dtype=np.int64)
        ints[:, 0] = np.arange(len(floats))
    for first in range(0, len(floats), 2048):
        part = slice(first, first + 2048)
        assert_same_text(format_rows(ints[part], floats[part]),
                         reference_rows(ints[part], floats[part]))


def exact_ties(rng, count):
    """Doubles m * 2**-k with exactly 18 significant digits, the last a 5:
    ties of '%.17g', which rounds them half to even."""
    out = []
    while len(out) < count:
        # m * 2**-k == m * 5**k * 10**-k, and m * 5**k has 18 digits
        k = int(rng.integers(2, 26))
        low, high = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        m = int(rng.integers(low, high)) | 1
        if m < high:
            assert len(str(m * 5 ** k)) == 18
            out.append(m / 2 ** k)
    return np.array(out)


class TestOneCellTrace:
    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(width=64), tau=st.integers(0, 2 ** 62),
           sigma=st.integers(0, 1))
    def test_any_double(self, value, tau, sigma):
        cell = np.array([[value]])
        trace = TraceBlock(start=0, x=cell, u=-cell, e_filt=cell,
                           sigma=np.array([sigma]), tau=np.array([tau]))
        assert _trace_csv(trace) == reference_trace_csv(trace, 1, 1)


class TestAgainstPercent:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        assert_like_percent(bits.view(np.float64))

    def test_random_bit_patterns_in_the_fixed_point_decades(self):
        # every exponent from 2**-14 (below 1e-4) to 2**57 (above 1e17)
        rng = np.random.default_rng(20261019)
        mantissa = rng.integers(0, 2 ** 52, size=10 ** 6, dtype=np.uint64)
        exponent = rng.integers(1023 - 14, 1023 + 58, size=10 ** 6,
                                dtype=np.uint64)
        sign = rng.integers(0, 2, size=10 ** 6, dtype=np.uint64)
        bits = sign << np.uint64(63) | exponent << np.uint64(52) | mantissa
        assert_like_percent(bits.view(np.float64))

    def test_exact_ties(self):
        ties = exact_ties(np.random.default_rng(7), 25000)
        assert_like_percent(np.concatenate([ties, -ties]))

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for j in range(-6, 19):
            below = above = float(f"1e{j}")
            values.append(below)
            for _ in range(6):
                below = np.nextafter(below, -np.inf)
                above = np.nextafter(above, np.inf)
                values += [below, above]
        values = np.array(values)
        assert_like_percent(np.concatenate([values, -values]))

    def test_round_decimals(self):
        # zeros inside and at the end of the integer part and the fraction
        values = [1.0, 10.0, 100.0, 1e5, 1e15, 1e16, 9e16, 100.5, 1000.25,
                  10.01, 0.1, 0.5, 0.001, 0.0001, 0.00010000000000000002,
                  0.0005, 12345678901234567.0, 99999999999999984.0,
                  123.456, 0.000123, 2 ** 53, 2 ** 53 + 2, 0.0, -0.0]
        assert_like_percent(np.concatenate([values, np.negative(values)]))

    def test_special_values(self):
        assert_like_percent([np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                             2.2250738585072014e-308, 1e-300, -1e-300,
                             -1.2345678901234567e-100, 1.7976931348623157e308,
                             -1.7976931348623157e308, 1e17, -1e17, 9e-5])

    def test_no_rows(self):
        assert format_rows(np.zeros((0, 3), dtype=np.int64),
                           np.zeros((0, 5))) == ""

    def test_integer_cells(self):
        values = [0, 9, 10, 99, 100, 9999, 10000, 99999, 100000, 10 ** 6,
                  10 ** 7 - 1, 10 ** 7, 10 ** 8, -1, -10 ** 4, 2 ** 53 + 1,
                  -2 ** 63, 2 ** 63 - 1]
        ints = np.resize(np.array(values, dtype=np.int64), (len(values), 3))
        ints[:, 1] = ints[::-1, 0]
        assert_like_percent(np.arange(5 * len(values)) / 7.0, ints)
