"""Tests for the interval-checked inequality pipelines.

Independent oracles: exact integer computations (factorials, lcm tables,
prime counts) and literature values for the largest permutation order.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpmath import iv

from regcycle import bounds
from regcycle.bounds import (
    MARGIN,
    STATUS_FAIL,
    STATUS_INCONCLUSIVE,
    STATUS_PASS,
    CheckLine,
    SweepReport,
    alpha_beta_row,
    alpha_beta_scan,
    diagonal_crude_bound,
    e8_demo,
    e8_sweep,
    group_profile,
    landau_exact,
    massias_check,
    massias_sweep,
    omega,
    robin_check,
    robin_sweep,
    spanning_count,
    stirling_check,
    stirling_sweep,
    technical_check,
    technical_inequality_alphas,
    technical_sweep,
    wreath_case_bound,
)
from regcycle.permcore import SIEVE_LIMIT, factorize, primes_upto


def digest(values) -> str:
    """sha256 over the repr of each value, one per line."""
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


def alpha_beta_rows(hi: int) -> list:
    return [alpha_beta_row(m, exact_constant=exact)
            for exact in (False, True) for m in range(47, hi + 1)]


WREATH_EXAMPLES = ((10, 1, 5), (6, 2, 3))

# The benchmark's robin blocks: 10^4 wide, from 26 to 999 999.
ROBIN_BLOCKS = [(max(26, lo), lo + 10**4 - 1) for lo in range(0, 10**6, 10**4)]
# From 1, across one segment edge, the last block and the whole sieve.
OMEGA_RANGES = ((1, 5000), (2**16 - 100, 2**17 + 100), (10**6 - 10**4 + 1, 10**6), (1, 10**6))


def omega_block_hashes() -> list:
    return [hashlib.sha256(bounds._omega_block(lo, hi).tobytes()).hexdigest()
            for lo, hi in OMEGA_RANGES]


# digest() of every row and line as evaluated with no constant cached: a
# cache must keep every endpoint's bits. The reprs hold each field, floats
# in round-trip form. The robin entries are those of the per-prime strided
# omega count, which the segmented sieve must reproduce byte for byte.
PINNED_BOUNDS = {
    "alpha_beta_row 47..600": (
        lambda: alpha_beta_rows(600),
        "feb7c88a716b7f922e568f19b2b585638d0ea518e5d79e701eda05bff8d8d865"),
    "technical_sweep 3..60": (
        lambda: technical_sweep(3, 60).lines,
        "47ee5533630a0b6ef0f060db5079209bc4f2852e0c88feb13f41d4becd4988cb"),
    "stirling_sweep 1..200": (
        lambda: stirling_sweep(1, 200).lines,
        "96558f38b28658ba4739b558e3667c0ecce712012af84fa4ff3640845dfdeeb9"),
    "massias_sweep 4..200": (
        lambda: massias_sweep(4, 200).lines,
        "cb00fd570127c40a1471259c3f1ad33a62327ceef9fccfb10556539792e553b5"),
    "e8_sweep 1024": (
        lambda: e8_sweep(1024).lines,
        "821c14b9587e1ac800f92101da4c1ee40105e5ffa92a36ddcabca09718b1bafd"),
    "wreath_case_bound examples": (
        lambda: [wreath_case_bound(*args) for args in WREATH_EXAMPLES],
        "89e43140e84ff522e02604741c8524bcaf5cb9ef457ff21841f68160bd7a59fd"),
    "alpha_beta_row 47..10000": (
        lambda: alpha_beta_rows(10**4),
        "f7f45eba61e9503940fc71804f375881394a277653a4eaba5bee1f6e93e603b9"),
    "technical_sweep 3..200": (
        lambda: technical_sweep(3, 200).lines,
        "f1bfd383936a98533a581391a3b66208444b7d84b900166efe0a7f722993feae"),
    "stirling_sweep 1..1000": (
        lambda: stirling_sweep(1, 1000).lines,
        "31ad100361ebd9bdcf4cc050940a62b6624e52e7573ddcfe5976e486276eed92"),
    "robin_sweep benchmark blocks": (
        lambda: [line for lo, hi in ROBIN_BLOCKS for line in robin_sweep(lo, hi).lines],
        "774e5c231abb3b41fecfab6fb58d9cb84dbaa2b185e5f3d96edcc2f216ef4d09"),
    "_omega_block bytes": (
        omega_block_hashes,
        "80642ea7e7e69cf3e7eb54191e72aef22e9fab52f89fcf143bb6d27e2eb06797"),
    "robin_sweep 26..10^6": (
        lambda: robin_sweep(26, 10**6).lines,
        "eb35860956bd525687298f761eb983691eeb2f4dc21de9b1ebcbacb12aff226a"),
}
# The full bounds-all ranges; the 19 908 rows take about 14 s.
SLOW_PINNED = {"alpha_beta_row 47..10000", "technical_sweep 3..200",
               "stirling_sweep 1..1000", "robin_sweep 26..10^6"}


@st.composite
def omega_blocks(draw):
    """(lo, hi) from 1, ending at SIEVE_LIMIT or anywhere, some a few numbers
    past one or two whole segments, so a block ends on a segment edge."""
    segment = bounds.OMEGA_SEGMENT
    width = draw(st.one_of(st.integers(1, 300),
                           st.integers(segment - 2, segment + 2),
                           st.integers(2 * segment - 2, 2 * segment + 2),
                           st.integers(1, 3 * segment)))
    where = draw(st.sampled_from(("one", "limit", "any")))
    if where == "one":
        return 1, width
    if where == "limit":
        return SIEVE_LIMIT - width + 1, SIEVE_LIMIT
    lo = draw(st.integers(1, SIEVE_LIMIT - width + 1))
    return lo, lo + width - 1


def strided_omega(lo: int, hi: int) -> np.ndarray:
    """omega(n) for n = lo..hi, one strided slice per prime."""
    counts = np.zeros(hi - lo + 1, dtype=np.int8)
    for p in primes_upto(hi):
        counts[-lo % p::p] += 1
    return counts


class TestOmega:
    def test_small(self):
        assert omega(2) == 1
        assert omega(12) == 2
        assert omega(30) == 3
        assert omega(510510) == 7


class TestRobin:
    def test_single_values(self):
        line = robin_check(26)
        assert line.status == STATUS_PASS
        line2 = robin_check(510510)
        assert line2.status == STATUS_PASS
        assert line2.gap_low > 2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            robin_check(25)

    def test_sweep_short(self):
        rep = robin_sweep(26, 20000)
        assert rep.all_pass
        assert rep.min_gap >= MARGIN

    def test_sweep_matches_exact_at_worst_point(self):
        rep = robin_sweep(26, 600000)
        worst_n = int(dict(rep.lines[0].values)["n"])
        exact = robin_check(worst_n)
        assert exact.status == STATUS_PASS
        # The vectorized gap is a slight underestimate of the exact gap.
        assert rep.lines[0].gap_low <= exact.gap_low + 1e-6


    @pytest.mark.parametrize("lo, hi", [(26, 3000), (10**6 - 3000, 10**6)])
    def test_block_counts_match_omega(self, lo, hi):
        counts = bounds._omega_block(lo, hi)
        assert counts.tolist() == [omega(n) for n in range(lo, hi + 1)]

    @settings(max_examples=30, deadline=None)
    @given(block=omega_blocks())
    @example(block=(1, 1))
    @example(block=(1, bounds.OMEGA_SEGMENT + 1))
    @example(block=(SIEVE_LIMIT, SIEVE_LIMIT))
    @example(block=(SIEVE_LIMIT - 2 * bounds.OMEGA_SEGMENT, SIEVE_LIMIT))
    def test_drawn_block_counts_match_a_strided_sieve(self, block):
        lo, hi = block
        counts = bounds._omega_block(lo, hi)
        assert counts.dtype == np.int8
        assert np.array_equal(counts, strided_omega(lo, hi))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_range_is_the_tightest_of_its_sub_blocks(self, data):
        lo = data.draw(st.integers(26, SIEVE_LIMIT - 10), label="lo")
        hi = data.draw(st.integers(lo + 1, min(lo + 3 * bounds.OMEGA_SEGMENT, SIEVE_LIMIT)),
                       label="hi")
        cuts = sorted(data.draw(st.sets(st.integers(lo + 1, hi), max_size=4), label="cuts"))
        edges = [lo, *cuts, hi + 1]
        tightest = None
        for a, b in zip(edges, edges[1:]):
            (line,) = robin_sweep(a, b - 1).lines
            if tightest is None or line.gap_low < tightest.gap_low:
                tightest = line
        (whole,) = robin_sweep(lo, hi).lines
        assert whole == dataclasses.replace(tightest, name=f"robin_sweep:{lo}..{hi}")

    def test_full_sweep_peak_memory(self):
        # The rise of ru_maxrss over a full sweep: 50 MB for the per-prime
        # strided count this sieve replaced, 48 MB segmented, and 88-99 MB for
        # one bincount over the whole range at once.
        measure = (
            "import resource\n"
            "from regcycle.bounds import robin_sweep\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "robin_sweep(26, 10**6)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        # ru_maxrss keeps the peak of the forking process across exec, so
        # the measuring interpreter is started from a small one.
        launch = (
            "import subprocess, sys\n"
            f"sys.exit(subprocess.run([sys.executable, '-c', {measure!r}]).returncode)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launch], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        rise_mb = int(proc.stdout) / 1024
        assert rise_mb < 60, f"peak RSS rose {rise_mb:.0f} MB"


class TestLandau:
    def test_known_values(self):
        known = {
            1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 6, 7: 12, 8: 15, 9: 20,
            10: 30, 11: 30, 12: 60, 13: 60, 14: 84, 15: 105, 16: 140,
            17: 210, 18: 210, 19: 420, 20: 420,
        }
        for m, g in known.items():
            assert landau_exact(m) == g, m

    def test_oracle_brute_force(self):
        # Compare against direct maximization over cycle types.
        from regcycle.permcore import cycle_types

        for m in range(1, 13):
            best = max(ct.order for ct in cycle_types(m))
            assert landau_exact(m) == best

    def test_monotone(self):
        values = [landau_exact(m) for m in range(1, 201)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            landau_exact(-1)
        with pytest.raises(ValueError):
            landau_exact(1001)


class TestMassias:
    def test_m3_fails(self):
        assert massias_check(3).status == STATUS_FAIL

    def test_sweep_passes(self):
        rep = massias_sweep(4, 200)
        assert rep.all_pass
        assert rep.min_gap >= MARGIN

    def test_rejects_below_3(self):
        with pytest.raises(ValueError):
            massias_check(2)


class TestStirling:
    def test_small_and_crossover(self):
        for n in (1, 2, 3, 50, 140, 141, 142, 500):
            line = stirling_check(n)
            assert line.status == STATUS_PASS, n
            assert line.gap_low >= MARGIN

    def test_exact_factorial_between_brackets(self):
        # Reference float check at moderate n.
        n = 20
        fact = math.factorial(n)
        base = math.sqrt(2 * math.pi * n) * (n / math.e) ** n
        assert base * math.exp(1 / (12 * n + 1)) < fact < base * math.exp(1 / (12 * n))

    def test_sweep_sample(self):
        rep = stirling_sweep(1, 120)
        assert rep.all_pass

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            stirling_check(0)

    @pytest.mark.parametrize("n", [*range(170, 201), 1000])
    def test_matches_linear_scale(self, n):
        assert stirling_check(n) == stirling_linear(n)


def stirling_linear(n: int, margin: float = MARGIN) -> CheckLine:
    """Both factorial brackets compared on the linear scale only."""
    fact = math.factorial(n)
    with bounds._Prec(max(260, int(1.2 * fact.bit_length()) + 64)):
        ni = iv.mpf(n)
        base = iv.sqrt(2 * iv.pi * ni) * iv.exp(ni * (iv.log(ni) - 1))
        f = iv.mpf(fact)
        left = bounds._compare("", base * iv.exp(1 / (12 * ni + 1)), f, margin)
        right = bounds._compare("", f, base * iv.exp(1 / (12 * ni)), margin)
    order = (STATUS_FAIL, STATUS_INCONCLUSIVE, STATUS_PASS)
    return CheckLine(
        name=f"stirling:{n}",
        status=min(left.status, right.status, key=order.index),
        gap_low=min(left.gap_low, right.gap_low),
    )


class TestTechnical:
    def test_alphas(self):
        alphas = technical_inequality_alphas()
        assert Fraction(4, 7) in alphas
        assert Fraction(1, 3) in alphas  # c = 3
        assert Fraction(14, 15) in alphas  # c = 30
        assert len(alphas) == 29

    def test_single(self):
        line = technical_check(10, 2, 3, Fraction(4, 7))
        assert line.status == STATUS_PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            technical_check(2, 2, 1, Fraction(4, 7))
        with pytest.raises(ValueError):
            technical_check(10, 3, 4, Fraction(4, 7))  # kp > m
        with pytest.raises(ValueError):
            technical_check(10, 2, 1, Fraction(1, 3))  # r = 8 > 10/3

    def test_sweep_short(self):
        rep = technical_sweep(3, 60)
        assert rep.all_pass
        assert rep.min_gap >= MARGIN

    @pytest.mark.slow
    @pytest.mark.parametrize("margin", [MARGIN, 0.5, 3.0, 10.0])
    def test_sweep_matches_every_grid_point(self, margin):
        expected = technical_pointwise(3, 40, margin)
        if margin != MARGIN:
            assert expected.failures  # lines the filter must escalate
        assert technical_sweep(3, 40, margin=margin) == expected

    def test_sweep_escalates_at_most_two_points_per_alpha(self, monkeypatch):
        calls = []
        compare = bounds._compare

        def counted(*args, **kwargs):
            calls.append(args[0])
            return compare(*args, **kwargs)

        monkeypatch.setattr(bounds, "_compare", counted)
        rep = technical_sweep(3, 200)
        assert len(rep.lines) == 198 * 29
        assert len(calls) <= 2 * 198 * 29

    def test_sweep_builds_each_left_side_once(self, monkeypatch):
        """The left side does not depend on alpha: one evaluation per
        escalated (m, p, k), however many alphas escalate it."""
        built, escalated = [], set()
        lhs, compare = bounds._technical_lhs, bounds._compare

        def counted(m, p, k):
            built.append((m, p, k))
            return lhs(m, p, k)

        def recorded(name, *args, **kwargs):
            escalated.add(name.rsplit(",a=", 1)[0])
            return compare(name, *args, **kwargs)

        monkeypatch.setattr(bounds, "_technical_lhs", counted)
        monkeypatch.setattr(bounds, "_compare", recorded)
        technical_sweep(3, 200)
        assert len(built) <= len(escalated)


def technical_pointwise(lo: int, hi: int, margin: float) -> SweepReport:
    """technical_sweep's report built from technical_check at every point."""
    lines = []
    for m in range(lo, hi + 1):
        for alpha in technical_inequality_alphas():
            worst = None
            for p in (2, 3, 5, 7, 11, 13):
                for k in range(1, m // p + 1):
                    if m - k * p > alpha * m:
                        continue
                    line = technical_check(m, p, k, alpha, margin)
                    if worst is None or line.gap_low < worst.gap_low:
                        worst = line
                    if not line.ok:
                        lines.append(line)
            if worst is not None and worst.ok:
                lines.append(worst)
    return SweepReport(name="technical_sweep", lines=tuple(lines))


class TestSpanningCount:
    def test_values(self):
        assert spanning_count(2) == 2 * (2 - 1)
        assert spanning_count(3) == 3 * (3 - 1)
        assert spanning_count(4) == 4 * 3 * 2
        assert spanning_count(47) == 47 * 46 * 45 * 43 * 39 * 31

    def test_factor_count(self):
        # floor(log2(m)) factors beyond the leading m.
        for m in (5, 16, 100, 1024):
            expected = 1 + int(math.log2(m))
            out = spanning_count(m)
            count = 0
            i = 0
            while (1 << (i + 1)) <= m:
                count += 1
                i += 1
            assert count + 1 == expected or m & (m - 1) == 0


class TestAlphaBeta:
    def test_row_47(self):
        row = alpha_beta_row(47)
        assert row.ok
        assert row.product_log_high < 0
        # alpha*beta is about 0.36 here.
        assert math.exp(row.product_log_high) < 0.4

    def test_scan_short(self):
        rep = alpha_beta_scan(47, 300)
        assert rep.all_pass

    @pytest.mark.parametrize("m", [3, 6])
    def test_rejects_degrees_below_7(self, m):
        with pytest.raises(ValueError, match="m >= 7"):
            alpha_beta_row(m)
        assert alpha_beta_row(7).status == STATUS_FAIL

    def test_exact_constant_form(self):
        row = alpha_beta_row(47, exact_constant=True)
        assert row.ok
        row2 = alpha_beta_row(1000, exact_constant=True)
        assert row2.ok

    def test_power_of_two_jump_is_real(self):
        # The raw product rises crossing m = 128, so global monotonicity
        # fails even though each stretch is decreasing.
        r127 = alpha_beta_row(127)
        r128 = alpha_beta_row(128)
        assert r128.product_log_high > r127.product_log_high
        rep = alpha_beta_scan(120, 140)
        assert rep.monotone_within_stretches


class TestWreathCaseBound:
    def test_examples(self):
        assert wreath_case_bound(10, 1, 5).status == STATUS_PASS
        assert wreath_case_bound(6, 2, 3).status == STATUS_PASS

    def test_small_domain_rejected(self):
        with pytest.raises(ValueError):
            wreath_case_bound(5, 1, 2)  # C(5,2) = 10 <= 144


class TestDiagonalCrude:
    def test_pass(self):
        line = diagonal_crude_bound(5, 3, 1)
        assert line.status == STATUS_PASS
        total = dict(line.values)["total"]
        assert abs(total - (3 / 5 + 4 / 15 + 1 / 59)) < 1e-12

    def test_two_copies(self):
        assert diagonal_crude_bound(5, 3, 2).status == STATUS_PASS

    def test_fail_when_omega_large(self):
        line = diagonal_crude_bound(5, 5, 1)
        assert line.status == STATUS_FAIL

    def test_validation(self):
        with pytest.raises(ValueError):
            diagonal_crude_bound(4, 1, 1)


class TestE8:
    def test_extremes(self):
        assert e8_demo(2).status == STATUS_PASS
        assert e8_demo(1024).status == STATUS_PASS

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            e8_demo(6)
        with pytest.raises(ValueError):
            e8_demo(1025)

    def test_sweep(self):
        rep = e8_sweep(64)
        assert rep.all_pass
        qs = [int(line.name.split(":")[1]) for line in rep.lines]
        assert qs == [q for q in range(2, 65) if len(factorize(q).primes) == 1]


class TestGroupProfile:
    def test_alt(self):
        assert group_profile("alt", 5).min_faithful_degree == 5
        assert group_profile("alt", 5).omega_aut == 3  # |Aut| = 120
        assert group_profile("alt", 6).omega_aut == omega(1440)
        assert group_profile("alt", 7).min_faithful_degree == 7

    def test_psl2(self):
        assert group_profile("psl2", 4).min_faithful_degree == 5
        assert group_profile("psl2", 5).min_faithful_degree == 5
        assert group_profile("psl2", 7).min_faithful_degree == 7
        assert group_profile("psl2", 9).min_faithful_degree == 6
        assert group_profile("psl2", 11).min_faithful_degree == 11
        assert group_profile("psl2", 13).min_faithful_degree == 14
        assert group_profile("psl2", 8).min_faithful_degree == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            group_profile("alt", 4)
        with pytest.raises(ValueError):
            group_profile("psl2", 6)
        with pytest.raises(ValueError):
            group_profile("sporadic", 1)


class TestSameBits:
    @pytest.mark.parametrize(
        "name",
        [pytest.param(name, marks=pytest.mark.slow) if name in SLOW_PINNED else name
         for name in PINNED_BOUNDS],
    )
    def test_values_match_the_pinned_digest(self, name):
        values, expected = PINNED_BOUNDS[name]
        assert digest(values()) == expected

    def test_interleaved_precisions(self, monkeypatch):
        """From empty caches, a 260-bit Massias line (bounds-all runs the
        Massias sweep before the alpha-beta scan), a 300-bit row, the
        Massias line again, a 1376-bit Stirling line and the row again.
        Every row and line, and the exact endpoints of every interval
        compared, are those of a fresh evaluation: a constant made at one
        precision and read at another changes those endpoints."""
        for cached in vars(bounds).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        compared = []
        compare = bounds._compare

        def recorded(name, lhs, rhs, *args, **kwargs):
            compared.append((name, lhs._mpi_, rhs._mpi_))
            return compare(name, lhs, rhs, *args, **kwargs)

        monkeypatch.setattr(bounds, "_compare", recorded)
        saved = iv.prec
        results = []
        for check in (lambda: massias_check(200), lambda: alpha_beta_row(200),
                      lambda: massias_check(200), lambda: stirling_check(180),
                      lambda: alpha_beta_row(200)):
            results.append(check())
            assert iv.prec == saved
        assert results[1] == results[4]
        assert digest(results) == "82f53b360d25c92d72d9d6dc9e5ebc92c4033d44672048caeb3b1dd1ea696e61"
        assert digest(compared) == "b25bcf4b7aaf3264432a468312a617484876155507d9238d408b0bef9f1442f1"
