"""Tests for the interval-checked inequality pipelines.

Independent oracles: exact integer computations (factorials, lcm tables,
prime counts) and literature values for the largest permutation order.
"""

import math
import os
from fractions import Fraction

import pytest

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
from regcycle.permcore import factorize


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

