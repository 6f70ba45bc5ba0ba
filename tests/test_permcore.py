"""Permutation arithmetic, cycle notation, factorization and thresholds."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcycle import (
    CycleType,
    Permutation,
    canonical_permutation,
    cycle_types,
    factorize,
    first_primes,
    nk_threshold,
    orbit_length_array,
    orbit_partition,
    parse_cycles,
    primes_upto,
    render_cycles,
)
from regcycle.actions import WreathElement, power_images
from regcycle.gfalgebra import Matrix, field_ops
from regcycle.permcore import cycle_type_count, orbit_labels, power


def naive_primes(limit: int) -> list[int]:
    """Independent sieve oracle."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


class TestPermutation:
    def test_parse_simple(self):
        p = parse_cycles("(1 2 3)(4 5)", 6)
        assert p.images == (1, 2, 0, 4, 3, 5)

    def test_parse_commas(self):
        assert parse_cycles("(1,2,3)", 3) == parse_cycles("(1 2 3)", 3)

    def test_parse_identity(self):
        assert parse_cycles("", 4).is_identity()
        assert parse_cycles("()", 4).is_identity()

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3)", 4)
        with pytest.raises(ValueError):
            parse_cycles("(1 9)", 4)
        with pytest.raises(ValueError):
            parse_cycles("(1 2", 4)
        with pytest.raises(ValueError):
            parse_cycles("1 2)", 4)

    def test_composition_order(self):
        # Right action: apply p then q.
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(2 3)", 3)
        pq = p * q
        # 1 -> 2 under p, 2 -> 3 under q.
        assert pq.images[0] == 2

    def test_composition_refuses_mixed_degrees(self):
        with pytest.raises(ValueError, match="degrees 4 and 5 differ"):
            parse_cycles("(1 2)", 4) * parse_cycles("(4 5)", 5)

    def test_inverse_and_pow(self):
        p = parse_cycles("(1 2 3 4 5)(6 7)", 8)
        assert (p * p.inverse()).is_identity()
        assert p**0 == Permutation.identity(8)
        assert p**-1 == p.inverse()
        assert p**10 == (p**5) * (p**5)

    def test_alt7_example(self):
        p = parse_cycles("(1 2 3)(4 5)(6 7)", 7)
        assert p.order() == 6
        assert p.is_even()

    def test_cycle_type_includes_fixed_points(self):
        p = parse_cycles("(1 2)", 5)
        assert p.cycle_type().parts == (2, 1, 1, 1)
        assert p.cycle_type().degree == 5

    @given(st.integers(1, 64), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_render_parse_round_trip(self, degree, seed):
        rng = random.Random(seed)
        images = list(range(degree))
        rng.shuffle(images)
        p = Permutation(images)
        assert parse_cycles(render_cycles(p), degree) == p

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_commuting_disjoint_order_divides_lcm(self, seed):
        rng = random.Random(seed)
        # Two permutations with disjoint supports commute.
        left = list(range(6))
        right = list(range(6))
        rng.shuffle(left)
        rng.shuffle(right)
        p = Permutation(tuple(left) + tuple(range(6, 12)))
        q = Permutation(tuple(range(6)) + tuple(v + 6 for v in right))
        assert p * q == q * p
        assert math.lcm(p.order(), q.order()) % (p * q).order() == 0

    def test_conjugation_preserves_type(self):
        rng = random.Random(7)
        for _ in range(50):
            images = list(range(9))
            rng.shuffle(images)
            g = Permutation(images)
            rng.shuffle(images)
            c = Permutation(images)
            assert g.conj(c).cycle_type() == g.cycle_type()


class TestPrimes:
    def test_primes_match_oracle(self):
        assert list(primes_upto(1000)) == naive_primes(1000)

    def test_first_primes(self):
        assert first_primes(5) == (2, 3, 5, 7, 11)

    def test_factorize_known(self):
        f = factorize(720720)
        # Oracle: repeated division by the naive prime list.
        n, pairs = 720720, []
        for p in naive_primes(100):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                pairs.append((p, e))
        assert f.prime_powers == tuple(pairs)
        assert f.omega == 6

    def test_factorize_one(self):
        f = factorize(1)
        assert f.prime_powers == ()
        assert f.omega == 0

    def test_factorize_reconstruction_small_sweep(self):
        for n in range(1, 20001):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.prime_powers) == n
            assert all(f.prime_powers[i][0] < f.prime_powers[i + 1][0] for i in range(len(f.prime_powers) - 1))

    def test_factorize_reconstruction_sampled_to_limit(self):
        rng = random.Random(20260819)
        for _ in range(2000):
            n = rng.randrange(1, 1_000_001)
            f = factorize(n)
            assert math.prod(p**e for p, e in f.prime_powers) == n

    def test_factorize_beyond_sieve(self):
        n = 1_000_003 * 2  # prime just above the sieve limit, times two
        f = factorize(n)
        assert f.prime_powers == ((2, 1), (1_000_003, 1))

    def test_nk_threshold(self):
        # Oracle: sums of the first k+1 primes from the independent sieve.
        ps = naive_primes(100)
        for k in range(1, 9):
            assert nk_threshold(k) == sum(ps[: k + 1])
        assert nk_threshold(1) == 5
        assert nk_threshold(2) == 10
        assert nk_threshold(3) == 17
        assert nk_threshold(4) == 28

    def test_nk_threshold_rejects_zero(self):
        with pytest.raises(ValueError):
            nk_threshold(0)


class TestCycleTypes:
    def test_enumeration_counts(self):
        # Partition counts p(1..10) from the standard recurrence.
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for m, count in zip(range(1, 11), expected):
            assert sum(1 for _ in cycle_types(m)) == count

    def test_reverse_lex_order(self):
        types = [ct.parts for ct in cycle_types(4)]
        assert types == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_canonical_permutation(self):
        ct = CycleType.of([3, 2, 1])
        p = canonical_permutation(ct)
        assert render_cycles(p) == "(1 2 3)(4 5)"
        assert p.cycle_type() == ct

    def test_canonical_permutation_all_types(self):
        for m in range(1, 9):
            for ct in cycle_types(m):
                assert canonical_permutation(ct).cycle_type() == ct

    def test_cycle_type_validation(self):
        with pytest.raises(ValueError):
            CycleType((1, 2), 3)
        with pytest.raises(ValueError):
            CycleType((2, 1), 4)

    def test_cycle_type_count(self):
        assert [cycle_type_count(m) for m in (0, 1, 13, 16, 17, 20)] == [1, 1, 101, 231, 297, 627]
        for m in range(12):
            assert cycle_type_count(m) == sum(1 for _ in cycle_types(m))


def walked_lengths(images) -> tuple[list[int], list[int]]:
    """(orbit length, least orbit point) of every point, from the walk."""
    n = len(images)
    lengths, least = [0] * n, [0] * n
    for orbit in orbit_partition(images):
        for x in orbit:
            lengths[x], least[x] = len(orbit), orbit[0]
    return lengths, least


def check_orbit_kernel(images) -> None:
    lengths, least = walked_lengths(images)
    assert orbit_length_array(images).tolist() == lengths
    assert orbit_labels(images).tolist() == least


class TestOrbitKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda n: st.permutations(list(range(n)))))
    def test_matches_walk(self, images):
        check_orbit_kernel(images)
        check_orbit_kernel(np.array(images, dtype=np.int64))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 16, 17, 300, 4097])
    def test_identity_and_single_cycle(self, n):
        check_orbit_kernel(list(range(n)))
        # One n-cycle needs every one of the ceil(log2 n) rounds.
        cycle = list(range(1, n)) + [0] if n else []
        check_orbit_kernel(cycle)
        assert orbit_length_array(cycle).tolist() == [n] * n

    def test_degree_4097(self):
        rng = random.Random(4097)
        images = list(range(4097))
        rng.shuffle(images)
        check_orbit_kernel(images)


def repeated(x, e, one, mul):
    """x^e by e multiplications, the oracle for `power`."""
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def power_cases():
    """(element, identity) for every element type with a ``**``."""
    wreath = WreathElement(
        (parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)), parse_cycles("(1 2)", 2)
    )
    gf5, gf4 = field_ops(5), field_ops(4)
    return [
        (parse_cycles("(1 2 3 4 5)(6 7)(8 9 10)", 10), Permutation.identity(10)),
        (parse_cycles("(1 2 3 4 5 6 7 8)", 8), Permutation.identity(8)),
        (wreath, WreathElement.identity(3, 2)),
        (Matrix.from_rows(gf5, [[0, 1], [1, 1]]), Matrix.identity(gf5, 2)),
        (Matrix.from_rows(gf4, [[2, 1], [1, 0]]), Matrix.identity(gf4, 2)),
    ]


class TestPower:
    @pytest.mark.parametrize("case", range(5))
    def test_elements_match_repeated_multiplication(self, case):
        g, one = power_cases()[case]
        order = g.order()
        for e in range(2 * order + 2):
            expected = repeated(g, e, one, lambda a, b: a * b)
            assert power(g, e, one) == expected, e
            # A start value s gives s, then g^e.
            assert power(g, e, g) == g * expected, e
            assert g**e == expected, e
        assert g**order == one and g ** (order + 1) == g

    @pytest.mark.parametrize("case", range(5))
    def test_negative_exponent_goes_through_inverse(self, case):
        g, one = power_cases()[case]
        inv = g.inverse()
        assert g**-1 == inv and g**-1 * g == one
        for e in range(1, 9):
            assert g**-e == inv**e

    def test_image_arrays(self):
        rng = random.Random(13)
        images = list(range(12))
        rng.shuffle(images)
        base = np.array(images, dtype=np.int64)
        order = Permutation(images).order()
        one = np.arange(12, dtype=np.int64)
        for e in range(2 * order + 2):
            expected = repeated(base, e, one, lambda a, b: b[a])
            assert power(base, e, one, lambda a, b: b[a]).tolist() == expected.tolist()
            assert np.asarray(power_images(images, e)).tolist() == expected.tolist()

    @pytest.mark.parametrize("q", [4, 7, 8, 9])
    def test_field_elements(self, q):
        f = field_ops(q)
        a = f.primitive_element()
        for e in range(2 * (q - 1) + 2):
            assert power(a, e, 1, f.mul) == repeated(a, e, 1, f.mul), e

    def test_frobenius_is_the_p_th_power(self):
        for q in (4, 8, 9):
            f = field_ops(q)
            assert [f.frobenius(a) for a in range(q)] == [
                repeated(a, f.p, 1, f.mul) for a in range(q)
            ]

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            power(3, -1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            power_images([1, 0], -2)

    def test_skips_the_last_squaring(self):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a + b

        # 10 = 0b1010: three squarings and two multiplications, no more.
        assert power(1, 10, 0, mul) == 10
        assert len(calls) == 5
