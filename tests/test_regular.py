"""Tests for deciders and witness constructions.

Oracles here are deliberately independent of the library's certification
path: orbits of sets, partitions, and tuples are walked with direct image
arithmetic on external values, never through action index tables.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcycle import regular
from regcycle.actions import (
    AffineVectorsAction,
    CosetsAction,
    DiagonalAction,
    DiagonalElement,
    DiagonalGroupData,
    KSetsAction,
    NaturalAction,
    PartitionsAction,
    ProductAction,
    VectorsAction,
    WreathElement,
    orbit_lengths,
    power_images,
)
from regcycle.gfalgebra import AffineMap, Matrix, field_ops
from regcycle.groups import (
    AmbientAutomorphisms,
    all_permutations,
    alternating_group,
    closure,
    gl_elements,
    symmetric_group,
)
from regcycle.permcore import (
    CycleType,
    Permutation,
    cycle_types,
    factorize,
    first_primes,
    nk_threshold,
    orbit_partition,
    parse_cycles,
    render_cycles,
)
from regcycle.regular import (
    CASE_CONSECUTIVE_RUNS,
    CASE_IMPOSSIBLE,
    CASE_PADDED_NEAR_FULL,
    DECIDE_TABLE,
    METHODS,
    MIN_COVER_SUBSETS,
    DomainCapError,
    PartitionCaseError,
    Verdict,
    affine_witness,
    certify_regular,
    confirmed_order,
    decide,
    decide_bruteforce,
    decide_fix_union,
    diagonal_elements,
    diagonal_fpr_audit,
    gl_regular_vector_set,
    kset_decide,
    kset_witness,
    ksets_theorem_scan,
    min_cover,
    partition_witness,
    product_witness,
    wreath_fpr_max,
)


def perm_strategy(degree: int):
    return st.permutations(range(degree)).map(lambda t: Permutation(tuple(t)))


def canonical_of_type(parts) -> Permutation:
    """Permutation with the given cycle lengths on consecutive points."""
    cycles = []
    at = 1
    for p in sorted(parts, reverse=True):
        cycles.append(tuple(range(at, at + p)))
        at += p
    return parse_cycles(
        "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles if len(c) > 1),
        sum(parts),
    )


def kset_orbit_length(g: Permutation, s: tuple[int, ...]) -> int:
    """Independent oracle: walk the set orbit by direct image arithmetic."""
    imgs = g.images

    def step(t):
        return tuple(sorted(imgs[v - 1] + 1 for v in t))

    cur = step(s)
    n = 1
    while cur != s:
        cur = step(cur)
        n += 1
        assert n <= 10**6
    return n


def partition_orbit_length(g: Permutation, blocks) -> int:
    """Independent oracle for block-system orbits, external labels."""
    imgs = g.images

    def step(bs):
        return frozenset(frozenset(imgs[v - 1] + 1 for v in blk) for blk in bs)

    start = frozenset(frozenset(blk) for blk in blocks)
    cur = step(start)
    n = 1
    while cur != start:
        cur = step(cur)
        n += 1
        assert n <= 10**6
    return n


def assert_regular_partition(g: Permutation, blocks, a: int, b: int) -> None:
    """Independent oracle: blocks partition 1..ab into b blocks of size a,
    and no g^(o/p), p a prime dividing o = |g|, maps them to themselves."""
    assert len(blocks) == b and all(len(blk) == a for blk in blocks)
    assert sorted(v for blk in blocks for v in blk) == list(range(1, a * b + 1))
    order = g.order()
    start = frozenset(frozenset(blk) for blk in blocks)
    for p in range(2, order + 1):
        if order % p or any(p % d == 0 for d in range(2, p)):
            continue
        h = (g ** (order // p)).images
        image = frozenset(frozenset(h[v - 1] + 1 for v in blk) for blk in start)
        assert image != start, f"fixed by g^({order}/{p})"


def tuple_orbit_length(g: WreathElement, w: tuple[int, ...]) -> int:
    """Independent oracle for the product action, external 1-based tuples."""
    tinv = g.top.inverse().images

    def step(t):
        return tuple(
            g.components[tinv[j]].images[t[tinv[j]] - 1] + 1 for j in range(len(t))
        )

    cur = step(w)
    n = 1
    while cur != w:
        cur = step(cur)
        n += 1
        assert n <= 10**6
    return n


# ---------------------------------------------------------------------------
# Verdict plumbing


class TestVerdict:
    def test_json_shape_and_order(self):
        v = decide_bruteforce(NaturalAction(4), parse_cycles("(1 2 3 4)", 4))
        js = v.to_json()
        assert list(js) == [
            "schema",
            "element",
            "order",
            "induced_order",
            "action",
            "verdict",
            "witness",
            "method",
            "certified",
            "flags",
        ]
        assert js["schema"] == 1
        assert js["verdict"] is True
        assert js["witness"] == 1
        assert js["action"] == "natural:4"

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            Verdict(2, 2, True, None, "magic", True)

    def test_rejects_induced_above_order(self):
        with pytest.raises(ValueError):
            Verdict(2, 4, True, None, "bruteforce", True)

class TestRenderElement:
    """str(g) is the verdict's element text, for every element type."""

    def test_permutation(self):
        assert str(parse_cycles("(1 2)", 4)) == "(1 2)"
        assert str(Permutation.identity(3)) == "()"

    def test_wreath(self):
        g = WreathElement(
            (parse_cycles("(1 2)", 3), Permutation.identity(3)),
            parse_cycles("(1 2)", 2),
        )
        assert str(g) == "(1 2)|()@(1 2)"

    def test_matrix(self):
        f = field_ops(3)
        m = Matrix.from_rows(f, [[1, 1], [0, 1]])
        assert str(m) == "1,1,0,1"

    def test_affine(self):
        f = field_ops(3)
        a = AffineMap(Matrix.from_rows(f, [[1]]), (2,))
        assert str(a) == "1+2"

    def test_diagonal(self):
        g = DiagonalElement(parse_cycles("(1 2)", 3), 1, (6, 0))
        assert str(g) == "sigma=(1 2);phi=2;m=7,1"

    def test_verdict_element_text(self):
        g = parse_cycles("(1 2 3)", 4)
        assert decide(NaturalAction(4), g).element_text == "(1 2 3)"


# ---------------------------------------------------------------------------
# Brute force and fixed-set-union deciders


class TestDecideBruteforce:
    def test_type_532_on_2sets(self):
        # 30 divides no orbit length: the lcm needs all three cycles but a
        # 2-set can only meet two of them nontrivially.
        g = parse_cycles("(1 2 3 4 5)(6 7 8)(9 10)", 10)
        act = KSetsAction(10, 2)
        v = decide_bruteforce(act, g)
        assert v.group_order_of_g == 30
        assert v.induced_order == 30
        assert not v.has_regular_cycle
        assert v.witness is None
        assert v.certified
        assert sorted(orbit_lengths(act.induced_images(g))) == [1, 3, 5, 5, 6, 10, 15]

    def test_witness_is_first_in_point_order(self):
        g = parse_cycles("(1 2 3)", 5)
        v = decide_bruteforce(NaturalAction(5), g)
        assert v.has_regular_cycle
        assert v.witness == 1

    def test_unfaithful_flag(self):
        act = PartitionsAction(2, 2)
        g = parse_cycles("(1 2)(3 4)", 4)
        v = decide_bruteforce(act, g)
        assert v.induced_order == 1 < v.group_order_of_g
        assert "unfaithful" in v.flags
        assert not v.has_regular_cycle

    def test_four_cycle_on_2x2_partitions(self):
        act = PartitionsAction(2, 2)
        g = parse_cycles("(1 2 3 4)", 4)
        v = decide_bruteforce(act, g)
        assert v.group_order_of_g == 4
        assert not v.has_regular_cycle
        assert max(orbit_lengths(act.induced_images(g))) == 2

    def test_identity(self):
        v = decide_bruteforce(NaturalAction(3), Permutation.identity(3))
        assert v.has_regular_cycle and v.witness == 1 and v.group_order_of_g == 1


class TestDecideFixUnion:
    def test_six_cycle_natural(self):
        g = parse_cycles("(1 2 3 4 5 6)", 6)
        v = decide_fix_union(NaturalAction(6), g)
        assert v.has_regular_cycle and v.witness == 1 and v.certified

    def test_witness_is_first_uncovered(self):
        # g^2 fixes 1 and 2, so the first point clear of every fixed set is 3.
        g = parse_cycles("(1 2)(3 4 5 6)", 6)
        v = decide_fix_union(NaturalAction(6), g)
        assert v.has_regular_cycle
        assert v.witness == 3
        g2 = parse_cycles("(1 2)(3 4 5 6)", 7)
        v2 = decide_fix_union(KSetsAction(7, 2), g2)
        b2 = decide_bruteforce(KSetsAction(7, 2), g2)
        assert v2.has_regular_cycle == b2.has_regular_cycle

    def test_identity_trivially_regular(self):
        v = decide_fix_union(NaturalAction(4), Permutation.identity(4))
        assert v.has_regular_cycle
        assert "identity" in v.flags

    def test_unfaithful_means_no_regular_cycle(self):
        act = PartitionsAction(2, 2)
        g = parse_cycles("(1 2 3 4)", 4)
        v = decide_fix_union(act, g)
        assert not v.has_regular_cycle
        assert v.induced_order == 2

    @pytest.mark.parametrize("degree", [4, 6])
    def test_induced_order_on_unfaithful_actions(self, degree):
        # The 2x2 partitions have the Klein four-group as kernel; the cosets
        # of Alt(6) see only the sign, so the even (1 2 3 4)(5 6) of order 4
        # acts trivially and both factors of 2 must be divided out.
        group = symmetric_group(degree)
        if degree == 4:
            act = PartitionsAction(2, 2)
        else:
            act = CosetsAction(group, alternating_group(degree))
        unfaithful = 0
        for g in group:
            v = decide_fix_union(act, g)
            induced = math.lcm(*orbit_lengths(act.induced_images(g)))
            assert v.induced_order == induced, render_cycles(g)
            assert v.induced_order == decide_bruteforce(act, g).induced_order
            assert ("unfaithful" in v.flags) == (induced < g.order())
            unfaithful += induced < g.order()
        assert unfaithful > 0

    @settings(max_examples=150, deadline=None)
    @given(perm_strategy(7))
    def test_agrees_with_bruteforce_natural(self, g):
        a = NaturalAction(7)
        assert (
            decide_fix_union(a, g).has_regular_cycle
            == decide_bruteforce(a, g).has_regular_cycle
        )

    @settings(max_examples=80, deadline=None)
    @given(perm_strategy(7), st.integers(min_value=1, max_value=3))
    def test_agrees_with_bruteforce_ksets(self, g, k):
        a = KSetsAction(7, k)
        vf = decide_fix_union(a, g)
        vb = decide_bruteforce(a, g)
        assert vf.has_regular_cycle == vb.has_regular_cycle
        assert vf.induced_order == vb.induced_order

    @settings(max_examples=60, deadline=None)
    @given(perm_strategy(6))
    def test_agrees_with_bruteforce_partitions(self, g):
        a = PartitionsAction(2, 3)
        assert (
            decide_fix_union(a, g).has_regular_cycle
            == decide_bruteforce(a, g).has_regular_cycle
        )

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy(8), perm_strategy(8))
    def test_conjugation_invariance(self, g, c):
        a = NaturalAction(8)
        assert (
            decide_fix_union(a, g).has_regular_cycle
            == decide_fix_union(a, g.conj(c)).has_regular_cycle
        )


class TestSharedRecord:
    """Both deciders read one (order, images) record per (action, g)."""

    @staticmethod
    def pair(kind, alt5_diagonal):
        if kind == "diagonal":
            return DiagonalAction(alt5_diagonal, 2), DiagonalElement(
                Permutation((1, 2, 0)), 7, (5, 17)
            )
        return KSetsAction(9, 3), parse_cycles("(1 2 3 4)(5 6 7)(8 9)", 9)

    @staticmethod
    def count_calls(monkeypatch, cls):
        calls = {"element_order": [], "induced_images": []}
        for name, log in calls.items():
            real = getattr(cls, name)

            def counted(self, g, real=real, log=log):
                log.append(g)
                return real(self, g)

            monkeypatch.setattr(cls, name, counted)
        return calls

    @pytest.mark.parametrize("first", ["bruteforce", "fix_union"])
    @pytest.mark.parametrize("kind", ["diagonal", "ksets"])
    def test_one_order_and_one_build_per_pair(self, alt5_diagonal, monkeypatch, kind, first):
        act, g = self.pair(kind, alt5_diagonal)
        expected = (decide_bruteforce(act, g), decide_fix_union(act, g))
        act, g = self.pair(kind, alt5_diagonal)
        calls = self.count_calls(monkeypatch, type(act))
        deciders = [decide_bruteforce, decide_fix_union]
        if first == "fix_union":
            deciders.reverse()
        verdicts = {d.__name__: d(act, g) for d in deciders}
        assert calls == {"element_order": [g], "induced_images": [g]}
        assert (verdicts["decide_bruteforce"], verdicts["decide_fix_union"]) == expected

    def test_identity_reads_no_images(self, monkeypatch):
        act, e = KSetsAction(9, 3), Permutation.identity(9)
        calls = self.count_calls(monkeypatch, KSetsAction)
        assert decide_fix_union(act, e).flags == ("identity",)
        assert calls == {"element_order": [e], "induced_images": []}
        assert decide_bruteforce(act, e).witness == (1, 2, 3)
        assert calls == {"element_order": [e], "induced_images": [e]}

    def test_another_pair_between_the_deciders(self, alt5_diagonal):
        act, g = self.pair("ksets", alt5_diagonal)
        other, h = self.pair("diagonal", alt5_diagonal)
        alone = (decide_bruteforce(act, g), decide_fix_union(act, g))
        act, g = self.pair("ksets", alt5_diagonal)
        bf = decide_bruteforce(act, g)
        decide_bruteforce(other, h)
        decide_fix_union(KSetsAction(9, 3), g)
        assert (bf, decide_fix_union(act, g)) == alone

    def test_equal_element_that_is_another_object(self, monkeypatch):
        natural, pairs = NaturalAction(6), KSetsAction(6, 2)
        g = parse_cycles("(1 2)(3 4 5 6)", 6)
        twin = Permutation(g.images)
        assert twin == g and twin is not g
        expected = decide_fix_union(pairs, parse_cycles("(1 2)(3 4 5 6)", 6))
        calls = self.count_calls(monkeypatch, NaturalAction)
        assert decide_bruteforce(natural, g).witness == 3
        assert decide_fix_union(natural, twin).witness == 3
        assert calls["induced_images"] == [g, twin]
        assert decide_fix_union(pairs, twin) == expected

    def test_images_are_read_only(self, monkeypatch):
        act, g = NaturalAction(6), parse_cycles("(1 2 3)(4 5)", 6)
        built = np.array([1, 2, 0, 4, 3, 5])
        monkeypatch.setattr(NaturalAction, "induced_images", lambda self, elem: built)
        order, images = regular._record(act, g)
        assert order == 6 and images.dtype == np.int64
        assert images.tolist() == built.tolist()
        assert not images.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            images[0] = 0
        # The record is a read-only view: the array the action built is untouched.
        assert built.flags.writeable

    def test_slot_holds_one_pair(self, monkeypatch):
        first, g = KSetsAction(9, 3), parse_cycles("(1 2 3 4)(5 6 7)(8 9)", 9)
        second, h = KSetsAction(9, 2), parse_cycles("(1 2 3 4 5)", 9)
        decide_bruteforce(first, g)
        assert len(regular._last_record) == 1
        assert regular._last_record[0][:2] == (first, g)
        held = weakref.ref(regular._last_record[0][3])
        build = KSetsAction.induced_images
        seen = []

        def checked(self, elem):
            # The previous pair's array is gone before the next one is built.
            seen.append((held(), regular._last_record[0]))
            return build(self, elem)

        monkeypatch.setattr(KSetsAction, "induced_images", checked)
        decide_bruteforce(second, h)
        assert seen == [(None, (None, None, 0, None))]
        assert held() is None
        assert len(regular._last_record) == 1
        assert regular._last_record[0][:2] == (second, h)

    def test_poisoned_record_fails_the_certificate(self, monkeypatch):
        # The planted images put point 1 on a 4-cycle, but g moves 1 on a
        # 2-cycle: the witness fix_union reads off them is not regular.
        act, g = NaturalAction(6), parse_cycles("(1 2)(3 4 5 6)", 6)
        wrong = np.array([1, 2, 3, 0, 4, 5])
        monkeypatch.setattr(regular, "_last_record", [(act, g, 4, wrong)])
        with pytest.raises(AssertionError, match="fixes the point 1"):
            decide_fix_union(act, g)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300).flatmap(lambda n: st.permutations(range(n))),
        st.sampled_from([1, 2, 3, 4, 5, 6, 12]),
    )
    def test_ladder_matches_power_images(self, perm, unfaithful):
        # One ladder against a square-and-multiply per power, and both
        # against orbit lengths walked apart: a point is covered iff its
        # orbit is shorter than the order, and the induced order is their
        # lcm. The factor `unfaithful` raises the element's order past it.
        images = np.array(perm, dtype=np.int64)
        lengths = {x: len(orbit) for orbit in orbit_partition(perm) for x in orbit}
        induced = math.lcm(*lengths.values())
        order = induced * unfaithful
        if order == 1:
            return
        covered, got_induced = regular._fixed_union(images, order)
        idx = np.arange(len(perm))
        reference = np.zeros(len(perm), dtype=bool)
        ref_induced = order
        for p in factorize(order).primes:
            fixed = np.asarray(power_images(images, order // p)) == idx
            reference |= fixed
            while ref_induced % p == 0 and (
                np.asarray(power_images(images, ref_induced // p)) == idx
            ).all():
                ref_induced //= p
        assert covered.tolist() == reference.tolist()
        assert covered.tolist() == [lengths[x] != order for x in range(len(perm))]
        assert got_induced == ref_induced == induced


class TestCertifyRegular:
    def test_rejects_point_on_short_cycle(self):
        g = parse_cycles("(1 2 3 4)(5 6)", 6)
        with pytest.raises(AssertionError, match=r"g\^\(4/2\) fixes the point 5"):
            certify_regular(NaturalAction(6), g, 5, 4)

    def test_rejects_order_that_is_not_a_period(self):
        g = parse_cycles("(1 2 3 4)", 4)
        with pytest.raises(AssertionError, match="moves"):
            certify_regular(NaturalAction(4), g, 1, 2)

    @pytest.mark.parametrize(
        "action, g, pt, order",
        [
            (KSetsAction(5, 2), parse_cycles("(1 2 3 4 5)", 5), (3, 3), 5),
            (KSetsAction(5, 2), parse_cycles("(1 2 3 4 5)", 5), (1, 2, 3), 5),
            (PartitionsAction(2, 3), parse_cycles("(1 2 3 4 5 6)", 6), ((1, 2, 3), (4, 5, 6)), 6),
            (PartitionsAction(2, 3), parse_cycles("(1 2 3 4 5 6)", 6), ((1, 3), (2, 4), (5, 5)), 6),
            (
                ProductAction(3, 2),
                WreathElement([parse_cycles("(1 2 3)", 3)] * 2, Permutation.identity(2)),
                (1, 4),
                3,
            ),
        ],
        ids=["kset-repeated", "kset-too-many", "partition-block-size", "partition-repeated", "tuple-range"],
    )
    def test_rejects_a_non_point(self, action, g, pt, order):
        with pytest.raises(AssertionError, match=rf"is not a point of {action.name}"):
            certify_regular(action, g, pt, order)

    @settings(max_examples=80, deadline=None)
    @given(perm_strategy(7), st.integers(1, 3))
    def test_matches_orbit_walk(self, g, k):
        order = g.order()
        for action in (NaturalAction(7), KSetsAction(7, k)):
            for idx in range(action.size):
                pt = action.point(idx)
                walked = kset_orbit_length(g, pt if isinstance(pt, tuple) else (pt,))
                try:
                    certify_regular(action, g, pt, order)
                    certified = True
                except AssertionError:
                    certified = False
                assert certified == (walked == order), (g, action.name, pt)

    def test_ksets_high_order_in_bounded_time(self):
        parts = [23, 19, 17, 13, 11, 7, 5, 3, 2]
        g = canonical_of_type(parts)
        order = math.prod(parts)
        start = time.perf_counter()
        v = decide(KSetsAction(100, 9), g)
        assert time.perf_counter() - start < 5
        assert v.method == "kset_combinatorial" and v.has_regular_cycle
        w = frozenset(v.witness)
        assert len(w) == 9
        # The primes dividing the order are the cycle lengths.
        for p in parts:
            h = g ** (order // p)
            assert frozenset(h.images[x - 1] + 1 for x in w) != w, p

    def test_partition_3x10_of_order_4620(self):
        parts = [11, 7, 5, 4, 3]
        g = canonical_of_type(parts)
        order = g.order()
        assert order == 4620
        w = partition_witness(g, 3, 10)
        assert_regular_partition(g, w, 3, 10)
        assert partition_orbit_length(g, w) == order

    def test_partition_transposition_3x10_in_bounded_time(self):
        g = parse_cycles("(1 2)", 30)
        start = time.perf_counter()
        w = partition_witness(g, 3, 10)
        assert time.perf_counter() - start < 1
        assert_regular_partition(g, w, 3, 10)


def certificate_cases(alt5_diagonal):
    """(action, g) pairs of every element type the certificate powers: the
    permutation actions and the wreath element through cycle lists, the
    matrices, affine maps and diagonal elements through the ladder."""
    gf5, gf3 = field_ops(5), field_ops(3)
    diag = DiagonalAction(alt5_diagonal, 1)
    return [
        (NaturalAction(5), parse_cycles("(1 2)(3 4 5)", 5)),
        (KSetsAction(7, 3), parse_cycles("(1 2 3 4)(5 6)", 7)),
        (PartitionsAction(2, 3), parse_cycles("(1 2 3)(4 5)", 6)),
        (
            ProductAction(3, 2),
            WreathElement([parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)], Permutation.identity(2)),
        ),
        (
            ProductAction(3, 3),
            WreathElement(
                [parse_cycles("(1 2)", 3), Permutation.identity(3), parse_cycles("(2 3)", 3)],
                parse_cycles("(1 2)", 3),
            ),
        ),
        (VectorsAction(2, 5), Matrix.from_rows(gf5, [[2, 0], [0, 4]])),
        (AffineVectorsAction(2, 3), AffineMap(Matrix.from_rows(gf3, [[2, 0], [0, 1]]), (0, 1))),
        (diag, DiagonalElement(parse_cycles("(1 2)", 2), 7, (11,))),
        (diag, DiagonalElement(Permutation.identity(2), 3, (5,))),
    ]


class TestSelfCheckingCertificate:
    """certify_regular proves g^order = 1 on the element, so an order that
    is only the point's orbit length is refused."""

    def test_orbit_length_that_is_not_the_order(self):
        g = parse_cycles("(1 2)(3 4 5)", 5)
        for pt, order in ((1, 2), (3, 3), (4, 3)):
            with pytest.raises(AssertionError, match="moves"):
                certify_regular(NaturalAction(5), g, pt, order)
        # A multiple of the order is refused by a prime-index power instead.
        with pytest.raises(AssertionError, match=r"g\^\(12/2\) fixes the point 1"):
            certify_regular(NaturalAction(5), g, 1, 12)
        # At the order itself, the 2-cycle point is fixed by g^(6/3).
        with pytest.raises(AssertionError, match=r"g\^\(6/3\) fixes the point 1"):
            certify_regular(NaturalAction(5), g, 1, 6)

    @pytest.mark.parametrize("case", range(9))
    def test_every_point_against_its_orbit_length(self, alt5_diagonal, case):
        # Certifying each point at its own orbit length L succeeds exactly
        # when L is the order of g; at the order it succeeds exactly on the
        # regular points. The orbit lengths are walked here, point by point.
        action, g = certificate_cases(alt5_diagonal)[case]
        images = action.induced_images(g)
        lengths = []
        for i in range(action.size):
            j, length = int(images[i]), 1
            while j != i:
                j, length = int(images[j]), length + 1
            lengths.append(length)
        order = action.element_order(g)
        assert math.lcm(*lengths) == order and order > min(lengths), case
        for i, length in enumerate(lengths):
            pt = action.point(i)
            if length == order:
                assert certify_regular(action, g, pt, order) == pt
                continue
            with pytest.raises(AssertionError, match="moves"):
                certify_regular(action, g, pt, length)
            with pytest.raises(AssertionError, match="fixes"):
                certify_regular(action, g, pt, order)

    def test_affine_witness_makes_one_ladder(self, monkeypatch):
        import regcycle.regular as regular

        def refused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(regular, "confirmed_order", refused)
        monkeypatch.setattr(Matrix, "__pow__", refused)
        steps = []
        compose = AffineMap.compose

        def counted(f, h):
            steps.append("square" if f is h else "product")
            return compose(f, h)

        monkeypatch.setattr(AffineMap, "__mul__", counted)
        monkeypatch.setattr(AffineMap, "compose", counted)
        rng = random.Random(21)
        seen = set()
        for d, q in ((1, 7), (2, 3), (2, 5), (3, 3)):
            group = gl_elements(d, q)
            for lin in rng.sample(group, min(12, len(group))):
                f = AffineMap(lin, tuple(rng.randrange(q) for _ in range(d)))
                order = f.embed().order()
                steps.clear()
                try:
                    affine_witness(f)
                except ValueError:
                    continue
                seen.add(order)
                assert steps.count("square") == order.bit_length() - 1, (f, order)
                assert steps.count("product") == bin(order).count("1") - 1, (f, order)
        # Orders with several set bits, so the products are counted too.
        assert {o for o in seen if bin(o).count("1") > 1}, seen

    def test_diagonal_ladder_checks_g_once(self, alt5_diagonal, monkeypatch):
        action = DiagonalAction(alt5_diagonal, 2)
        check = DiagonalAction._check
        calls = []

        def counted(self, g):
            calls.append(g)
            return check(self, g)

        g = DiagonalElement(parse_cycles("(1 2 3)", 3), 7, (11, 23))
        order = action.element_order(g)
        assert order.bit_length() > 2
        verdict = decide_fix_union(action, g)
        monkeypatch.setattr(DiagonalAction, "_check", counted)
        assert certify_regular(action, g, verdict.witness, order) == tuple(verdict.witness)
        assert calls == [g]
        # The public compose still checks both of its elements.
        bad = DiagonalElement(Permutation.identity(3), 10**6, (0, 0))
        with pytest.raises(ValueError, match="phi"):
            action.compose(g, bad)
        with pytest.raises(ValueError, match="phi"):
            action.compose(bad, g)


# ---------------------------------------------------------------------------
# k-sets: cover, decision, witness, threshold scan


class TestMinCover:
    def test_examples(self):
        assert min_cover((5, 3, 2)) == (3, (2, 3, 5))
        assert min_cover((6, 4)) == (2, (4, 6))
        assert min_cover((6, 3, 2)) == (1, (6,))
        assert min_cover((1, 1, 1)) == (0, ())
        assert min_cover((4,)) == (1, (4,))

    def test_tie_break_prefers_small_lengths(self):
        # lcm = 30; {6, 10}, {6, 15}, {10, 15} all work; lex smallest wins.
        assert min_cover((15, 10, 6)) == (2, (6, 10))

    def test_maximal_prime_power_matters(self):
        # lcm(12, 2) = 12 needs v2 = 2: the 2-cycle contributes nothing.
        assert min_cover((12, 2)) == (1, (12,))
        # lcm(6, 4) = 12: 6 gives the 3, 4 gives the 4.
        assert min_cover((6, 4, 2)) == (2, (4, 6))

    def test_first_18_primes_need_every_cycle(self):
        primes = first_primes(18)
        assert min_cover(primes[::-1]) == (18, primes)

    def test_21_prime_powers_priced_before_the_dp(self):
        # The DP over 2**21 subsets would take several seconds.
        start = time.perf_counter()
        with pytest.raises(DomainCapError) as err:
            min_cover(first_primes(21)[::-1])
        assert time.perf_counter() - start < 1
        assert (err.value.size, err.value.cap) == (1 << 21, MIN_COVER_SUBSETS)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5)
    )
    def test_exhaustive_minimality(self, parts):
        parts = tuple(sorted(parts, reverse=True))
        s, chosen = min_cover(parts)
        target = math.lcm(*parts)
        assert math.lcm(*chosen) == target if chosen else target == 1
        distinct = sorted(set(parts))
        for size in range(s):
            for combo in combinations(distinct, size):
                got = math.lcm(*combo) if combo else 1
                assert got != target, (parts, combo)


class TestKSetDecide:
    def test_examples(self):
        d = kset_decide(CycleType.of((5, 3, 2)), 2)
        assert d.min_cover_s == 3 and not d.has_regular_cycle
        assert d.case_tag == CASE_IMPOSSIBLE
        d2 = kset_decide(CycleType.of((6, 4)), 2)
        assert d2.min_cover_s == 2 and d2.has_regular_cycle
        assert d2.case_tag == CASE_CONSECUTIVE_RUNS
        d3 = kset_decide(CycleType.of((3, 2, 1)), 3)
        assert d3.has_regular_cycle
        assert kset_decide(CycleType.of((6, 4, 2)), 2).chosen_lengths == (4, 6)

    def test_padded_case_tag(self):
        # chosen = (2, 3), ell - s = 3 < k = 4 on 10 points.
        d = kset_decide(CycleType.of((3, 2, 1, 1, 1, 1, 1)), 4)
        assert d.has_regular_cycle
        assert d.case_tag == CASE_PADDED_NEAR_FULL

    def test_range_validation(self):
        with pytest.raises(ValueError):
            kset_decide(CycleType.of((3, 2)), 3)
        with pytest.raises(ValueError):
            kset_decide(CycleType.of((3, 2)), 0)

    def test_matches_bruteforce_small_degrees(self):
        for m in range(2, 10):
            for ct in cycle_types(m):
                g = canonical_of_type(ct.parts)
                for k in range(1, m // 2 + 1):
                    expected = decide_bruteforce(
                        KSetsAction(m, k), g
                    ).has_regular_cycle
                    assert kset_decide(ct, k).has_regular_cycle == expected, (
                        ct.parts,
                        k,
                    )


class TestKSetWitness:
    def test_spec_example(self):
        g = parse_cycles("(1 2 3)(4 5)", 6)
        w = kset_witness(g, 2)
        assert kset_orbit_length(g, w) == 6

    def test_raises_when_impossible(self):
        g = parse_cycles("(1 2 3 4 5)(6 7 8)(9 10)", 10)
        with pytest.raises(ValueError):
            kset_witness(g, 2)

    def test_identity_any_k(self):
        g = Permutation.identity(6)
        assert kset_witness(g, 3) == (1, 2, 3)

    def test_padded_case(self):
        g = parse_cycles("(1 2 3)(4 5)", 10)
        w = kset_witness(g, 4)
        assert kset_orbit_length(g, w) == 6
        assert len(w) == 4

    def test_all_types_all_k_up_to_9(self):
        for m in range(2, 10):
            for ct in cycle_types(m):
                g = canonical_of_type(ct.parts)
                order = ct.order
                for k in range(1, m // 2 + 1):
                    if not kset_decide(ct, k).has_regular_cycle:
                        continue
                    w = kset_witness(g, k)
                    assert len(w) == k and len(set(w)) == k
                    assert kset_orbit_length(g, w) == order, (ct.parts, k)

    @settings(max_examples=80, deadline=None)
    @given(perm_strategy(11), st.integers(min_value=1, max_value=5))
    def test_random_permutations(self, g, k):
        ct = g.cycle_type()
        if not kset_decide(ct, k).has_regular_cycle:
            return
        w = kset_witness(g, k)
        assert kset_orbit_length(g, w) == g.order()

    def test_above_half_is_the_complement(self):
        for m in range(3, 10):
            for ct in cycle_types(m):
                g = canonical_of_type(ct.parts)
                for k in range(m // 2 + 1, m):
                    if not kset_decide(ct, m - k).has_regular_cycle:
                        with pytest.raises(ValueError):
                            kset_witness(g, k)
                        continue
                    small = set(kset_witness(g, m - k))
                    w = kset_witness(g, k)
                    assert w == tuple(v for v in range(1, m + 1) if v not in small)
                    assert kset_orbit_length(g, w) == ct.order, (ct.parts, k)


class TestKSetRow:
    """The kset_combinatorial row walks g once, decides once, and prints the
    k-set that it certified."""

    G = parse_cycles("(1 2 3 4 5)(6 7 8)(9 10)(11 12 13 14 15 16 17)", 100)

    @pytest.mark.parametrize("k", [9, 91])
    def test_one_walk_and_one_decision(self, monkeypatch, k):
        import regcycle.permcore as permcore
        import regcycle.regular as regular

        walk, decide_once = permcore.orbit_partition, regular.kset_decide
        calls = {"walk": 0, "decide": 0}

        def counted_walk(images):
            calls["walk"] += 1
            return walk(images)

        def counted_decide(ct, j):
            calls["decide"] += 1
            return decide_once(ct, j)

        monkeypatch.setattr(permcore, "orbit_partition", counted_walk)
        monkeypatch.setattr(regular, "kset_decide", counted_decide)
        # A new element: G keeps the cycle list an earlier test walked.
        verdict = decide(KSetsAction(100, k), Permutation(self.G.images))
        assert verdict.method == "kset_combinatorial" and verdict.has_regular_cycle
        # One cycle list; the verdict renders g only when its text is read.
        assert calls == {"walk": 1, "decide": 1}

    def test_certifies_the_printed_set(self, monkeypatch):
        import regcycle.regular as regular

        certify = regular.certify_regular
        seen = []

        def recorded(action, g, pt, order):
            seen.append((action.name, tuple(pt), order))
            return certify(action, g, pt, order)

        monkeypatch.setattr(regular, "certify_regular", recorded)
        verdict = decide(KSetsAction(100, 91), self.G)
        assert "complement_dual" in verdict.flags
        assert len(verdict.witness) == 91
        assert seen == [("ksets:100:91", tuple(verdict.witness), 210)]
        assert kset_orbit_length(self.G, tuple(verdict.witness)) == 210

    def test_decide_never_counts_the_points(self, monkeypatch):
        import regcycle.actions as actions

        within = actions._binomials_within
        calls = []

        def counted(terms, cap):
            calls.append(cap)
            return within(terms, cap)

        monkeypatch.setattr(actions, "_binomials_within", counted)
        # C(40, 8) = 76 904 685 passes the listing row's bound.
        g = parse_cycles("(1 2 3 4 5)(6 7 8)(9 10)", 40)
        action = KSetsAction(40, 8)
        verdict = decide(action, g)
        assert verdict.method == "kset_combinatorial"
        assert "size" not in vars(action)
        assert calls == [4 * 10**7]
        # Each bound's answer is kept, so a second decide prices nothing.
        assert decide(action, g) == verdict and len(calls) == 1
        counted_first = KSetsAction(40, 8)
        assert counted_first.size == math.comb(40, 8)
        assert decide(counted_first, g).to_json() == verdict.to_json()


class TestWitnessIsCertifiedPoint:
    """Each witness builder certifies once and prints, as the very object,
    what `certify_regular` returned."""

    @pytest.fixture
    def returned(self, monkeypatch):
        import regcycle.regular as regular

        certify = regular.certify_regular
        out = []

        def recorded(action, g, pt, order):
            out.append(certify(action, g, pt, order))
            return out[-1]

        monkeypatch.setattr(regular, "certify_regular", recorded)
        return out

    def test_partition_witness(self, returned):
        w = partition_witness(canonical_of_type((5, 3, 2, 2)), 3, 4)
        assert len(returned) == 1 and w is returned[0]
        assert w == tuple(sorted(tuple(sorted(b)) for b in w))

    @pytest.mark.parametrize("k", [9, 91])
    def test_kset_row_both_sides(self, returned, k):
        verdict = decide(KSetsAction(100, k), TestKSetRow.G)
        assert verdict.has_regular_cycle
        assert len(returned) == 1 and verdict.witness is returned[0]
        assert verdict.witness == tuple(sorted(verdict.witness))

    def test_product_witness(self, returned):
        comps = [parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)(3 4)", 4)]
        w = product_witness([(h, None) for h in comps], parse_cycles("(1 2)", 2))
        assert len(returned) == 1 and w is returned[0]

    def test_affine_witness(self, returned):
        f = field_ops(3)
        w = affine_witness(AffineMap(Matrix.from_rows(f, [[1, 1], [0, 1]]), (0, 1)))
        assert len(returned) == 1 and w is returned[0]


class TestKSetsTheoremScan:
    def test_threshold_values(self):
        assert nk_threshold(1) == 5
        assert nk_threshold(2) == 10
        assert nk_threshold(3) == 17

    def test_k1_sweep(self):
        for m in range(2, 8):
            rep = ksets_theorem_scan(m, 1)
            assert rep.all_regular == (m < 5)

    def test_k2_sweep(self):
        for m in range(4, 12):
            rep = ksets_theorem_scan(m, 2)
            assert rep.all_regular == (m < 10)

    def test_first_failure_is_prime_cycles(self):
        rep = ksets_theorem_scan(5, 1)
        assert any(ct.parts == (3, 2) for ct in rep.failing_types)
        rep2 = ksets_theorem_scan(10, 2)
        assert any(ct.parts == (5, 3, 2) for ct in rep2.failing_types)

    def test_requires_m_at_least_2k(self):
        with pytest.raises(ValueError):
            ksets_theorem_scan(3, 2)

    def test_types_scanned_is_partition_count(self):
        rep = ksets_theorem_scan(10, 2)
        assert rep.types_scanned == 42


# ---------------------------------------------------------------------------
# Uniform partitions


class TestPartitionWitness:
    def test_spec_example_six_cycle(self):
        g = parse_cycles("(1 2 3 4 5 6)", 6)
        assert partition_witness(g, 2, 3) == ((1, 3), (2, 4), (5, 6))

    def test_2x2_refused(self):
        with pytest.raises(PartitionCaseError):
            partition_witness(parse_cycles("(1 2 3 4)", 4), 2, 2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            partition_witness(parse_cycles("(1 2)", 6), 2, 2)
        with pytest.raises(ValueError):
            partition_witness(parse_cycles("(1 2)", 6), 1, 6)

    def test_identity(self):
        g = Permutation.identity(6)
        w = partition_witness(g, 3, 2)
        assert w == ((1, 2, 3), (4, 5, 6))

    def test_block_shape(self):
        g = parse_cycles("(1 2 3 4 5)(6 7 8)", 9)
        w = partition_witness(g, 3, 3)
        assert len(w) == 3 and all(len(b) == 3 for b in w)
        assert sorted(v for b in w for v in b) == list(range(1, 10))
        assert partition_orbit_length(g, w) == 15

    def test_exhaustive_sym6(self):
        for g in all_permutations(6):
            for a, b in ((2, 3), (3, 2)):
                w = partition_witness(g, a, b)
                assert partition_orbit_length(g, w) == g.order(), (g, a, b)

    def test_exhaustive_sym8_types(self):
        for ct in cycle_types(8):
            g = canonical_of_type(ct.parts)
            for a, b in ((2, 4), (4, 2)):
                w = partition_witness(g, a, b)
                assert partition_orbit_length(g, w) == g.order(), (ct.parts, a, b)

    def test_exhaustive_sym12_types(self):
        for ct in cycle_types(12):
            g = canonical_of_type(ct.parts)
            for a, b in ((2, 6), (6, 2), (3, 4), (4, 3)):
                w = partition_witness(g, a, b)
                assert partition_orbit_length(g, w) == g.order(), (ct.parts, a, b)

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy(10), st.sampled_from([(2, 5), (5, 2)]))
    def test_random_sym10(self, g, shape):
        a, b = shape
        w = partition_witness(g, a, b)
        assert partition_orbit_length(g, w) == g.order()

    @settings(max_examples=60, deadline=None)
    @given(perm_strategy(9), perm_strategy(9))
    def test_conjugation_transport(self, g, c):
        w = partition_witness(g, 3, 3)
        h = g.conj(c)
        wh = partition_witness(h, 3, 3)
        assert partition_orbit_length(h, wh) == h.order()

    def test_witness_never_asks_whether_the_action_lists(self):
        from regcycle.regular import _regular_partition

        action = PartitionsAction(3, 3)
        g = parse_cycles("(1 2 3 4 5)(6 7 8)", 9)
        witness, order = _regular_partition(action, g)
        assert order == partition_orbit_length(g, witness) == 15
        assert "listable" not in vars(action)

    def test_constructive_row_walks_g_once(self, monkeypatch):
        import regcycle.permcore as permcore

        walk = permcore.orbit_partition
        calls = []

        def counted_walk(images):
            calls.append(len(images))
            return walk(images)

        monkeypatch.setattr(permcore, "orbit_partition", counted_walk)
        verdict = decide(PartitionsAction(3, 10), canonical_of_type((11, 7, 5, 4, 3)))
        assert verdict.method == "constructive_proof"
        assert verdict.group_order_of_g == 4620
        # The witness's cycle list, which also gives the order; the verdict
        # renders g only when its text is read.
        assert calls == [30]


# ---------------------------------------------------------------------------
# Product action witnesses


class TestProductWitness:
    def test_basic(self):
        h1 = parse_cycles("(1 2 3)", 3)
        h2 = parse_cycles("(1 2)", 3)
        top = parse_cycles("(1 2)", 2)
        w = product_witness([(h1, None), (h2, None)], top)
        g = WreathElement((h1, h2), top)
        assert tuple_orbit_length(g, w) == g.order()

    def test_identity_cycle_product(self):
        u = parse_cycles("(1 2 3)", 3)
        top = parse_cycles("(1 2)", 2)
        w = product_witness([(u, None), (u.inverse(), None)], top)
        g = WreathElement((u, u.inverse()), top)
        assert g.order() == 2
        assert tuple_orbit_length(g, w) == 2

    def test_provided_hint_is_verified(self):
        h1 = parse_cycles("(1 2)", 3)
        top = Permutation.identity(1)
        # point 3 is fixed by (1 2): not a regular point for it.
        with pytest.raises(ValueError):
            product_witness([(h1, 3)], top)
        w = product_witness([(h1, 1)], top)
        g = WreathElement((h1,), top)
        assert tuple_orbit_length(g, w) == 2

    def test_hint_out_of_range(self):
        h1 = parse_cycles("(1 2)", 3)
        with pytest.raises(ValueError):
            product_witness([(h1, 9)], Permutation.identity(1))

    def test_no_regular_inner_point(self):
        # (1 2)(3 4 5) has order 6 but no point of orbit length 6.
        h = parse_cycles("(1 2)(3 4 5)", 5)
        with pytest.raises(ValueError):
            product_witness([(h, None)], Permutation.identity(1))

    def test_base_domain_too_small(self):
        h = Permutation.identity(1)
        with pytest.raises(ValueError):
            product_witness([(h, None)], Permutation.identity(1))

    def test_all_wreath_elements_s3_wr_s2(self):
        s3 = symmetric_group(3)
        s2 = symmetric_group(2)
        for top in s2:
            for combo in product(s3.elements, repeat=2):
                g = WreathElement(combo, top)
                w = product_witness([(h, None) for h in combo], top)
                assert tuple_orbit_length(g, w) == g.order(), (combo, top)

    def test_all_wreath_elements_s3_wr_c3(self):
        s3 = symmetric_group(3)
        c3 = closure([parse_cycles("(1 2 3)", 3)])
        for top in c3:
            for combo in product(s3.elements, repeat=3):
                g = WreathElement(combo, top)
                w = product_witness([(h, None) for h in combo], top)
                assert tuple_orbit_length(g, w) == g.order(), (combo, top)


# ---------------------------------------------------------------------------
# Linear and affine witnesses


class TestGlRegularVectors:
    def test_transvection_gl23(self):
        f = field_ops(3)
        m = Matrix.from_rows(f, [[1, 1], [0, 1]])
        ss = gl_regular_vector_set(m)
        # Order 3; vectors off the fixed line (second coord nonzero).
        assert len(ss.regular_vectors) == 6
        assert ss.spans

    def test_identity_spans(self):
        f = field_ops(2)
        m = Matrix.identity(f, 2)
        ss = gl_regular_vector_set(m)
        assert ss.spans and len(ss.regular_vectors) == 4

    def test_every_element_spans_small_gl(self):
        from regcycle.groups import gl_elements

        for d, q in ((1, 5), (1, 7), (2, 2), (2, 3), (3, 2)):
            for m in gl_elements(d, q):
                ss = gl_regular_vector_set(m)
                assert ss.spans, (d, q, m.entries)

    def test_orbit_lengths_are_regular(self):
        f = field_ops(4)
        m = Matrix.from_rows(f, [[2, 0], [0, 1]])
        ss = gl_regular_vector_set(m)
        act = VectorsAction(2, 4)
        order = m.order()
        for v in ss.regular_vectors:
            idx = act.index(v)
            cur = act.apply(m, idx)
            steps = 1
            while cur != idx:
                cur = act.apply(m, cur)
                steps += 1
            assert steps == order


class TestAffineWitness:
    def test_translation(self):
        f = field_ops(3)
        a = AffineMap(Matrix.from_rows(f, [[1]]), (1,))
        w = affine_witness(a)
        assert len(w) == 1

    def test_every_agl13_element(self):
        f = field_ops(3)
        for lin in ((1,), (2,)):
            for tra in range(3):
                a = AffineMap(Matrix.from_rows(f, [list(lin)]), (tra,))
                w = affine_witness(a)
                # independent walk
                cur = a.apply(w)
                steps = 1
                while cur != w:
                    cur = a.apply(cur)
                    steps += 1
                assert steps == a.order()

    def test_every_agl22_element(self):
        from regcycle.groups import gl_elements

        f = field_ops(2)
        for m in gl_elements(2, 2):
            for t0 in range(2):
                for t1 in range(2):
                    a = AffineMap(m, (t0, t1))
                    w = affine_witness(a)
                    cur = a.apply(w)
                    steps = 1
                    while cur != w:
                        cur = a.apply(cur)
                        steps += 1
                    assert steps == a.order()


def brute_regular_indices(action: VectorsAction, m: Matrix) -> list[int]:
    """Indices on orbits as long as the walked order of m, read from
    orbit_partition of the image array."""
    order = m.order()
    orbits = orbit_partition(list(action.induced_images(m)))
    return sorted(i for orb in orbits if len(orb) == order for i in orb)


def brute_spans(field, vectors, d: int) -> bool:
    """Whether the vectors span GF(q)^d, by closing their span under
    adding multiples."""
    span = {(0,) * d}
    for v in vectors:
        span = {
            tuple(field.add(s, field.mul(c, x)) for s, x in zip(vec, v))
            for vec in span
            for c in range(field.q)
        }
    return len(span) == field.q**d


class TestLinearOrder:
    @pytest.mark.parametrize("d,q", [(2, 3), (2, 4), (3, 2)])
    def test_image_order_equals_walk_on_gl(self, d, q):
        action = VectorsAction(d, q)
        for m in gl_elements(d, q):
            order = math.lcm(*orbit_lengths(action.induced_images(m)))
            assert confirmed_order(m, order) == m.order(), m

    def test_image_order_equals_walk_on_agl23(self):
        big = VectorsAction(3, 3)
        for lin in gl_elements(2, 3):
            for tra in product(range(3), repeat=2):
                f = AffineMap(lin, tra)
                order = math.lcm(*orbit_lengths(big.induced_images(f.embed())))
                assert confirmed_order(f.embed(), order) == f.order()

    def test_singular_matrix_raises_value_error(self):
        f = field_ops(3)
        singular = Matrix.from_rows(f, [[1, 2], [2, 1]])
        with pytest.raises(ValueError, match="singular"):
            confirmed_order(singular, 2)
        with pytest.raises(ValueError, match="singular"):
            gl_regular_vector_set(singular)

    def test_wrong_order_raises(self):
        f = field_ops(5)
        m = Matrix.from_rows(f, [[1, 1], [0, 1]])  # order 5
        assert confirmed_order(m, 5) == 5
        for wrong in (1, 2, 4, 6):
            with pytest.raises(AssertionError, match=rf"m\^{wrong} is not the identity"):
                confirmed_order(m, wrong)

    def test_gl25_equals_brute_force(self):
        d, q = 2, 5
        action = VectorsAction(d, q)
        field = field_ops(q)
        for m in gl_elements(d, q):
            ss = gl_regular_vector_set(m)
            expected = tuple(action.point(i) for i in brute_regular_indices(action, m))
            assert ss.regular_vectors == expected, m
            assert ss.spans == brute_spans(field, expected, d), m

    def test_agl23_equals_brute_force(self):
        d, q = 2, 3
        big = VectorsAction(d + 1, q)
        field = field_ops(q)
        for lin in gl_elements(d, q):
            for tra in product(range(q), repeat=d):
                f = AffineMap(lin, tra)
                # The first regular embedded vector whose last coordinate
                # is nonzero, scaled so that coordinate is 1.
                vec = next(
                    big.point(i)
                    for i in brute_regular_indices(big, f.embed())
                    if big.point(i)[d] != 0
                )
                scale = field.inv(vec[d])
                expected = tuple(field.mul(scale, v) for v in vec[:d])
                assert affine_witness(f) == expected, f


class TestChecksUnderOptimize:
    def test_checks_raise_under_python_O(self):
        # Each check meets a bad input; under -O an `assert` would not run.
        script = (
            "import sys\n"
            "from regcycle.actions import KSetsAction, NaturalAction, PartitionsAction\n"
            "from regcycle.gfalgebra import Matrix, field_ops\n"
            "from regcycle.groups import symmetric_group\n"
            "from regcycle.permcore import parse_cycles\n"
            "from regcycle import regular\n"
            "from regcycle.regular import certify_regular, confirmed_order, ksets_theorem_scan\n"
            "if sys.flags.optimize < 1:\n"
            "    sys.exit('not running under -O')\n"
            "g = parse_cycles('(1 2 3 4)(5 6)', 6)\n"
            "cases = [\n"
            "    lambda: certify_regular(NaturalAction(6), g, 5, 4),\n"
            "    # An orbit length that is not the order of the element.\n"
            "    lambda: certify_regular(NaturalAction(5), parse_cycles('(1 2)(3 4 5)', 5), 1, 2),\n"
            "    lambda: certify_regular(PartitionsAction(2, 3), g, [[1, 2], [3, 4], [5, 5]], 4),\n"
            "    lambda: certify_regular(PartitionsAction(2, 3), g, [[1, 2, 3], [4, 5, 6]], 4),\n"
            "    lambda: certify_regular(\n"
            "        KSetsAction(5, 2), parse_cycles('(1 2 3 4 5)', 5), (3, 3), 5\n"
            "    ),\n"
            "    lambda: confirmed_order(Matrix.from_rows(field_ops(5), [[1, 1], [0, 1]]), 4),\n"
            "    # A threshold that the scan's failures contradict.\n"
            "    lambda: (setattr(regular, 'nk_threshold', lambda k: 100), ksets_theorem_scan(5, 1)),\n"
            "    # A fixed-point count that breaks the wreath identity.\n"
            "    lambda: (\n"
            "        setattr(regular, 'fixed_count', lambda images: 0),\n"
            "        regular.wreath_fpr_max(symmetric_group(3), symmetric_group(2)),\n"
            "    ),\n"
            "]\n"
            "for i, case in enumerate(cases):\n"
            "    try:\n"
            "        case()\n"
            "    except AssertionError:\n"
            "        continue\n"
            "    sys.exit(f'case {i} did not raise')\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_poisoned_record_raises_under_python_O(self):
        # Wrong images planted in the deciders' record for (action, g): the
        # fix_union witness read off them fails the certificate, which
        # raises with no `assert` statement.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from regcycle import regular\n"
            "from regcycle.actions import NaturalAction\n"
            "from regcycle.permcore import parse_cycles\n"
            "if sys.flags.optimize < 1:\n"
            "    sys.exit('not running under -O')\n"
            "act, g = NaturalAction(6), parse_cycles('(1 2)(3 4 5 6)', 6)\n"
            "regular._last_record[0] = (act, g, 4, np.array([1, 2, 3, 0, 4, 5]))\n"
            "try:\n"
            "    regular.decide_fix_union(act, g)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "g^(4/2) fixes the point 1\n"


# ---------------------------------------------------------------------------
# Fixed-point ratio surveys


class TestWreathFprMax:
    def test_s3_wr_s2(self):
        assert wreath_fpr_max(symmetric_group(3), symmetric_group(2)) == Fraction(
            1, 3
        )

    def test_s4_wr_s2(self):
        assert wreath_fpr_max(symmetric_group(4), symmetric_group(2)) == Fraction(
            1, 2
        )

    def test_regular_inner_rejected(self):
        c3 = closure([parse_cycles("(1 2 3)", 3)])
        with pytest.raises(ValueError):
            wreath_fpr_max(c3, symmetric_group(2))


@pytest.fixture(scope="module")
def alt5_diagonal():
    a5 = alternating_group(5)
    s5 = symmetric_group(5)
    return DiagonalGroupData.build(a5, AmbientAutomorphisms.build(a5, s5), "alt5")


class TestDiagonalAudit:
    def test_alt5_single_copy(self, alt5_diagonal):
        rep = diagonal_fpr_audit(alt5_diagonal, 1, 5)
        assert rep.exhaustive
        assert rep.all_ok
        shapes = {(line.shape, line.prime): line for line in rep.lines}
        inv = shapes[("slot_moving_anchor", 2)]
        assert inv.max_fpr == Fraction(4, 15)
        assert inv.max_fpr == Fraction(16, 60)

    def test_sampled_two_copies(self, alt5_diagonal):
        rep = diagonal_fpr_audit(alt5_diagonal, 2, 5, samples=150, seed=7)
        assert not rep.exhaustive
        assert rep.all_ok

    def test_sampling_is_seed_deterministic(self, alt5_diagonal):
        r1 = diagonal_fpr_audit(alt5_diagonal, 2, 5, samples=60, seed=3)
        r2 = diagonal_fpr_audit(alt5_diagonal, 2, 5, samples=60, seed=3)
        assert r1 == r2

    def test_every_alt5_element_is_regular(self, alt5_diagonal):
        rep = diagonal_fpr_audit(alt5_diagonal, 1, 5)
        assert rep.elements_checked == 14400
        assert rep.irregular == ()

    def test_reports_a_planted_irregular_element(self, alt5_diagonal, monkeypatch):
        planted = list(diagonal_elements(alt5_diagonal, 2, samples=20, seed=4))[6]
        # Orbit lengths 2, 3 and 1s: induced order 6, longest cycle 3.
        irregular_images = np.arange(3600)
        irregular_images[:5] = [1, 0, 3, 4, 2]
        build = DiagonalAction.induced_images

        def planting(self, elem):
            return irregular_images if elem == planted else build(self, elem)

        monkeypatch.setattr(DiagonalAction, "induced_images", planting)
        rep = diagonal_fpr_audit(alt5_diagonal, 2, 5, samples=20, seed=4)
        assert rep.elements_checked == 20
        assert rep.irregular == ((6, planted),)


class TestDiagonalElements:
    def test_exhaustive_order(self, alt5_diagonal):
        elems = list(diagonal_elements(alt5_diagonal, 1))
        assert len(elems) == 2 * 120 * 60
        keys = [(e.sigma.images, e.phi, e.m) for e in elems]
        assert keys == sorted(keys)
        assert len(set(elems)) == len(elems)

    def test_samples_follow_the_seeded_draws(self, alt5_diagonal):
        rng = random.Random(9)
        expected = []
        for _ in range(25):
            sig = [0, 1, 2]
            rng.shuffle(sig)
            phi = rng.randrange(120)
            expected.append((tuple(sig), phi, (rng.randrange(60), rng.randrange(60))))
        got = [
            (e.sigma.images, e.phi, e.m)
            for e in diagonal_elements(alt5_diagonal, 2, samples=25, seed=9)
        ]
        assert got == expected


class TestDiagonalVerdicts:
    # Recorded while phi was still resolved through centralizer cosets and
    # generator fingerprints: the verdicts, orders and witnesses over every
    # phi must not change with how a composite's phi is found.
    DIGEST = "633edb44a8e10a9156b318ecd84bc90c5c4e2daa64ea65376f302e38d15a7be7"

    def test_verdicts_over_every_phi_are_pinned(self, alt5_diagonal):
        digest = hashlib.sha256()
        for copies in (1, 2):
            act = DiagonalAction(alt5_diagonal, copies)
            rng = random.Random(copies)
            for phi in range(120):
                sigma = list(range(copies + 1))
                rng.shuffle(sigma)
                m = tuple(rng.randrange(60) for _ in range(copies))
                verdict = decide(act, DiagonalElement(Permutation(sigma), phi, m))
                digest.update(json.dumps(verdict.to_json(), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST

    def test_identity_is_phi_zero(self, alt5_diagonal):
        assert alt5_diagonal.identity_phi == 0
        ambient = alt5_diagonal.automorphisms.ambient
        assert alt5_diagonal.phi_index_of(ambient.elements[7]) == 7
        with pytest.raises(ValueError):
            alt5_diagonal.phi_index_of(parse_cycles("(1 2)", 6))


# ---------------------------------------------------------------------------
# Automatic method selection


def induced_images(action, g):
    return action.induced_images(g)


class TestWrongDegree:
    """A permutation of another degree is refused, never decided or listed."""

    SEVEN_CYCLE = parse_cycles("(1 2 3 4 5 6 7)", 7)
    NINE_CYCLE = parse_cycles("(1 2 3 4 5 6 7 8 9)", 9)

    @pytest.mark.parametrize(
        "action",
        [
            NaturalAction(5),
            KSetsAction(5, 2),
            PartitionsAction(2, 3),
            CosetsAction(symmetric_group(4), alternating_group(4)),
            CosetsAction(closure([NINE_CYCLE]), closure([NINE_CYCLE**3])),
        ],
        ids=["natural", "ksets", "partitions", "cosets-smaller", "cosets-larger"],
    )
    @pytest.mark.parametrize(
        "decider", [decide_bruteforce, decide_fix_union, decide, induced_images]
    )
    def test_deciders_raise(self, action, decider):
        with pytest.raises(ValueError, match=r"element has degree 7, action .* has degree"):
            decider(action, self.SEVEN_CYCLE)

    @pytest.mark.parametrize(
        "action, g",
        [
            (
                ProductAction(3, 2),
                WreathElement([Permutation.identity(3)] * 3, Permutation.identity(3)),
            ),
            (VectorsAction(2, 3), Matrix.identity(field_ops(3), 3)),
            (
                AffineVectorsAction(2, 3),
                AffineMap(Matrix.identity(field_ops(3), 3), (0, 0, 0)),
            ),
        ],
        ids=["product", "vectors", "affine"],
    )
    @pytest.mark.parametrize("decider", [decide_bruteforce, decide_fix_union, decide])
    def test_tuple_families_raise(self, action, g, decider):
        with pytest.raises(ValueError, match="does not match the action"):
            decider(action, g)

    @pytest.mark.parametrize(
        "action, method",
        [
            (KSetsAction(60, 3), "kset_combinatorial"),
            (PartitionsAction(5, 12), "constructive_proof"),
        ],
        ids=["ksets", "partitions"],
    )
    def test_unlisted_rows_raise(self, action, method):
        right = Permutation.identity(60)
        assert decide(action, right, domain_cap=100).method == method
        with pytest.raises(ValueError, match="has degree 60"):
            decide(action, self.SEVEN_CYCLE, domain_cap=100)


class TestDecideAuto:
    def test_small_uses_bruteforce(self):
        v = decide(NaturalAction(6), parse_cycles("(1 2 3)", 6))
        assert v.method == "bruteforce"

    @pytest.mark.parametrize(
        "family, cap",
        [
            ("natural", 5),
            ("natural-identity", 5),
            ("ksets", 500),
            ("ksets-irregular", 20),
            ("partitions", 30),
            ("partitions-unfaithful", 1),
            ("product", 3),
            ("vectors", 3),
            ("affine", 3),
            ("cosets", 3),
            ("diagonal", 20),
        ],
    )
    def test_band_up_to_four_caps_is_listed(self, alt5_diagonal, family, cap):
        # Each action has cap < size <= 4 * cap. bruteforce lists it, and
        # answers as the fixed-set-union cross-check does.
        matrix = Matrix.from_rows(field_ops(3), [[0, 1], [1, 1]])
        action, g = {
            "natural": (NaturalAction(12), parse_cycles("(1 2 3 4 5 6 7)", 12)),
            "natural-identity": (NaturalAction(12), Permutation.identity(12)),
            "ksets": (KSetsAction(12, 5), parse_cycles("(1 2 3 4 5 6 7)", 12)),
            "ksets-irregular": (KSetsAction(10, 2), parse_cycles("(1 2)(3 4 5)(6 7 8 9 10)", 10)),
            "partitions": (PartitionsAction(2, 4), parse_cycles("(1 2 3)(4 5)", 8)),
            "partitions-unfaithful": (PartitionsAction(2, 2), parse_cycles("(1 2 3 4)", 4)),
            "product": (
                ProductAction(3, 2),
                WreathElement([parse_cycles("(1 2 3)", 3)] * 2, parse_cycles("(1 2)", 2)),
            ),
            "vectors": (VectorsAction(2, 3), matrix),
            "affine": (AffineVectorsAction(2, 3), AffineMap(matrix, (1, 0))),
            "cosets": (
                CosetsAction(symmetric_group(4), closure([parse_cycles("(1 2 3)", 4)])),
                parse_cycles("(1 2 3 4)", 4),
            ),
            "diagonal": (
                DiagonalAction(alt5_diagonal, 1),
                DiagonalElement(Permutation((1, 0)), 3, (7,)),
            ),
        }[family]
        assert cap < action.size <= 4 * cap
        v = decide(action, g, domain_cap=cap)
        fu = decide_fix_union(action, g)
        assert v.method == "bruteforce" and v.certified
        listed, crossed = v.to_json(), fu.to_json()
        for verdict in (listed, crossed):
            del verdict["method"]
        if family == "natural-identity":
            assert (listed.pop("flags"), crossed.pop("flags")) == ([], ["identity"])
        assert listed == crossed

    def test_large_ksets_uses_combinatorics(self):
        g = parse_cycles("(1 2 3 4 5)(6 7 8)(9 10)", 40)
        v = decide(KSetsAction(40, 20), g, domain_cap=10**4)
        assert v.method == "kset_combinatorial"
        assert v.has_regular_cycle
        assert len(v.witness) == 20
        assert kset_orbit_length(g, tuple(v.witness)) == 30

    def test_large_ksets_complement(self):
        g = parse_cycles("(1 2 3 4 5)(6 7 8)(9 10)", 40)
        v = decide(KSetsAction(40, 33), g, domain_cap=10**4)
        assert v.method == "kset_combinatorial"
        assert "complement_dual" in v.flags
        assert len(v.witness) == 33
        assert kset_orbit_length(g, tuple(v.witness)) == 30

    def test_cap_error(self):
        g = parse_cycles("(1 2)", 30)
        with pytest.raises(DomainCapError):
            decide(NaturalAction(30), g, domain_cap=5)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            decide(NaturalAction(6), parse_cycles("(1 2)", 6), domain_cap=0)

    @pytest.mark.parametrize(
        "parts, a, b, cap",
        [
            ((11, 7, 5, 4, 3), 3, 10, 10**7),
            ((2, 2, 2), 2, 5, 10),
            ((3,), 4, 4, 10**7),
            ((6, 4, 3, 2), 6, 3, 10**7),
            ((2, 2), 2, 9, 10**7),
        ],
    )
    def test_partitions_past_cap_use_constructive_proof(self, parts, a, b, cap):
        g = canonical_of_type(tuple(parts) + (1,) * (a * b - sum(parts)))
        action = PartitionsAction(a, b)
        v = decide(action, g, domain_cap=cap)
        assert v.method == "constructive_proof" and v.certified
        assert v.has_regular_cycle and v.induced_order == v.group_order_of_g
        assert_regular_partition(g, v.witness, a, b)

    def test_table_methods_are_known(self):
        assert [row[0] for row in DECIDE_TABLE] == [
            "bruteforce",
            "kset_combinatorial",
            "constructive_proof",
        ]
        assert all(method in METHODS for method, _, _ in DECIDE_TABLE)
