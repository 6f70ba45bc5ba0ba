"""Induced action correctness: indexing, right-action laws, orders, tables."""

from __future__ import annotations

import functools
import math
import random
import subprocess
import sys
import time
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regcycle.actions import (
    Action,
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
    fixed_count,
    orbit_lengths,
    partitions_count,
    power_images,
    realize_diagonal_group,
)
from regcycle.gfalgebra import AffineMap, Matrix, field_ops
from regcycle.groups import (
    AmbientAutomorphisms,
    GeneratedGroup,
    alternating_group,
    closure,
    gl_elements,
    pgammal2_9,
    pgl2,
    point_stabilizer,
    psl2,
    symmetric_group,
)
from regcycle.permcore import Permutation, orbit_partition, parse_cycles
from regcycle.regular import decide, decide_bruteforce, decide_fix_union


def perm_strategy(n: int):
    return st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))


def naive_orbits(images) -> list[list[int]]:
    """Reference orbits: apply the map from each point until it returns, and
    keep the walk only when it started at the orbit's minimum."""
    orbits = []
    for x in range(len(images)):
        orbit = [x]
        while images[orbit[-1]] != x:
            orbit.append(images[orbit[-1]])
        if min(orbit) == x:
            orbits.append(orbit)
    return orbits


class TestImageHelpers:
    @given(perm_strategy(9))
    def test_orbit_partition_matches_cycles(self, g):
        expected = naive_orbits(list(g.images))
        for images in (list(g.images), g.images, np.array(g.images)):
            orbits = orbit_partition(images)
            assert orbits == expected
            assert all(type(v) is int for orbit in orbits for v in orbit)

    @given(perm_strategy(9))
    def test_orbit_lengths_and_order(self, g):
        images = list(g.images)
        assert sorted(orbit_lengths(images)) == sorted(
            len(c) for c in g.cycles(include_fixed=True)
        )
        assert math.lcm(*orbit_lengths(images)) == g.order()

    @given(perm_strategy(8), st.integers(min_value=0, max_value=40))
    def test_power_images(self, g, e):
        assert list(power_images(list(g.images), e)) == list((g**e).images)

    def test_power_images_numpy_path(self):
        g = parse_cycles("(1 2 3 4 5)(6 7)", 5000)
        out = power_images(list(g.images), 7)
        assert list(out) == list((g**7).images)

    def test_fixed_count(self):
        g = parse_cycles("(1 2)", 6)
        assert fixed_count(list(g.images)) == 4


def corpus_family_cases(family: str, count: int = 40):
    """(action, element) pairs of one corpus family, seeded."""
    rng = random.Random(family)

    def perm(n: int) -> Permutation:
        vals = list(range(n))
        rng.shuffle(vals)
        return Permutation(tuple(vals))

    if family == "natural":
        return [(NaturalAction(12), perm(12)) for _ in range(count)]
    if family == "ksets":
        return [(KSetsAction(10, 3), perm(10)) for _ in range(count)]
    if family == "partitions":
        return [(PartitionsAction(3, 3), perm(9)) for _ in range(count)]
    if family == "product":
        return [(ProductAction(3, 3), random_wreath(rng, 3, 3)) for _ in range(count)]
    if family == "vectors":
        return [(VectorsAction(2, 3), m) for m in gl_elements(2, 3)]
    if family == "affine":
        mats = gl_elements(2, 3)
        shifts = list(product(range(3), repeat=2))
        return [
            (AffineVectorsAction(2, 3), AffineMap(rng.choice(mats), rng.choice(shifts)))
            for _ in range(count)
        ]
    if family == "cosets":
        act = CosetsAction(symmetric_group(6), pgl2(5))
        return [(act, g) for g in rng.sample(act.group.elements, count)]
    copies = int(family[-1])
    target, ambient = alternating_group(5), symmetric_group(5)
    data = DiagonalGroupData.build(target, AmbientAutomorphisms.build(target, ambient))
    act = DiagonalAction(data, copies)
    return [
        (act, DiagonalElement(
            Permutation(tuple(rng.sample(range(copies + 1), copies + 1))),
            rng.randrange(data.aut.shape[0]),
            tuple(rng.randrange(60) for _ in range(copies)),
        ))
        for _ in range(count)
    ]


CORPUS_FAMILIES = (
    "natural", "ksets", "partitions", "product", "vectors", "affine", "cosets",
    "diagonal1", "diagonal2",
)


@pytest.mark.parametrize("family", CORPUS_FAMILIES)
def test_orbit_lengths_and_order_match_walk(family):
    for act, g in corpus_family_cases(family):
        images = act.induced_images(g)
        walked = [len(orbit) for orbit in orbit_partition(images)]
        assert orbit_lengths(images) == walked
        assert math.lcm(*orbit_lengths(images)) == math.lcm(*walked)


@pytest.mark.parametrize("where", ["-1", "size"])
@pytest.mark.parametrize("family", CORPUS_FAMILIES)
def test_point_refuses_an_index_out_of_range(family, where):
    # A Python sequence would wrap -1 to the last point.
    act, g = corpus_family_cases(family, count=1)[0]
    idx = -1 if where == "-1" else act.size
    with pytest.raises(IndexError):
        act.point(idx)
    with pytest.raises(IndexError):
        act.apply(g, idx)
    with pytest.raises(IndexError):
        act.point_json(idx)


def child_peak_rss_mb(measure: str) -> float:
    """Peak RSS in MB of a fresh interpreter that runs measure, which
    prints its own ru_maxrss in KB."""
    # ru_maxrss keeps the peak of the forking process across exec, so the
    # measuring interpreter is started from a small one, not from this
    # test process.
    launch = (
        "import subprocess, sys\n"
        f"sys.exit(subprocess.run([sys.executable, '-c', {measure!r}]).returncode)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launch], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


class TestNaturalAction:
    def test_basic(self):
        act = NaturalAction(5)
        g = parse_cycles("(1 2 3)", 5)
        assert act.size == 5
        assert act.apply(g, 0) == 1
        assert act.point(0) == 1
        assert act.index(5) == 4
        assert act.element_order(g) == 3
        assert math.lcm(*orbit_lengths(act.induced_images(g))) == 3
        assert fixed_count(act.induced_images(g)) == 2

    def test_index_validation(self):
        act = NaturalAction(4)
        with pytest.raises(ValueError):
            act.index(0)
        with pytest.raises(ValueError):
            act.index(5)


class TestKSets:
    def test_colex_listing(self):
        act = KSetsAction(4, 2)
        assert [act.point(i) for i in range(act.size)] == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        ]

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_round_trip(self, m, data):
        k = data.draw(st.integers(min_value=1, max_value=m))
        act = KSetsAction(m, k)
        idx = data.draw(st.integers(min_value=0, max_value=act.size - 1))
        assert act.index(act.point(idx)) == idx

    def test_transposition_moves_pair(self):
        act = KSetsAction(4, 2)
        g = parse_cycles("(1 2)", 4)
        assert act.apply_external(g, (1, 4)) == (2, 4)

    @given(perm_strategy(7), perm_strategy(7), st.integers(min_value=0, max_value=34))
    def test_right_action_law(self, g, h, idx):
        act = KSetsAction(7, 3)
        assert act.apply(g * h, idx) == act.apply(h, act.apply(g, idx))

    @given(perm_strategy(8))
    def test_induced_images_consistent(self, g):
        act = KSetsAction(8, 3)
        images = act.induced_images(g)
        for idx in (0, 5, 17, act.size - 1):
            assert images[idx] == act.apply(g, idx)

    @given(perm_strategy(9))
    def test_complement_duality(self, g):
        low = KSetsAction(9, 3)
        high = KSetsAction(9, 6)
        assert sorted(orbit_lengths(low.induced_images(g))) == sorted(
            orbit_lengths(high.induced_images(g))
        )

    def test_burnside_orbit_count(self):
        act = KSetsAction(4, 2)
        group = symmetric_group(4)
        total = sum(fixed_count(act.induced_images(g)) for g in group)
        # Sym(4) is transitive on 2-sets, so the average fix count is 1.
        assert total == group.order

    def test_validation(self):
        with pytest.raises(ValueError):
            KSetsAction(5, 0)
        with pytest.raises(ValueError):
            KSetsAction(5, 6)
        act = KSetsAction(5, 2)
        with pytest.raises(ValueError):
            act.index((1, 1))
        with pytest.raises(ValueError):
            act.index((0, 3))

    def test_size_at_most_without_the_count(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                size = math.comb(n, k)
                for bound in (size - 1, size, size + 1, 1, 10**7):
                    act = KSetsAction(n, k)
                    assert act.size_at_most(bound) == (size <= bound), (n, k, bound)
                    assert "size" not in vars(act)

    def test_construction_does_not_count(self):
        start = time.perf_counter()
        act = KSetsAction(400_000, 200_000)
        assert not act.size_at_most(10**7)
        assert time.perf_counter() - start < 0.1
        assert "size" not in vars(act)

    def test_listing_peak_memory(self):
        # 5 852 925 8-sets of 30 points: 209 MB ranked one column at a time,
        # 521 MB through one (points, k) int64 gather of binomial terms.
        measure = (
            "import resource\n"
            "from regcycle.actions import KSetsAction\n"
            "from regcycle.permcore import Permutation\n"
            "KSetsAction(30, 8).induced_images(Permutation(tuple(range(1, 30)) + (0,)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        peak_mb = child_peak_rss_mb(measure)
        assert peak_mb < 350, f"peak RSS {peak_mb:.0f} MB"


class TestPartitions:
    def test_listable_without_the_count(self):
        # 2x8 (2 027 025) and 4x4 (2 627 625) sit just past the cap.
        cap = PartitionsAction._ENUM_CAP
        for n in range(4, 17):
            for a in range(2, n // 2 + 1):
                if n % a == 0:
                    act = PartitionsAction(a, n // a)
                    assert act.listable == (partitions_count(a, n // a) <= cap), (a, n)

    def test_construction_does_not_count(self):
        start = time.perf_counter()
        act = PartitionsAction(2, 10**6)
        assert time.perf_counter() - start < 0.1
        assert not act.listable and "size" not in vars(act)

    def test_counts(self):
        assert partitions_count(2, 2) == 3
        assert partitions_count(3, 2) == 10
        assert partitions_count(2, 3) == 15
        assert partitions_count(3, 3) == 280
        act = PartitionsAction(3, 2)
        assert act.size == 10
        assert len({act.point(i) for i in range(act.size)}) == 10

    def test_canonical_listing_starts_at_minimum(self):
        act = PartitionsAction(2, 2)
        assert [act.point(i) for i in range(3)] == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_round_trip_and_block_order_insensitivity(self):
        act = PartitionsAction(2, 3)
        for idx in range(act.size):
            pt = act.point(idx)
            shuffled = tuple(reversed([tuple(reversed(b)) for b in pt]))
            assert act.index(shuffled) == idx

    @given(perm_strategy(6), perm_strategy(6), st.integers(min_value=0, max_value=9))
    def test_right_action_law(self, g, h, idx):
        act = PartitionsAction(3, 2)
        assert act.apply(g * h, idx) == act.apply(h, act.apply(g, idx))

    def test_apply_external_matches_indexed(self):
        act = PartitionsAction(2, 3)
        g = parse_cycles("(1 2 3 4 5 6)", 6)
        for idx in range(act.size):
            pt = act.point(idx)
            assert act.apply_external(g, pt) == act.point(act.apply(g, idx))

    def test_two_by_two_kernel(self):
        act = PartitionsAction(2, 2)
        for text in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"):
            g = parse_cycles(text, 4)
            assert list(act.induced_images(g)) == [0, 1, 2]
            assert math.lcm(*orbit_lengths(act.induced_images(g))) < act.element_order(g)
        # The quotient of Sym(4) by that kernel acts as the full Sym(3).
        seen = {tuple(act.induced_images(g)) for g in symmetric_group(4)}
        assert len(seen) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionsAction(1, 4)
        act = PartitionsAction(2, 2)
        with pytest.raises(ValueError):
            act.index(((1, 2), (3, 3)))
        with pytest.raises(ValueError):
            act.index(((1, 2, 3), (4,)))

    def test_largest_listing_peak_memory(self):
        # 1 352 078 partitions of 24 points; the listing itself is 32 MB.
        measure = (
            "import resource\n"
            "from regcycle.actions import PartitionsAction\n"
            "PartitionsAction(12, 2)._materialize()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        peak_mb = child_peak_rss_mb(measure)
        assert peak_mb < 150, f"peak RSS {peak_mb:.0f} MB"


# The uniform partition shapes of degree at most 12.
_SMALL_PARTITION_SHAPES = [(a, b) for a in range(2, 7) for b in range(2, 7) if a * b <= 12]


@functools.cache
def _gl2(q: int) -> list[Matrix]:
    return gl_elements(2, q)


@functools.cache
def _set_action(kind: str, p: int, q: int) -> Action:
    return KSetsAction(p, q) if kind == "ksets" else PartitionsAction(p, q)


class TestSetPointForms:
    """k-sets and partitions are sets inside: the order in which a point
    lists its members, and a partition its blocks, changes nothing, and
    `external` writes the one canonical order that `point` lists."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_member_and_block_order_are_ignored(self, data):
        if data.draw(st.booleans()):
            degree = data.draw(st.integers(1, 12))
            act = _set_action("ksets", degree, data.draw(st.integers(1, degree)))
        else:
            act = _set_action("partitions", *data.draw(st.sampled_from(_SMALL_PARTITION_SHAPES)))
        idx = data.draw(st.integers(0, act.size - 1))
        pt = act.point(idx)
        if isinstance(act, KSetsAction):
            reordered = data.draw(st.permutations(pt))
        else:
            reordered = [data.draw(st.permutations(b)) for b in data.draw(st.permutations(pt))]
        assert act.internal(reordered) == act.internal(pt)
        assert act.index(reordered) == act.index(pt) == idx
        assert act.external(act.internal(reordered)) == act.point(act.index(reordered)) == pt

    def test_wide_kset_index(self):
        # Past a set's hash table size its members no longer iterate in
        # ascending order, so the colex rank must sort them.
        act = KSetsAction(100, 5)
        pt = (50, 98, 54, 6, 34)
        assert list(act.internal(pt)) != sorted(act.internal(pt))
        assert act.point(act.index(pt)) == (6, 34, 50, 54, 98)

    @pytest.mark.parametrize(
        "pt",
        [
            ((1, 2), (1, 2), (3, 4)),
            ((1, 2), (2, 3), (4, 5)),
            ((1, 2), (3, 4), (5, 7)),
            ((1, 2, 1), (3, 4), (5, 6)),
        ],
        ids=["repeated-block", "overlapping-blocks", "point-out-of-range", "repeated-point"],
    )
    def test_partition_non_points_refused(self, pt):
        with pytest.raises(ValueError):
            PartitionsAction(2, 3).internal(pt)


def colex_reference(degree: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of range(degree) in colex order: by largest point,
    then by the next largest, and so on."""
    return sorted(combinations(range(degree), k), key=lambda c: c[::-1])


def uniform_partitions_reference(block_size: int, points: tuple[int, ...]):
    """Partitions of `points` into blocks of block_size in canonical order:
    each block anchored at the smallest point left, the anchored blocks in
    lexicographic order."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for comb in combinations(rest, block_size - 1):
        remaining = tuple(p for p in rest if p not in comb)
        for tail in uniform_partitions_reference(block_size, remaining):
            yield ((first,) + comb,) + tail


def check_point_contract(act, g) -> None:
    """induced_images agrees, on every point, with apply and with
    index(apply_external(g, point(i))), and internal and external are
    inverse on every point."""
    images = act.induced_images(g)
    for i in range(act.size):
        pt = act.point(i)
        assert images[i] == act.index(act.apply_external(g, pt))
        assert act.apply_external(g, pt) == act.point(act.apply(g, i))
        assert act.external(act.internal(pt)) == pt


def check_listed_contract(act, g) -> None:
    """induced_images of a k-set or partition action is an int64 array,
    and the point contract holds."""
    images = act.induced_images(g)
    assert isinstance(images, np.ndarray) and images.dtype == np.int64
    assert images.shape == (act.size,)
    check_point_contract(act, g)


class TestListedImageContract:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(7, 1), (7, 7), (9, 4), (10, 3), (12, 2)]), st.data())
    def test_ksets(self, shape, data):
        n, k = shape
        check_listed_contract(KSetsAction(n, k), data.draw(perm_strategy(n)))

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([(2, 3), (3, 2), (3, 3), (5, 2), (4, 3)]), st.data())
    def test_partitions(self, shape, data):
        a, b = shape
        check_listed_contract(PartitionsAction(a, b), data.draw(perm_strategy(a * b)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_natural(self, n, data):
        check_point_contract(NaturalAction(n), data.draw(perm_strategy(n)))

    @pytest.mark.parametrize("point", [1, 2])
    def test_cosets(self, point):
        group = symmetric_group(4)
        act = CosetsAction(group, point_stabilizer(group, point))
        for g in group.elements[::5]:
            check_point_contract(act, g)

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_ksets_table_is_colex(self, degree):
        # point() unranks on its own, so this checks the table apart from it.
        for k in range(1, degree + 1):
            act = KSetsAction(degree, k)
            act.induced_images(Permutation.identity(degree))
            assert [tuple(row) for row in act._combos.tolist()] == colex_reference(degree, k)

    @pytest.mark.parametrize(
        "shape", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (5, 2), (2, 5), (4, 3)]
    )
    def test_partition_listing_is_canonical(self, shape):
        a, b = shape
        act = PartitionsAction(a, b)
        expected = [
            tuple(tuple(v + 1 for v in block) for block in p)
            for p in uniform_partitions_reference(a, tuple(range(a * b)))
        ]
        assert [act.point(i) for i in range(act.size)] == expected

    def test_tables_are_built_on_first_use(self):
        kset, part = KSetsAction(12, 4), PartitionsAction(3, 3)
        g = parse_cycles("(1 2 3)", 12)
        assert kset.apply_external(g, (1, 5, 7, 9)) == (2, 5, 7, 9)
        assert part.apply_external(
            parse_cycles("(1 2 3)", 9), ((1, 4, 7), (2, 5, 8), (3, 6, 9))
        )
        assert kset._combos is None and part._enum is None
        kset.induced_images(g)
        part.induced_images(parse_cycles("(1 2 3)", 9))
        assert kset._combos is not None and part._enum is not None
        # Past the enumeration cap the action still moves single points.
        big = PartitionsAction(3, 10)
        assert not big.listable
        assert big.apply_external(
            parse_cycles("(1 2)", 30), [range(i, i + 3) for i in range(1, 31, 3)]
        )[0] == (1, 2, 3)
        assert big._enum is None


class TestSinglePointChecks:
    """apply_external refuses an element of the wrong degree and a
    non-point with ValueError, before it moves anything."""

    @pytest.mark.parametrize("pt", [(0, 3), (3, 3), (1, 2, 3)])
    def test_kset_non_points(self, pt):
        with pytest.raises(ValueError):
            KSetsAction(5, 2).apply_external(parse_cycles("(1 2 3 4 5)", 5), pt)

    def test_kset_wrong_degree(self):
        with pytest.raises(ValueError, match="element has degree 9, action ksets:5:2 has degree 5"):
            KSetsAction(5, 2).apply_external(parse_cycles("(1 7)", 9), (1, 2))

    def test_partition_wrong_degree(self):
        with pytest.raises(
            ValueError, match="element has degree 12, action partitions:3:3 has degree 9"
        ):
            PartitionsAction(3, 3).apply_external(
                parse_cycles("(1 10)", 12), ((1, 4, 7), (2, 5, 8), (3, 6, 9))
            )

    def test_natural_wrong_degree(self):
        with pytest.raises(ValueError, match="element has degree 9, action natural:5 has degree 5"):
            NaturalAction(5).apply_external(parse_cycles("(3 9)", 9), 3)


def random_wreath(rng: random.Random, d: int, l: int) -> WreathElement:
    comps = []
    for _ in range(l):
        im = list(range(d))
        rng.shuffle(im)
        comps.append(Permutation(tuple(im)))
    im = list(range(l))
    rng.shuffle(im)
    return WreathElement(comps, Permutation(tuple(im)))


class TestWreath:
    def test_identity_and_inverse(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_wreath(rng, 4, 3)
            assert (g * g.inverse()).is_identity()
            assert (g.inverse() * g).is_identity()

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(30):
            a, b, c = (random_wreath(rng, 3, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_order_formula(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_wreath(rng, 4, 3)
            n = g.order()
            assert (g**n).is_identity()
            for p in {2, 3, 5, 7}:
                if n % p == 0:
                    assert not (g ** (n // p)).is_identity()

    def test_cycle_products(self):
        h1 = parse_cycles("(1 2 3)", 3)
        h2 = parse_cycles("(1 2)", 3)
        h3 = Permutation.identity(3)
        top = parse_cycles("(1 2)", 3)
        g = WreathElement((h1, h2, h3), top)
        prods = dict((cyc, p) for cyc, p in g.cycle_products())
        assert prods[(0, 1)] == h1 * h2
        assert prods[(2,)] == h3
        assert g.order() == math.lcm(2 * (h1 * h2).order(), 1)


class TestProductAction:
    def test_small_example(self):
        act = ProductAction(2, 2)
        g = WreathElement(
            (Permutation.identity(2), parse_cycles("(1 2)", 2)),
            parse_cycles("(1 2)", 2),
        )
        assert act.apply_external(g, (1, 2)) == (1, 1)

    def test_right_action_law(self):
        rng = random.Random(21)
        act = ProductAction(4, 3)
        for _ in range(40):
            g = random_wreath(rng, 4, 3)
            h = random_wreath(rng, 4, 3)
            idx = rng.randrange(act.size)
            assert act.apply(g * h, idx) == act.apply(h, act.apply(g, idx))

    def test_faithful_and_order_agree(self):
        rng = random.Random(22)
        act = ProductAction(3, 3)
        for _ in range(40):
            g = random_wreath(rng, 3, 3)
            assert math.lcm(*orbit_lengths(act.induced_images(g))) == g.order()

    def test_point_indexing(self):
        act = ProductAction(3, 2)
        pts = [act.point(i) for i in range(act.size)]
        assert pts[0] == (1, 1)
        assert pts[1] == (2, 1)
        assert len(set(pts)) == 9
        for i, pt in enumerate(pts):
            assert act.index(pt) == i

    def test_shape_mismatch(self):
        act = ProductAction(3, 2)
        g = random_wreath(random.Random(1), 4, 2)
        with pytest.raises(ValueError):
            act.apply(g, 0)


class TestVectorActions:
    def test_swap_matrix(self):
        act = VectorsAction(2, 3)
        f = field_ops(3)
        m = Matrix.from_rows(f, [[0, 1], [1, 0]])
        assert act.apply_external(m, (1, 0)) == (0, 1)

    def test_right_action_is_matrix_product(self):
        act = VectorsAction(2, 5)
        f = field_ops(5)
        m1 = Matrix.from_rows(f, [[1, 2], [3, 4]])
        m2 = Matrix.from_rows(f, [[2, 1], [1, 1]])
        for idx in range(act.size):
            assert act.apply(m1 * m2, idx) == act.apply(m2, act.apply(m1, idx))

    def test_affine_matches_embedding(self):
        f = field_ops(3)
        amap = AffineMap(Matrix.from_rows(f, [[1, 1], [0, 1]]), (2, 1))
        act = AffineVectorsAction(2, 3)
        emb = amap.embed()
        for idx in range(act.size):
            w = act.point(idx)
            image = act.point(act.apply(amap, idx))
            lifted = emb.vec_mul(w + (1,))
            assert lifted == image + (1,)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_affine_product_matches_image_arrays(self, data):
        # The linear parts are drawn from GL(2, q) itself, so no draw is
        # thrown away.
        q = data.draw(st.sampled_from([3, 4]))
        shift = st.tuples(st.integers(0, 2), st.integers(0, 2))
        maps = [
            AffineMap(data.draw(st.sampled_from(_gl2(q))), data.draw(shift))
            for _ in range(2)
        ]
        act = AffineVectorsAction(2, q)
        first, second = (np.asarray(act.induced_images(h)) for h in maps)
        product = act.induced_images(maps[0] * maps[1])
        assert list(product) == list(second[first])
        assert maps[0] * maps[1] == act.compose(maps[0], maps[1])

    def test_affine_translation_out_of_field(self):
        f = field_ops(3)
        with pytest.raises(ValueError, match="outside field"):
            AffineMap(Matrix.identity(f, 2), (1, 5))

    def test_affine_translation_order(self):
        f = field_ops(3)
        amap = AffineMap(Matrix.identity(f, 2), (1, 0))
        act = AffineVectorsAction(2, 3)
        assert act.element_order(amap) == 3
        assert math.lcm(*orbit_lengths(act.induced_images(amap))) == 3
        assert fixed_count(act.induced_images(amap)) == 0

    def test_vector_index_round_trip(self):
        act = VectorsAction(3, 4)
        for idx in (0, 1, 17, act.size - 1):
            assert act.index(act.point(idx)) == idx

    def test_validation(self):
        act = VectorsAction(2, 3)
        with pytest.raises(ValueError):
            act.index((3, 0))
        f = field_ops(5)
        with pytest.raises(ValueError):
            act.apply(Matrix.identity(f, 2), 0)


def check_tuple_contract(act, g, reference) -> None:
    """The codec, apply, apply_external and induced_images of a tuple action
    agree on every point, and agree with reference(pt), the image of an
    external point computed from the element's own definition."""
    images = act.induced_images(g)
    for i in range(act.size):
        pt = act.point(i)
        j = act.apply(g, i)
        assert act.index(pt) == i
        assert images[i] == j
        image = act.apply_external(g, pt)
        assert image == act.point(j) == tuple(reference(pt))
        assert all(type(v) is int for v in image)
        assert act.external(act.internal(pt)) == pt
    pt = act.point(act.size - 1)
    lo, hi = act.offset, act.offset + act.radix - 1
    for bad in (pt[:-1], pt + (lo,), (hi + 1,) + pt[1:], (lo - 1,) + pt[1:]):
        with pytest.raises(ValueError):
            act.index(bad)
        with pytest.raises(ValueError):
            act.apply_external(g, bad)


def invertible_matrix(data, q: int, d: int) -> Matrix:
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=d * d, max_size=d * d))
    m = Matrix(field_ops(q), d, d, entries)
    assume(m.is_invertible())
    return m


class TestTupleActionContract:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 3)]), st.data())
    def test_product(self, shape, data):
        d, l = shape
        comps = [data.draw(perm_strategy(d)) for _ in range(l)]
        g = WreathElement(comps, data.draw(perm_strategy(l)))

        def reference(pt):
            # Coordinate i^s receives coordinate i, moved by component i.
            out = [0] * l
            for i, v in enumerate(pt):
                out[g.top.images[i]] = g.components[i].images[v - 1] + 1
            return out

        check_tuple_contract(ProductAction(d, l), g, reference)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([5, 9]), st.data())
    def test_vectors(self, q, data):
        m = invertible_matrix(data, q, 2)
        check_tuple_contract(VectorsAction(2, q), m, m.vec_mul)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 4]), st.data())
    def test_affine(self, q, data):
        lin = invertible_matrix(data, q, 2)
        shift = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2))
        f = AffineMap(lin, tuple(shift))
        check_tuple_contract(AffineVectorsAction(2, q), f, f.apply)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1, 2]), st.data())
    def test_diagonal(self, alt5_data, copies, data):
        group, amb = alt5_data.group, alt5_data.automorphisms
        elements = group.elements
        assert elements[0].is_identity()
        sigma = Permutation(tuple(data.draw(st.permutations(range(copies + 1)))))
        phi = data.draw(st.integers(0, len(amb.coset_reps) - 1))
        m = data.draw(st.lists(st.integers(0, 59), min_size=copies, max_size=copies))
        g = DiagonalElement(sigma, phi, tuple(m))

        def reference(pt):
            # Route the full tuple (1, a_1, ..., a_l) through sigma, divide
            # slot 0 back to the identity, then apply phi and translate.
            full = [elements[0]] + [elements[v - 1] for v in pt]
            beta = [None] * (copies + 1)
            for i, s in enumerate(sigma.images):
                beta[s] = full[i]
            head = beta[0].inverse()
            rep = amb.coset_reps[phi]
            return [
                group.index((head * b).conj(rep) * elements[t]) + 1
                for b, t in zip(beta[1:], m)
            ]

        check_tuple_contract(DiagonalAction(alt5_data, copies), g, reference)


class TestCosetsAction:
    def test_point_stabilizer_recovers_natural(self):
        group = symmetric_group(4)
        stab = point_stabilizer(group, 1)
        act = CosetsAction(group, stab)
        assert act.size == 4
        g = parse_cycles("(1 2 3 4)", 4)
        assert math.lcm(*orbit_lengths(act.induced_images(g))) == 4
        assert fixed_count(act.induced_images(parse_cycles("(1 2)", 4))) == 2

    def test_right_action_law(self):
        group = symmetric_group(4)
        stab = point_stabilizer(group, 2)
        act = CosetsAction(group, stab)
        rng = random.Random(31)
        elements = group.elements
        for _ in range(50):
            g = elements[rng.randrange(len(elements))]
            h = elements[rng.randrange(len(elements))]
            idx = rng.randrange(act.size)
            assert act.apply(g * h, idx) == act.apply(h, act.apply(g, idx))

    def test_unfaithful_quotient(self):
        group = symmetric_group(4)
        alt = alternating_group(4)
        act = CosetsAction(group, alt)
        assert act.size == 2
        g = parse_cycles("(1 2 3)", 4)
        assert math.lcm(*orbit_lengths(act.induced_images(g))) == 1 < act.element_order(g)
        assert math.lcm(*orbit_lengths(act.induced_images(parse_cycles("(1 2)", 4)))) == 2

    def test_representatives_sorted(self):
        group = symmetric_group(4)
        stab = point_stabilizer(group, 1)
        act = CosetsAction(group, stab)
        reps = [act.point(i) for i in range(act.size)]
        assert reps == sorted(reps)
        assert reps[0].is_identity()

    def test_foreign_element_rejected(self):
        group = alternating_group(4)
        stab = point_stabilizer(group, 1)
        act = CosetsAction(group, stab)
        with pytest.raises(ValueError):
            act.apply(parse_cycles("(1 2)", 4), 0)


@pytest.fixture(scope="module")
def alt5_data():
    target = alternating_group(5)
    ambient = symmetric_group(5)
    amb = AmbientAutomorphisms.build(target, ambient)
    return DiagonalGroupData.build(target, amb, label="alt5")


class TestDiagonal:
    def test_tables_shape(self, alt5_data):
        assert alt5_data.order == 60
        assert alt5_data.mul.shape == (60, 60)
        assert alt5_data.aut.shape == (120, 60)

    @pytest.mark.parametrize("n", [5, 6])
    def test_tables_match_permutation_products(self, n):
        target, ambient = alternating_group(n), symmetric_group(n)
        automorphisms = AmbientAutomorphisms.build(target, ambient)
        data = DiagonalGroupData.build(target, automorphisms)
        index, elements = target.index, target.elements
        assert data.mul.tolist() == [[index(g * h) for h in elements] for g in elements]
        assert data.inv.tolist() == [index(g.inverse()) for g in elements]
        aut = [
            [index(g.conj(rep)) for g in elements]
            for rep in automorphisms.coset_reps
        ]
        assert data.aut.tolist() == aut
        assert data.aut_order == [math.lcm(*orbit_lengths(row)) for row in aut]
        # The flat tables are views of the 2-D ones, read as Python ints.
        for table, flat, view in zip((data.mul, data.inv, data.aut), data.flat, data.views):
            assert np.shares_memory(table, flat) and flat.ndim == 1
            assert type(view[len(flat) - 1]) is int
            assert view[len(flat) - 1] == table.flat[-1]

    def test_tables_of_a_degree_10_target(self):
        # PSL(2, 9) on the 10 points of the projective line: its product,
        # inverse and automorphism tables agree with permutation products,
        # inverses and conjugates on a seeded sample of 300 entries.
        target, ambient = psl2(9), pgammal2_9()
        automorphisms = AmbientAutomorphisms.build(target, ambient)
        data = DiagonalGroupData.build(target, automorphisms)
        elements, index = target.elements, target.index
        rng = random.Random(10)
        for _ in range(300):
            i, j = rng.randrange(360), rng.randrange(360)
            a = rng.randrange(len(ambient.elements))
            assert data.mul[i, j] == index(elements[i] * elements[j])
            assert data.inv[i] == index(elements[i].inverse())
            rep = automorphisms.coset_reps[a]
            assert data.aut[a, i] == index(elements[i].conj(rep))

    def test_degree_16_tables_match_permutation_products(self):
        # Sym(3) moving 3 of 16 points, its own ambient group: no image key
        # is formed, so the degree does not bound the tables.
        s3 = closure([parse_cycles("(1 2)", 16), parse_cycles("(1 2 3)", 16)])
        automorphisms = AmbientAutomorphisms.build(s3, s3)
        data = DiagonalGroupData.build(s3, automorphisms)
        index, elements = s3.index, s3.elements
        assert data.mul.tolist() == [[index(g * h) for h in elements] for g in elements]
        assert data.inv.tolist() == [index(g.inverse()) for g in elements]
        assert data.aut.tolist() == [
            [index(g.conj(a)) for g in elements] for a in s3.elements
        ]

    def test_walk_that_misses_an_element_refused(self):
        alt5, sym5 = alternating_group(5), symmetric_group(5)
        automorphisms = AmbientAutomorphisms.build(alt5, sym5)
        # The listed generators of the target reach only the identity.
        target = GeneratedGroup(5, [Permutation.identity(5)], alt5.elements)
        with pytest.raises(ValueError, match="do not reach"):
            DiagonalGroupData.build(target, automorphisms)
        # The ambient generators reach only the 60 even permutations.
        ambient = GeneratedGroup(5, alt5.generators, sym5.elements)
        with pytest.raises(ValueError, match="do not reach"):
            DiagonalGroupData.build(alt5, AmbientAutomorphisms.build(alt5, ambient))

    def test_generator_outside_the_target_refused(self):
        # A target listing an odd generator it does not contain: its
        # generator products fall outside its elements.
        alt5 = alternating_group(5)
        odd = parse_cycles("(1 2)", 5)
        target = GeneratedGroup(5, [*alt5.generators, odd], alt5.elements)
        automorphisms = AmbientAutomorphisms.build(alt5, symmetric_group(5))
        with pytest.raises(ValueError, match="not an element"):
            DiagonalGroupData.build(target, automorphisms)

    def test_target_without_identity_first_refused(self):
        alt5 = alternating_group(5)
        target = GeneratedGroup(5, alt5.generators, alt5.elements[::-1])
        automorphisms = AmbientAutomorphisms.build(alt5, symmetric_group(5))
        with pytest.raises(ValueError, match="identity first"):
            DiagonalGroupData.build(target, automorphisms)

    def test_alt7_tables_sampled(self):
        target, ambient = alternating_group(7), symmetric_group(7)
        automorphisms = AmbientAutomorphisms.build(target, ambient)
        data = DiagonalGroupData.build(target, automorphisms)
        elements, index = target.elements, target.index
        rng = random.Random(7)
        for _ in range(300):
            i, j = rng.randrange(2520), rng.randrange(2520)
            a = ambient.elements[rng.randrange(5040)]
            assert data.mul[i, j] == index(elements[i] * elements[j])
            assert data.inv[i] == index(elements[i].inverse())
            assert data.aut[ambient.index(a), i] == index(elements[i].conj(a))

    def test_non_members_refused(self, alt5_data):
        act = DiagonalAction(alt5_data, 1)
        odd, one = parse_cycles("(1 2)", 5), Permutation.identity(5)
        with pytest.raises(ValueError, match="not an element"):
            alt5_data.phi_index_of(Permutation.identity(4))
        # (odd, odd) is conjugation by an ambient element, not a translation.
        for parts in ((odd, odd), (one, odd), (odd, one)):
            with pytest.raises(ValueError, match="not an element"):
                act.translation(parts)

    def test_diagonal_translation_is_conjugation(self, alt5_data):
        act = DiagonalAction(alt5_data, 1)
        group = alt5_data.group
        t = group.generators[0]
        g = act.translation((t, t))
        images = act.induced_images(g)
        for i in range(0, 60, 7):
            expected = group.index(group.elements[i].conj(t))
            assert int(images[i]) == expected

    def test_translation_composition(self, alt5_data):
        act = DiagonalAction(alt5_data, 1)
        group = alt5_data.group
        rng = random.Random(41)
        for _ in range(10):
            a, b = (rng.choice(group.elements) for _ in range(2))
            c, d = (rng.choice(group.elements) for _ in range(2))
            first = Permutation(tuple(int(v) for v in act.induced_images(act.translation((a, b)))))
            second = Permutation(tuple(int(v) for v in act.induced_images(act.translation((c, d)))))
            combined = Permutation(
                tuple(int(v) for v in act.induced_images(act.translation((a * c, b * d))))
            )
            assert first * second == combined

    def test_automorphism_composition(self, alt5_data):
        act = DiagonalAction(alt5_data, 2)
        ambient = alt5_data.automorphisms.ambient
        rng = random.Random(42)
        for _ in range(6):
            a = rng.choice(ambient.elements)
            b = rng.choice(ambient.elements)
            fa = act.induced_images(act.automorphism_element(a))
            fb = act.induced_images(act.automorphism_element(b))
            fab = act.induced_images(act.automorphism_element(a * b))
            assert list(fb[fa]) == list(fab)

    def test_slot_composition(self, alt5_data):
        act = DiagonalAction(alt5_data, 2)
        s = parse_cycles("(1 2)", 3)
        t = parse_cycles("(1 2 3)", 3)
        fs = act.induced_images(act.slot_element(s))
        ft = act.induced_images(act.slot_element(t))
        fst = act.induced_images(act.slot_element(s * t))
        assert list(ft[fs]) == list(fst)

    def test_scalar_apply_matches_vectorized(self, alt5_data):
        from regcycle.actions import DiagonalElement

        act = DiagonalAction(alt5_data, 2)
        rng = random.Random(43)
        for _ in range(5):
            sigma = Permutation((0, 2, 1))
            phi = rng.randrange(alt5_data.aut.shape[0])
            m = (rng.randrange(60), rng.randrange(60))
            g = DiagonalElement(sigma, phi, m)
            images = act.induced_images(g)
            for idx in rng.sample(range(act.size), 25):
                assert act.apply(g, idx) == int(images[idx])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_compose_matches_image_arrays(self, alt5_data, data):
        copies = data.draw(st.sampled_from([1, 2]))
        act = DiagonalAction(alt5_data, copies)

        def element():
            sigma = data.draw(st.permutations(range(copies + 1)))
            phi = data.draw(st.integers(0, alt5_data.aut.shape[0] - 1))
            m = data.draw(st.lists(st.integers(0, 59), min_size=copies, max_size=copies))
            return DiagonalElement(Permutation(tuple(sigma)), phi, tuple(m))

        g, h = element(), element()
        first, second = act.induced_images(g), act.induced_images(h)
        assert list(act.induced_images(act.compose(g, h))) == list(second[first])

    def test_pure_translation_fixes_nothing(self, alt5_data):
        act = DiagonalAction(alt5_data, 1)
        group = alt5_data.group
        t = group.generators[0]
        g = act.translation((Permutation.identity(5), t))
        assert fixed_count(act.induced_images(g)) == 0

    def test_realized_group_order(self, alt5_data):
        w = realize_diagonal_group(alt5_data, 1)
        assert w.order == 14400
        assert w.degree == 60

    def test_element_order(self, alt5_data):
        act = DiagonalAction(alt5_data, 1)
        group = alt5_data.group
        t = group.generators[0]
        g = act.translation((Permutation.identity(5), t))
        # Right translation by an order-n element has order n.
        assert act.element_order(g) == t.order()

    @pytest.mark.parametrize("phi, m", [(500, (0,)), (0, (60,)), (-1, (0,)), (0, (-3,))])
    def test_out_of_range_phi_or_m_refused(self, alt5_data, phi, m):
        # numpy would fail on 500 and 60, and wrap -1 and -3 silently.
        from regcycle.actions import DiagonalElement

        act = DiagonalAction(alt5_data, 1)
        g = DiagonalElement(Permutation.identity(2), phi, m)
        for entry in (act.element_order, act.induced_images, lambda g: decide(act, g),
                      lambda g: act.apply_external(g, (1,))):
            with pytest.raises(ValueError, match="outside"):
                entry(g)

    def test_element_order_is_induced_order_copies1(self, alt5_data):
        act = DiagonalAction(alt5_data, 1)
        for sigma, phi, m0 in product(
            permutations(range(2)), range(alt5_data.aut.shape[0]), range(60)
        ):
            g = DiagonalElement(Permutation(sigma), phi, (m0,))
            assert act.element_order(g) == math.lcm(*orbit_lengths(act.induced_images(g))), g

    def test_element_order_is_induced_order_copies2(self, alt5_data):
        act = DiagonalAction(alt5_data, 2)
        rng = random.Random(2000)
        for _ in range(2000):
            g = DiagonalElement(
                Permutation(tuple(rng.sample(range(3), 3))),
                rng.randrange(alt5_data.aut.shape[0]),
                (rng.randrange(60), rng.randrange(60)),
            )
            assert act.element_order(g) == math.lcm(*orbit_lengths(act.induced_images(g))), g

    @pytest.mark.parametrize("decider", [decide_bruteforce, decide_fix_union])
    def test_one_image_build_per_decider_call(self, alt5_data, monkeypatch, decider):
        act = DiagonalAction(alt5_data, 2)
        g = DiagonalElement(Permutation((1, 2, 0)), 7, (5, 17))
        expected = act.element_order(g)
        build = DiagonalAction.induced_images
        calls = []

        def counted(self, elem):
            calls.append(elem)
            return build(self, elem)

        monkeypatch.setattr(DiagonalAction, "induced_images", counted)
        verdict = decider(act, g)
        assert calls == [g]
        assert verdict.group_order_of_g == expected
