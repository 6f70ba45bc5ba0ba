"""Verification suites spanning every decision and witness pipeline.

A suite is a generator of (name, check) pairs: each check is a block that
returns a short human-readable detail or raises. `run_suite` is the one
runner. It applies the RunConfig default, times the suite, runs the checks
one at a time in the order the suite yields them, and turns each into a
SuiteLine with a stable name, a pass flag and the detail. A failing check
never aborts the suite: its exception becomes the detail of a failing line,
so a report always describes every check. Code a suite runs before its
first yield, such as the k-set oracle's pricing, runs before any check.

Reports are deterministic for a fixed seed: every sample comes from a
generator seeded by the config, and lines keep the suite's order, so the
rendered output is byte-identical from run to run.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iter_product
from typing import Callable, Iterator, Optional

from .actions import (
    AffineVectorsAction,
    CosetsAction,
    DiagonalAction,
    DiagonalGroupData,
    KSetsAction,
    NaturalAction,
    PartitionsAction,
    ProductAction,
    VectorsAction,
    WreathElement,
    orbit_lengths,
    realize_diagonal_group,
)
from .gfalgebra import AffineMap
from .groups import (
    AmbientAutomorphisms,
    all_permutations,
    alternating_group,
    gl_elements,
    gl_order,
    m10,
    pgammal2_9,
    pgl2,
    point_stabilizer,
    set_stabilizer,
    sylow_normalizer,
    symmetric_group,
)
from .permcore import (
    Permutation,
    canonical_permutation,
    cycle_type_count,
    cycle_types,
    nk_threshold,
    render_cycles,
)
from .regular import (
    DomainCapError,
    PartitionCaseError,
    affine_witness,
    decide_bruteforce,
    decide_fix_union,
    diagonal_elements,
    diagonal_fpr_audit,
    gl_regular_vector_set,
    kset_decide,
    ksets_theorem_scan,
    min_cover,
    partition_witness,
    product_witness,
    wreath_fpr_max,
)


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by the command line and the suites."""

    domain_cap: int = 10**7
    seed: int = 0
    output: str = "json"

    def __post_init__(self):
        if self.domain_cap < 1:
            raise ValueError("domain_cap must be positive")
        if self.output not in ("json", "tsv"):
            raise ValueError(f"unknown output format {self.output!r}")


@dataclass(frozen=True)
class SuiteLine:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    lines: tuple[SuiteLine, ...]
    elapsed: float

    @property
    def all_ok(self) -> bool:
        return all(line.ok for line in self.lines)

    @property
    def failures(self) -> tuple[SuiteLine, ...]:
        return tuple(line for line in self.lines if not line.ok)

    def summary(self) -> str:
        state = "pass" if self.all_ok else "FAIL"
        return (
            f"suite {self.suite}: {state} "
            f"({len(self.lines)} checks, {self.elapsed:.1f}s)"
        )


# A suite's checks: (line name, block returning the line's detail) pairs.
Checks = Iterator[tuple[str, Callable[[], str]]]


def _checked(name: str, fn: Callable[[], str]) -> SuiteLine:
    """Run one block; any exception becomes a failing line naming it."""
    try:
        return SuiteLine(name, True, fn())
    except Exception as exc:
        return SuiteLine(name, False, f"{type(exc).__name__}: {exc}")


def _random_permutation(rng: random.Random, n: int) -> Permutation:
    vals = list(range(n))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


# ---------------------------------------------------------------------------
# k-set actions


def ksets_oracle_price(m: int) -> int:
    """Points the degree-m oracle line brute-forces: every k-set action,
    k = 1..m/2, once per cycle type."""
    return sum(math.comb(m, k) for k in range(1, m // 2 + 1)) * cycle_type_count(m)


def suite_ksets(
    config: RunConfig,
    oracle_m_max: int = 13,
    scan_m_max: int = 20,
) -> Checks:
    """Pair-set example, threshold-law scans, and the combinatorial
    decision against brute force for every small cycle type.

    Each oracle line is priced before any line runs, and a price past
    config.domain_cap raises DomainCapError naming its degree.
    """
    for m in range(2, oracle_m_max + 1):
        price = ksets_oracle_price(m)
        if price > config.domain_cap:
            raise DomainCapError(price, config.domain_cap, f"ksets oracle line m={m}")

    def intro() -> str:
        g = Permutation.from_cycles([(1, 2, 3, 4, 5), (6, 7, 8), (9, 10)], 10)
        action = KSetsAction(10, 2)
        verdict = decide_bruteforce(action, g)
        lens = sorted(orbit_lengths(action.induced_images(g)))
        assert verdict.group_order_of_g == 30
        assert lens == [1, 3, 5, 5, 6, 10, 15], f"orbit lengths {lens}"
        assert not verdict.has_regular_cycle
        return f"orbit lengths {lens}, no regular pair-set cycle"

    yield "pair_sets_type_5_3_2", intro

    for k in (1, 2, 3):
        threshold = nk_threshold(k)
        top = max(scan_m_max, threshold)

        def law(k=k, threshold=threshold, top=top) -> str:
            checked = 0
            for m in range(2 * k, top + 1):
                report = ksets_theorem_scan(m, k)
                checked += report.types_scanned
                if m == threshold:
                    assert report.failing_types, "expected a violating type"
            return (
                f"m up to {top}, {checked} types scanned, "
                f"first failures exactly at m={threshold}"
            )

        yield f"threshold_law_k{k}", law

    for m in range(2, oracle_m_max + 1):

        def oracle(m=m) -> str:
            pairs = 0
            for ct in cycle_types(m):
                g = canonical_permutation(ct)
                for k in range(1, m // 2 + 1):
                    expected = decide_bruteforce(
                        KSetsAction(m, k), g
                    ).has_regular_cycle
                    got = kset_decide(ct, k).has_regular_cycle
                    assert got == expected, (
                        f"type {list(ct.parts)} k={k}: {got} vs brute {expected}"
                    )
                    pairs += 1
            return f"{pairs} (type, k) pairs agree with brute force"

        yield f"combinatorial_vs_bruteforce_m{m}", oracle


# ---------------------------------------------------------------------------
# uniform partitions


_PARTITION_SHAPES = {
    6: ((2, 3), (3, 2)),
    8: ((2, 4), (4, 2)),
    9: ((3, 3),),
    10: ((2, 5), (5, 2)),
    12: ((2, 6), (3, 4), (4, 3), (6, 2)),
}


def suite_partitions(
    config: RunConfig,
    exhaustive: tuple[int, ...] = (6, 8, 9),
    sampled: tuple[int, ...] = (10, 12),
    conjugates_per_type: int = 25,
) -> Checks:
    """Certified block-system witnesses for every element of the small
    symmetric groups, every cycle type of the larger ones, and the refusal
    of the degenerate 2x2 shape."""
    rng = random.Random(config.seed)

    for n in exhaustive:
        for a, b in _PARTITION_SHAPES[n]:

            def block(n=n, a=a, b=b) -> str:
                count = 0
                for g in all_permutations(n):
                    partition_witness(g, a, b)
                    count += 1
                return f"all {count} elements certified"

            yield f"exhaustive_{a}x{b}", block

    for n in sampled:
        for a, b in _PARTITION_SHAPES[n]:

            def block(n=n, a=a, b=b) -> str:
                count = 0
                for ct in cycle_types(n):
                    g = canonical_permutation(ct)
                    partition_witness(g, a, b)
                    count += 1
                    for _ in range(conjugates_per_type):
                        partition_witness(
                            g.conj(_random_permutation(rng, n)), a, b
                        )
                        count += 1
                return f"{count} witnesses over every cycle type plus conjugates"

            yield f"types_and_conjugates_{a}x{b}", block

    def exceptional() -> str:
        four = Permutation.from_cycles([(1, 2, 3, 4)], 4)
        fired = False
        try:
            partition_witness(four, 2, 2)
        except PartitionCaseError:
            fired = True
        assert fired, "shape (2, 2) must be refused"
        action = PartitionsAction(2, 2)
        lens = orbit_lengths(action.induced_images(four))
        assert max(lens) == 2 and four.order() == 4
        assert not decide_bruteforce(action, four).has_regular_cycle
        return "refused; 4-cycle max orbit 2 < order 4 on the 3 partitions"

    yield "shape_2x2_exception", exceptional


# ---------------------------------------------------------------------------
# product actions of wreath elements


_PRODUCT_CASES = ((3, 2), (3, 3), (4, 2))


def _wreath_elements(n: int, copies: int) -> Iterator[WreathElement]:
    """Every element of Sym(n) wr Sym(copies): base components in
    lexicographic order, and for each, every top permutation."""
    base = list(all_permutations(n))
    tops = list(all_permutations(copies))
    for comps in iter_product(base, repeat=copies):
        for top in tops:
            yield WreathElement(comps, top)


def suite_product(
    config: RunConfig,
    cases: tuple[tuple[int, int], ...] = _PRODUCT_CASES,
) -> Checks:
    """Certified regular tuples for every element of small wreath products
    in their product actions."""
    for n, copies in cases:

        def block(n=n, copies=copies) -> str:
            count = 0
            for w in _wreath_elements(n, copies):
                product_witness([(h, None) for h in w.components], w.top)
                count += 1
            return f"all {count} wreath elements certified"

        yield f"wreath_sym{n}_copies{copies}", block


# ---------------------------------------------------------------------------
# linear and affine actions


_LINEAR_CASES = (
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (1, 11), (1, 13),
    (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 2),
)


def suite_gl(
    config: RunConfig,
    cases: tuple[tuple[int, int], ...] = _LINEAR_CASES,
) -> Checks:
    """Regular vectors span the whole space for every invertible matrix of
    each small (dimension, field) case."""
    for d, q in cases:

        def block(d=d, q=q) -> str:
            mats = gl_elements(d, q)
            assert len(mats) == gl_order(d, q)
            for m in mats:
                result = gl_regular_vector_set(m)
                assert result.spans, f"no spanning set for {m.entries}"
            return f"{len(mats)} matrices, regular vectors span every time"

        yield f"gl_{d}_{q}", block


def suite_affine(
    config: RunConfig,
    cases: tuple[tuple[int, int], ...] = _LINEAR_CASES,
) -> Checks:
    """Certified regular vectors for every affine map of each small
    (dimension, field) case."""
    for d, q in cases:

        def block(d=d, q=q) -> str:
            count = 0
            for lin in gl_elements(d, q):
                for tra in iter_product(range(q), repeat=d):
                    affine_witness(AffineMap(lin, tuple(tra)))
                    count += 1
            return f"{count} affine maps certified"

        yield f"agl_{d}_{q}", block


# ---------------------------------------------------------------------------
# diagonal-type actions over Alt(5)


def _alt5_diagonal_data() -> DiagonalGroupData:
    target = alternating_group(5)
    ambient = symmetric_group(5)
    return DiagonalGroupData.build(
        target, AmbientAutomorphisms.build(target, ambient), "alt5"
    )


def suite_diagonal(
    config: RunConfig,
    samples: int = 10**4,
    realize: bool = True,
) -> Checks:
    """Every element of the one-coordinate diagonal group over Alt(5) has a
    regular cycle; seeded samples cover two coordinates; fixed-point-ratio
    bounds hold per shape class with the involution maximum hit exactly.

    Each element family is walked once, by one diagonal_fpr_audit: the
    regular-cycle line and the bounds line of a family read the same
    report, whichever of them runs it first.
    """
    data = _alt5_diagonal_data()
    copies1 = cache(lambda: diagonal_fpr_audit(data, 1, min_faithful_degree=5))
    copies2 = cache(
        lambda: diagonal_fpr_audit(
            data, 2, min_faithful_degree=5, samples=samples, seed=config.seed
        )
    )

    def full_copies1() -> str:
        assert DiagonalAction(data, 1).size == 60
        report = copies1()
        if report.irregular:
            elem = report.irregular[0][1]
            raise AssertionError(
                f"no regular cycle: sigma={render_cycles(elem.sigma)} "
                f"phi={elem.phi} m={elem.m[0]}"
            )
        count = report.elements_checked
        assert count == 14400
        return f"all {count} elements have a regular cycle on 60 points"

    yield "full_group_copies1", full_copies1

    def realized() -> str:
        group = realize_diagonal_group(data, 1)
        assert group.order == 14400 and group.degree == 60
        action = DiagonalAction(data, 1)
        induced = {
            tuple(action.induced_images(elem).tolist())
            for elem in diagonal_elements(data, 1)
        }
        assert induced == {g.images for g in group.elements}, (
            "triple parameterization does not match the realized group"
        )
        return "triples biject onto the realized group of order 14400"

    if realize:
        yield "realized_group_copies1", realized

    def sampled_copies2() -> str:
        assert DiagonalAction(data, 2).size == 3600
        report = copies2()
        if report.irregular:
            raise AssertionError(f"sample {report.irregular[0][0]} has no regular cycle")
        return f"{samples} seeded samples on 3600 points all pass"

    yield "sampled_copies2", sampled_copies2

    def audit1() -> str:
        report = copies1()
        assert report.exhaustive
        assert report.all_ok, report.lines
        involutions = [
            line
            for line in report.lines
            if line.shape == "slot_moving_anchor" and line.prime == 2
        ]
        assert len(involutions) == 1
        assert involutions[0].max_fpr == Fraction(4, 15), involutions
        return "per-shape bounds hold; slot-swap involutions reach 16/60 = 4/15"

    yield "fpr_bounds_copies1", audit1

    def audit2() -> str:
        report = copies2()
        assert not report.exhaustive
        assert report.all_ok, report.lines
        return f"sampled bounds hold over {report.elements_seen} prime-order elements"

    yield "fpr_bounds_copies2", audit2


# ---------------------------------------------------------------------------
# the twisted degree-6 coset action of Sym(6)


def suite_s6_exception(config: RunConfig) -> Checks:
    """Six-cycles of Sym(6) lose their regular cycle exactly on the cosets
    of the transitive copy of PGL(2,5), where they induce orbit lengths
    1, 2, 3."""
    s6 = symmetric_group(6)
    twisted = pgl2(5)
    natural = point_stabilizer(s6, 1)

    def classes() -> str:
        assert twisted.order == 120 and twisted.degree == 6
        assert natural.order == 120
        orbit_twisted = {g.images[0] for g in twisted.elements}
        orbit_natural = {g.images[0] for g in natural.elements}
        assert len(orbit_twisted) == 6, "expected a transitive index-6 subgroup"
        assert len(orbit_natural) == 1, "expected a point stabilizer"
        return "both index-6 classes realized: transitive and point-fixing"

    yield "two_stabilizer_classes", classes

    def twisted_block() -> str:
        action = CosetsAction(s6, twisted, label="pgl2:5")
        assert action.size == 6
        six_cycles = [g for g in s6.elements if g.cycle_type().parts == (6,)]
        assert len(six_cycles) == 120
        for g in six_cycles:
            lens = sorted(orbit_lengths(action.induced_images(g)))
            assert lens == [1, 2, 3], f"{render_cycles(g)} induced {lens}"
        return "all 120 six-cycles induce orbit lengths [1, 2, 3]: order 6, max orbit 3"

    yield "twisted_cosets_break_six_cycles", twisted_block

    def natural_block() -> str:
        action = CosetsAction(s6, natural, label="stab:1")
        assert action.size == 6
        count = 0
        for g in s6.elements:
            if g.cycle_type().parts != (6,):
                continue
            lens = orbit_lengths(action.induced_images(g))
            assert max(lens) == 6, f"{render_cycles(g)} induced {sorted(lens)}"
            count += 1
        assert count == 120
        return "all 120 six-cycles keep a full cycle on point-stabilizer cosets"

    yield "natural_cosets_keep_six_cycles", natural_block


# ---------------------------------------------------------------------------
# the three overgroups of the degree-10 projective realization


def suite_a6_family(config: RunConfig) -> Checks:
    """Every element of PGL(2,9), M10, and PGammaL(2,9) keeps a regular
    cycle across their coset actions of degrees 10, 36, and 45."""
    builders = (
        ("pgl2_9", lambda: pgl2(9), 720),
        ("m10", m10, 720),
        ("pgammal2_9", pgammal2_9, 1440),
    )

    for gname, builder, expected_order in builders:

        def block(gname=gname, builder=builder, expected_order=expected_order) -> str:
            group = builder()
            assert group.order == expected_order and group.degree == 10
            subgroups = (
                ("deg10", point_stabilizer(group, 1), 10),
                ("deg36", sylow_normalizer(group, 5), 36),
                ("deg45", set_stabilizer(group, (1, 2)), 45),
            )
            checked = 0
            for aname, sub, degree in subgroups:
                action = CosetsAction(group, sub, label=f"{gname}:{aname}")
                assert action.size == degree, f"{aname}: size {action.size}"
                for g in group.elements:
                    lens = orbit_lengths(action.induced_images(g))
                    assert max(lens) == g.order(), (
                        f"{render_cycles(g)} on {aname}: {sorted(lens)}"
                    )
                    checked += 1
            return f"{checked} (element, action) checks, every one regular"

        yield gname, block


# ---------------------------------------------------------------------------
# cross-method identities and the decision-oracle corpus


_WREATH_FPR_CASES = (
    (3, 2, Fraction(1, 3)),
    (4, 2, Fraction(1, 2)),
    (3, 3, Fraction(1, 3)),
)


def _oracle_corpus(config: RunConfig, target: int) -> list[tuple]:
    """Deterministic mixed corpus of (label, action, element) triples.

    Exhaustive small blocks cover every action family; a seeded random
    schedule of larger-degree elements fills the remaining quota.
    """
    rng = random.Random(config.seed)
    pairs: list[tuple] = []

    def done() -> bool:
        return len(pairs) >= target

    sym5 = list(all_permutations(5))
    sym6 = list(all_permutations(6))
    for label, elements, acts in (
        ("sym5", sym5, (NaturalAction(5), KSetsAction(5, 2))),
        (
            "sym6",
            sym6,
            (
                NaturalAction(6),
                KSetsAction(6, 2),
                KSetsAction(6, 3),
                PartitionsAction(2, 3),
                PartitionsAction(3, 2),
            ),
        ),
    ):
        for action in acts:
            for g in elements:
                pairs.append((f"{label}:{action.name}", action, g))
    if done():
        return pairs

    nat7 = NaturalAction(7)
    for g in all_permutations(7):
        pairs.append((f"sym7:{nat7.name}", nat7, g))
    if done():
        return pairs

    for n, copies in ((3, 2), (3, 3), (4, 2)):
        action = ProductAction(n, copies)
        for w in _wreath_elements(n, copies):
            pairs.append((f"wreath{n}x{copies}", action, w))
    if done():
        return pairs

    for d, q in ((2, 2), (2, 3), (3, 2)):
        action = VectorsAction(d, q)
        for m in gl_elements(d, q):
            pairs.append((f"gl{d}_{q}", action, m))
    aff = AffineVectorsAction(2, 3)
    for lin in gl_elements(2, 3):
        for tra in iter_product(range(3), repeat=2):
            pairs.append(("agl2_3", aff, AffineMap(lin, tuple(tra))))
    if done():
        return pairs

    s6 = symmetric_group(6)
    coset6 = CosetsAction(s6, pgl2(5), label="pgl2:5")
    for g in s6.elements:
        pairs.append(("s6_cosets6", coset6, g))
    p9 = pgl2(9)
    coset36 = CosetsAction(p9, sylow_normalizer(p9, 5), label="pgl2_9:36")
    for g in p9.elements:
        pairs.append(("pgl2_9_cosets36", coset36, g))
    if done():
        return pairs

    data = _alt5_diagonal_data()
    daction = DiagonalAction(data, 1)
    for elem in diagonal_elements(data, 1):
        pairs.append(("diagonal_alt5", daction, elem))

    # Random fill: cheap actions dominate the schedule, partition actions
    # with larger domains appear at a lower rate.
    schedule = (
        [("sym9", 9, a) for a in (
            NaturalAction(9),
            KSetsAction(9, 2),
            KSetsAction(9, 3),
            KSetsAction(9, 4),
        )] * 2
        + [("sym9", 9, PartitionsAction(3, 3))]
        + [("sym10", 10, a) for a in (KSetsAction(10, 2), KSetsAction(10, 3))] * 2
        + [("sym10", 10, PartitionsAction(5, 2))]
        + [("sym12", 12, a) for a in (NaturalAction(12), KSetsAction(12, 2))] * 2
        + [("sym16", 16, NaturalAction(16))] * 4
    )
    idx = 0
    while len(pairs) < target:
        label, n, action = schedule[idx % len(schedule)]
        idx += 1
        pairs.append(
            (f"{label}:{action.name}", action, _random_permutation(rng, n))
        )
    return pairs


def suite_identity_checks(
    config: RunConfig,
    corpus_target: int = 100000,
) -> Checks:
    """Wreath fixed-point-ratio maxima equal the inner maxima, and the
    fixed-set-union decider agrees with brute force over a large mixed
    corpus of (element, action) pairs."""
    for n, copies, expected in _WREATH_FPR_CASES:

        def block(n=n, copies=copies, expected=expected) -> str:
            value = wreath_fpr_max(symmetric_group(n), symmetric_group(copies))
            assert value == expected, f"maximum {value}, expected {expected}"
            return f"wreath maximum equals the inner maximum {value}"

        yield f"wreath_fpr_sym{n}_wr_sym{copies}", block

    def corpus_block() -> str:
        pairs = _oracle_corpus(config, corpus_target)
        assert len(pairs) >= corpus_target

        def check(item):
            label, action, g = item
            bf = decide_bruteforce(action, g)
            fu = decide_fix_union(action, g)
            if (
                bf.has_regular_cycle != fu.has_regular_cycle
                or bf.induced_order != fu.induced_order
                or bf.group_order_of_g != fu.group_order_of_g
            ):
                return (
                    f"{label}: brute {bf.has_regular_cycle}/{bf.induced_order} "
                    f"vs fix-union {fu.has_regular_cycle}/{fu.induced_order}"
                )
            return None

        bad = [r for r in map(check, pairs) if r is not None]
        assert not bad, bad[0]
        return f"{len(pairs)} (element, action) pairs agree"

    yield "fix_union_vs_bruteforce_corpus", corpus_block


# ---------------------------------------------------------------------------
# inequality pipelines


_CRUDE_PROFILES = (
    ("alt", 5, 1),
    ("alt", 5, 2),
    ("alt", 6, 1),
    ("alt", 7, 1),
    ("alt", 8, 1),
    ("psl2", 7, 1),
    ("psl2", 8, 1),
    ("psl2", 9, 1),
    ("psl2", 11, 1),
    ("psl2", 13, 1),
    ("psl2", 13, 2),
)


def suite_bounds_all(
    config: RunConfig,
    full: bool = True,
) -> Checks:
    """All interval-checked inequality sweeps at their acceptance ranges
    (or reduced ranges when full=False)."""
    from . import bounds as bounds_mod

    def sweep(fn: Callable[[], object]) -> Callable[[], str]:
        def block() -> str:
            report = fn()
            assert report.all_pass, report.failures[:1]
            return f"{len(report.lines)} checks, min gap {report.min_gap:.4g}"

        return block

    yield "divisor_sum_vs_loglog", sweep(lambda: bounds_mod.robin_sweep(
        26, 10**6 if full else 10**4))
    yield "max_order_vs_sqrt_bound", sweep(lambda: bounds_mod.massias_sweep(4, 200))
    yield "factorial_brackets", sweep(lambda: bounds_mod.stirling_sweep(
        1, 1000 if full else 200))
    yield "prime_power_balance", sweep(lambda: bounds_mod.technical_sweep(
        3, 200 if full else 60))

    def alpha_beta_block() -> str:
        report = bounds_mod.alpha_beta_scan(47, 10**4 if full else 500)
        assert report.all_pass
        assert report.monotone_within_stretches
        return f"{len(report.rows)} rows, product stays below 1"

    yield "alpha_beta_product", alpha_beta_block

    def crude_block() -> str:
        for family, param, copies in _CRUDE_PROFILES:
            profile = bounds_mod.group_profile(family, param)
            line = bounds_mod.diagonal_crude_bound(
                profile.min_faithful_degree, profile.omega_aut, copies
            )
            assert line.status == bounds_mod.STATUS_PASS, (family, param, copies)
        return f"{len(_CRUDE_PROFILES)} diagonal profiles stay below 1"

    yield "diagonal_crude", crude_block
    yield "e8_order_growth", sweep(lambda: bounds_mod.e8_sweep(1024))


# ---------------------------------------------------------------------------
# scans and the suite registry


@dataclass(frozen=True)
class ScanRow:
    """One cycle type lacking a regular cycle in the scanned action."""

    parts: tuple[int, ...]
    order: int
    covering_size: int
    note: str = ""


def scan_ksets(m: int, k: int) -> list[ScanRow]:
    """Cycle types of degree m with no regular cycle on k-sets, in reverse
    lexicographic order of their parts: the failing types of
    `ksets_theorem_scan` on the smaller side min(k, m - k), which also
    checks the threshold law."""
    kk = min(k, m - k)
    if kk < 1:
        raise ValueError(f"k={k} leaves no room at degree {m}")
    rows = []
    for ct in ksets_theorem_scan(m, kk).failing_types:
        s = min_cover(ct.parts)[0]
        rows.append(ScanRow(ct.parts, ct.order, s, f"needs {s} cycles, k={kk}"))
    return rows


# The partition scan brute-forces every cycle type up to this degree.
PARTITION_SCAN_MAX_DEGREE = 12


class ScanCapError(ValueError):
    """A scan asked for a degree past what its brute force is bounded to."""


def scan_partitions(a: int, b: int) -> list[ScanRow]:
    """Cycle types of degree a*b with no regular cycle on (a,b)-partitions,
    decided by brute force on one representative per type."""
    m = a * b
    if a < 2 or b < 2:
        raise ValueError(f"block shape ({a}, {b}) needs a, b >= 2")
    if m > PARTITION_SCAN_MAX_DEGREE:
        raise ScanCapError(
            f"degree {m} is past the exhaustive partition scan limit "
            f"{PARTITION_SCAN_MAX_DEGREE}"
        )
    action = PartitionsAction(a, b)
    rows = []
    for ct in cycle_types(m):
        g = canonical_permutation(ct)
        lens = orbit_lengths(action.induced_images(g))
        if max(lens) != ct.order:
            rows.append(
                ScanRow(
                    parts=ct.parts,
                    order=ct.order,
                    covering_size=min_cover(ct.parts)[0],
                    note=f"max orbit {max(lens)}",
                )
            )
    return rows


SUITES: dict[str, Callable[..., Checks]] = {
    "ksets": suite_ksets,
    "partitions": suite_partitions,
    "product": suite_product,
    "affine": suite_affine,
    "gl": suite_gl,
    "diagonal": suite_diagonal,
    "s6-exception": suite_s6_exception,
    "remark-a6": suite_a6_family,
    "lemma-identities": suite_identity_checks,
    "bounds-all": suite_bounds_all,
}


def run_suite(
    name: str, config: Optional[RunConfig] = None, **overrides
) -> SuiteReport:
    """Run the named suite's checks in order; overrides go to the suite."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(sorted(SUITES))}"
        )
    config = config or RunConfig()
    start = time.perf_counter()
    lines = [_checked(line, check) for line, check in SUITES[name](config, **overrides)]
    return SuiteReport(name, tuple(lines), time.perf_counter() - start)
