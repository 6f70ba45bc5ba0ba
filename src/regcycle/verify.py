"""Verification suites spanning every decision and witness pipeline.

Each suite runs one block of checks and returns a SuiteReport whose lines
carry a stable name, a pass flag, and a short human-readable detail. A
failing block never aborts the suite: the first violated assertion is
captured into the line so reports always describe every check.

Reports are deterministic for a fixed seed. All sampling happens up front
with a seeded generator and results are assembled in order, so the rendered
output is byte-identical from run to run.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from typing import Callable, Optional

from . import bounds as bounds_mod
from .actions import (
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
    cycle_types,
    nk_threshold,
    render_cycles,
)
from .regular import (
    PartitionCaseError,
    affine_witness,
    decide_bruteforce,
    decide_fix_union,
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
    group_cap: int = 5 * 10**6
    seed: int = 0
    output: str = "json"

    def __post_init__(self):
        if self.domain_cap < 1 or self.group_cap < 1:
            raise ValueError("caps must be positive")
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


def suite_ksets(
    config: Optional[RunConfig] = None,
    oracle_m_max: int = 13,
    scan_m_max: int = 20,
) -> SuiteReport:
    """Pair-set example, threshold-law scans, and the combinatorial
    decision against brute force for every small cycle type."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []

    def intro() -> str:
        g = Permutation.from_cycles([(1, 2, 3, 4, 5), (6, 7, 8), (9, 10)], 10)
        action = KSetsAction(10, 2)
        verdict = decide_bruteforce(action, g)
        lens = sorted(orbit_lengths(action.induced_images(g)))
        assert verdict.group_order_of_g == 30
        assert lens == [1, 3, 5, 5, 6, 10, 15], f"orbit lengths {lens}"
        assert not verdict.has_regular_cycle
        return f"orbit lengths {lens}, no regular pair-set cycle"

    lines.append(_checked("pair_sets_type_5_3_2", intro))

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

        lines.append(_checked(f"threshold_law_k{k}", law))

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

        lines.append(_checked(f"combinatorial_vs_bruteforce_m{m}", oracle))

    return SuiteReport("ksets", tuple(lines), time.perf_counter() - start)


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
    config: Optional[RunConfig] = None,
    exhaustive: tuple[int, ...] = (6, 8, 9),
    sampled: tuple[int, ...] = (10, 12),
    conjugates_per_type: int = 25,
) -> SuiteReport:
    """Certified block-system witnesses for every element of the small
    symmetric groups, every cycle type of the larger ones, and the refusal
    of the degenerate 2x2 shape."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []
    rng = random.Random(config.seed)

    for n in exhaustive:
        for a, b in _PARTITION_SHAPES[n]:

            def block(n=n, a=a, b=b) -> str:
                count = 0
                for g in all_permutations(n):
                    partition_witness(g, a, b)
                    count += 1
                return f"all {count} elements certified"

            lines.append(_checked(f"exhaustive_{a}x{b}", block))

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

            lines.append(_checked(f"types_and_conjugates_{a}x{b}", block))

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

    lines.append(_checked("shape_2x2_exception", exceptional))

    return SuiteReport("partitions", tuple(lines), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# product actions of wreath elements


_PRODUCT_CASES = ((3, 2), (3, 3), (4, 2))


def suite_product(
    config: Optional[RunConfig] = None,
    cases: tuple[tuple[int, int], ...] = _PRODUCT_CASES,
) -> SuiteReport:
    """Certified regular tuples for every element of small wreath products
    in their product actions."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []

    for n, copies in cases:

        def block(n=n, copies=copies) -> str:
            base = [Permutation(tuple(p)) for p in iter_permutations(range(n))]
            tops = [
                Permutation(tuple(p)) for p in iter_permutations(range(copies))
            ]
            count = 0
            for comps in iter_product(base, repeat=copies):
                for top in tops:
                    product_witness([(h, None) for h in comps], top)
                    count += 1
            return f"all {count} wreath elements certified"

        lines.append(_checked(f"wreath_sym{n}_copies{copies}", block))

    return SuiteReport("product", tuple(lines), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# linear and affine actions


_LINEAR_CASES = (
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (1, 11), (1, 13),
    (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 2),
)


def suite_gl(
    config: Optional[RunConfig] = None,
    cases: tuple[tuple[int, int], ...] = _LINEAR_CASES,
) -> SuiteReport:
    """Regular vectors span the whole space for every invertible matrix of
    each small (dimension, field) case."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []

    for d, q in cases:

        def block(d=d, q=q) -> str:
            mats = gl_elements(d, q)
            assert len(mats) == gl_order(d, q)
            for m in mats:
                result = gl_regular_vector_set(m)
                assert result.spans, f"no spanning set for {m.entries}"
            return f"{len(mats)} matrices, regular vectors span every time"

        lines.append(_checked(f"gl_{d}_{q}", block))

    return SuiteReport("gl", tuple(lines), time.perf_counter() - start)


def suite_affine(
    config: Optional[RunConfig] = None,
    cases: tuple[tuple[int, int], ...] = _LINEAR_CASES,
) -> SuiteReport:
    """Certified regular vectors for every affine map of each small
    (dimension, field) case."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []

    for d, q in cases:

        def block(d=d, q=q) -> str:
            count = 0
            for lin in gl_elements(d, q):
                for tra in iter_product(range(q), repeat=d):
                    affine_witness(AffineMap(lin, tuple(tra)))
                    count += 1
            return f"{count} affine maps certified"

        lines.append(_checked(f"agl_{d}_{q}", block))

    return SuiteReport("affine", tuple(lines), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# diagonal-type actions over Alt(5)


def _alt5_diagonal_data() -> DiagonalGroupData:
    target = alternating_group(5)
    ambient = symmetric_group(5)
    return DiagonalGroupData.build(
        target, AmbientAutomorphisms.build(target, ambient), "alt5"
    )


def suite_diagonal(
    config: Optional[RunConfig] = None,
    samples: int = 10**4,
    realize: bool = True,
) -> SuiteReport:
    """Every element of the one-coordinate diagonal group over Alt(5) has a
    regular cycle; seeded samples cover two coordinates; fixed-point-ratio
    bounds hold per shape class with the involution maximum hit exactly."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []
    data = _alt5_diagonal_data()
    n_amb = len(data.automorphisms.coset_reps)
    induced_seen: set[tuple[int, ...]] = set()

    def full_copies1() -> str:
        action = DiagonalAction(data, 1)
        assert action.size == 60
        count = 0
        for sig in iter_permutations(range(2)):
            sigma = Permutation(tuple(sig))
            for phi in range(n_amb):
                for m0 in range(data.order):
                    elem = DiagonalElement(sigma, phi, (m0,))
                    images = action.induced_images(elem)
                    lens = orbit_lengths(images)
                    order = math.lcm(*lens)
                    assert max(lens) == order, (
                        f"no regular cycle: sigma={render_cycles(sigma)} "
                        f"phi={phi} m={m0}"
                    )
                    induced_seen.add(tuple(int(v) for v in images))
                    count += 1
        assert count == 14400
        return f"all {count} elements have a regular cycle on 60 points"

    lines.append(_checked("full_group_copies1", full_copies1))

    def realized() -> str:
        from .actions import realize_diagonal_group

        group = realize_diagonal_group(data, 1)
        assert group.order == 14400 and group.degree == 60
        assert induced_seen == {g.images for g in group.elements}, (
            "triple parameterization does not match the realized group"
        )
        return "triples biject onto the realized group of order 14400"

    if realize:
        lines.append(_checked("realized_group_copies1", realized))

    def sampled_copies2() -> str:
        action = DiagonalAction(data, 2)
        assert action.size == 3600
        rng = random.Random(config.seed)
        slots = list(range(3))
        for i in range(samples):
            sig = slots[:]
            rng.shuffle(sig)
            elem = DiagonalElement(
                Permutation(tuple(sig)),
                rng.randrange(n_amb),
                (rng.randrange(data.order), rng.randrange(data.order)),
            )
            lens = orbit_lengths(action.induced_images(elem))
            assert max(lens) == math.lcm(*lens), f"sample {i} has no regular cycle"
        return f"{samples} seeded samples on 3600 points all pass"

    lines.append(_checked("sampled_copies2", sampled_copies2))

    def audit1() -> str:
        report = diagonal_fpr_audit(data, 1, min_faithful_degree=5)
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

    lines.append(_checked("fpr_bounds_copies1", audit1))

    def audit2() -> str:
        report = diagonal_fpr_audit(
            data, 2, min_faithful_degree=5, samples=samples, seed=config.seed
        )
        assert not report.exhaustive
        assert report.all_ok, report.lines
        return f"sampled bounds hold over {report.elements_seen} prime-order elements"

    lines.append(_checked("fpr_bounds_copies2", audit2))

    return SuiteReport("diagonal", tuple(lines), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the twisted degree-6 coset action of Sym(6)


def suite_s6_exception(config: Optional[RunConfig] = None) -> SuiteReport:
    """Six-cycles of Sym(6) lose their regular cycle exactly on the cosets
    of the transitive copy of PGL(2,5), where they induce orbit lengths
    1, 2, 3."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []
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

    lines.append(_checked("two_stabilizer_classes", classes))

    def twisted_block() -> str:
        action = CosetsAction(s6, twisted, label="pgl2:5")
        assert action.size == 6
        six_cycles = [g for g in s6.elements if g.cycle_type().parts == (6,)]
        assert len(six_cycles) == 120
        for g in six_cycles:
            lens = sorted(orbit_lengths(action.induced_images(g)))
            assert lens == [1, 2, 3], f"{render_cycles(g)} induced {lens}"
        return "all 120 six-cycles induce orbit lengths [1, 2, 3]: order 6, max orbit 3"

    lines.append(_checked("twisted_cosets_break_six_cycles", twisted_block))

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

    lines.append(_checked("natural_cosets_keep_six_cycles", natural_block))

    return SuiteReport("s6-exception", tuple(lines), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the three overgroups of the degree-10 projective realization


def suite_a6_family(config: Optional[RunConfig] = None) -> SuiteReport:
    """Every element of PGL(2,9), M10, and PGammaL(2,9) keeps a regular
    cycle across their coset actions of degrees 10, 36, and 45."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []
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

        lines.append(_checked(gname, block))

    return SuiteReport("remark-a6", tuple(lines), time.perf_counter() - start)


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

    sym5 = [Permutation(tuple(p)) for p in iter_permutations(range(5))]
    sym6 = [Permutation(tuple(p)) for p in iter_permutations(range(6))]
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
    for p in iter_permutations(range(7)):
        pairs.append((f"sym7:{nat7.name}", nat7, Permutation(tuple(p))))
    if done():
        return pairs

    for n, copies in ((3, 2), (3, 3), (4, 2)):
        action = ProductAction(n, copies)
        base = [Permutation(tuple(p)) for p in iter_permutations(range(n))]
        tops = [Permutation(tuple(p)) for p in iter_permutations(range(copies))]
        for comps in iter_product(base, repeat=copies):
            for top in tops:
                pairs.append(
                    (f"wreath{n}x{copies}", action, WreathElement(comps, top))
                )
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
    for sig in iter_permutations(range(2)):
        sigma = Permutation(tuple(sig))
        for phi in range(len(data.automorphisms.coset_reps)):
            for m0 in range(data.order):
                pairs.append(
                    ("diagonal_alt5", daction, DiagonalElement(sigma, phi, (m0,)))
                )

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
    config: Optional[RunConfig] = None,
    corpus_target: int = 100000,
) -> SuiteReport:
    """Wreath fixed-point-ratio maxima equal the inner maxima, and the
    fixed-set-union decider agrees with brute force over a large mixed
    corpus of (element, action) pairs."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []

    for n, copies, expected in _WREATH_FPR_CASES:

        def block(n=n, copies=copies, expected=expected) -> str:
            value = wreath_fpr_max(symmetric_group(n), symmetric_group(copies))
            assert value == expected, f"maximum {value}, expected {expected}"
            return f"wreath maximum equals the inner maximum {value}"

        lines.append(_checked(f"wreath_fpr_sym{n}_wr_sym{copies}", block))

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

    lines.append(_checked("fix_union_vs_bruteforce_corpus", corpus_block))

    return SuiteReport(
        "lemma-identities", tuple(lines), time.perf_counter() - start
    )


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
    config: Optional[RunConfig] = None,
    full: bool = True,
) -> SuiteReport:
    """All interval-checked inequality sweeps at their acceptance ranges
    (or reduced ranges when full=False)."""
    config = config or RunConfig()
    start = time.perf_counter()
    lines: list[SuiteLine] = []

    def sweep(name: str, fn: Callable[[], object]) -> None:
        def block() -> str:
            report = fn()
            assert report.all_pass, report.failures[:1]
            return f"{len(report.lines)} checks, min gap {report.min_gap:.4g}"

        lines.append(_checked(name, block))

    sweep("divisor_sum_vs_loglog", lambda: bounds_mod.robin_sweep(
        26, 10**6 if full else 10**4))
    sweep("max_order_vs_sqrt_bound", lambda: bounds_mod.massias_sweep(4, 200))
    sweep("factorial_brackets", lambda: bounds_mod.stirling_sweep(
        1, 1000 if full else 200))
    sweep("prime_power_balance", lambda: bounds_mod.technical_sweep(
        3, 200 if full else 60))

    def alpha_beta_block() -> str:
        report = bounds_mod.alpha_beta_scan(47, 10**4 if full else 500)
        assert report.all_pass
        assert report.monotone_within_stretches
        return f"{len(report.rows)} rows, product stays below 1"

    lines.append(_checked("alpha_beta_product", alpha_beta_block))

    def crude_block() -> str:
        for family, param, copies in _CRUDE_PROFILES:
            profile = bounds_mod.group_profile(family, param)
            line = bounds_mod.diagonal_crude_bound(
                profile.min_faithful_degree, profile.omega_aut, copies
            )
            assert line.status == bounds_mod.STATUS_PASS, (family, param, copies)
        return f"{len(_CRUDE_PROFILES)} diagonal profiles stay below 1"

    lines.append(_checked("diagonal_crude", crude_block))

    sweep("e8_order_growth", lambda: bounds_mod.e8_sweep(1024))

    return SuiteReport("bounds-all", tuple(lines), time.perf_counter() - start)


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
    lexicographic order of their parts."""
    kk = min(k, m - k)
    if kk < 1:
        raise ValueError(f"k={k} leaves no room at degree {m}")
    rows = []
    for ct in cycle_types(m):
        decision = kset_decide(ct, kk)
        if not decision.has_regular_cycle:
            rows.append(
                ScanRow(
                    parts=ct.parts,
                    order=ct.order,
                    covering_size=decision.min_cover_s,
                    note=f"needs {decision.min_cover_s} cycles, k={kk}",
                )
            )
    return rows


def scan_partitions(a: int, b: int) -> list[ScanRow]:
    """Cycle types of degree a*b with no regular cycle on (a,b)-partitions,
    decided by brute force on one representative per type."""
    m = a * b
    if a < 2 or b < 2:
        raise ValueError(f"block shape ({a}, {b}) needs a, b >= 2")
    if m > 12:
        raise ValueError(f"degree {m} too large for exhaustive partition scan")
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


SUITES: dict[str, Callable[..., SuiteReport]] = {
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
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](config, **overrides)
