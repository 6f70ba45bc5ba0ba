"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from a seed with the package's public
constructors, then offers:

- ``items``: the closed-loop sequence, one item per timed call;
- ``warmup``: one item of every stream, run untimed before measuring;
- ``run(item)``: the timed call into the package;
- ``check(item, result)``: ``None`` when the output is right, else a message;
- ``run_traced(item, tracer)``: the same call inside spans, plus the inner
  public calls it makes, timed again on the same inputs as sibling spans;
- ``stream(item)``: the label the run's time share is reported under.

Inputs are never filtered by element order or any other property; streams
are merged so that every prefix of ``items`` holds each stream in
proportion to its size, which keeps the mix the same however far a run gets.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from regcycle import bounds as B
from regcycle import cli as regcycle_cli
from regcycle import (
    AffineMap,
    AffineVectorsAction,
    CosetsAction,
    DiagonalAction,
    DiagonalElement,
    DiagonalGroupData,
    KSetsAction,
    NaturalAction,
    PartitionsAction,
    Permutation,
    ProductAction,
    VectorsAction,
    WreathElement,
    affine_witness,
    alternating_group,
    decide,
    decide_bruteforce,
    decide_fix_union,
    gl_regular_vector_set,
    orbit_lengths,
    partition_witness,
    pgl2,
    product_witness,
    sylow_normalizer,
    symmetric_group,
)
from regcycle.gfalgebra import Matrix
from regcycle.groups import AmbientAutomorphisms, gl_elements

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_REFERENCE = Path(__file__).resolve().parent / "cli_reference.json"

# decide()'s default domain cap; k-set actions past 4x this take the
# cycle-type branch.
DEFAULT_DOMAIN_CAP = 10**7


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _random_perm(rng: random.Random, n: int) -> Permutation:
    vals = list(range(n))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


def _all_perms(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(n))]


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def spread_order(length: int, rng: random.Random) -> list[int]:
    """A seeded permutation of range(length) whose every prefix is spread
    evenly over the range (a golden-ratio stride from a random offset)."""
    stride = max(1, round(length * 0.6180339887))
    while math.gcd(stride, length) != 1:
        stride += 1
    offset = rng.randrange(length)
    return [(offset + j * stride) % length for j in range(length)]


def interleave(streams: list[list], rng: random.Random) -> list:
    """Merge streams so that every prefix holds each in proportion to its length."""
    keyed = []
    for k, stream in enumerate(streams):
        u = rng.random()
        n = len(stream)
        keyed.extend(((j + u) / n, k, j) for j in range(n))
    keyed.sort()
    return [streams[k][j] for _, k, j in keyed]


# Operations of a few microseconds are timed on every MICRO_EVERY-th item,
# MICRO_REPS calls to one span, so that the span's own cost is under 1 %.
MICRO_EVERY = 10
MICRO_REPS = 100


def _micro_item(tracer) -> bool:
    return tracer.item % MICRO_EVERY == 0


def _permcore_spans(tracer, g: Permutation) -> None:
    if not _micro_item(tracer):
        return
    order = g.order()
    with tracer.span("permcore.mul", MICRO_REPS):
        for _ in range(MICRO_REPS):
            g * g
    with tracer.span("permcore.order", MICRO_REPS):
        for _ in range(MICRO_REPS):
            g.order()
    with tracer.span("permcore.pow", MICRO_REPS):
        for _ in range(MICRO_REPS):
            g ** (order - 1)
    with tracer.span("permcore.cycle_type", MICRO_REPS):
        for _ in range(MICRO_REPS):
            g.cycle_type()


class Workload:
    name: str
    tail_percentile: float
    items: list
    warmup: list
    # Children's CPU time and peak RSS, for workloads that run subprocesses.
    child_cpu_ns = 0
    child_peak_kb = 0

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> Optional[str]:
        raise NotImplementedError

    def run_traced(self, item, tracer):
        raise NotImplementedError

    def stream(self, item) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# corpus: both deciders on (action, element) pairs


def _family(action) -> str:
    for cls, fam in (
        (AffineVectorsAction, "affine"),
        (VectorsAction, "vectors"),
        (NaturalAction, "natural"),
        (KSetsAction, "ksets"),
        (PartitionsAction, "partitions"),
        (ProductAction, "product"),
        (CosetsAction, "cosets"),
        (DiagonalAction, "diagonal"),
    ):
        if isinstance(action, cls):
            return fam
    raise TypeError(f"unknown action {action!r}")


def alt5_diagonal_data(tracer=None) -> DiagonalGroupData:
    with _span(tracer, "groups.closure.alt5"):
        target = alternating_group(5)
    with _span(tracer, "groups.closure.sym5"):
        ambient = symmetric_group(5)
    if tracer is not None:
        tracer.add("groups.closure.alt5.elements", target.order)
        tracer.add("groups.closure.sym5.elements", ambient.order)
    return DiagonalGroupData.build(target, AmbientAutomorphisms.build(target, ambient), "alt5")


def _random_diagonal2(rng: random.Random, n_amb: int, order: int) -> DiagonalElement:
    slots = [0, 1, 2]
    rng.shuffle(slots)
    return DiagonalElement(
        Permutation(tuple(slots)), rng.randrange(n_amb), (rng.randrange(order), rng.randrange(order))
    )


class Corpus(Workload):
    """Mirrors the lemma-identities corpus: every element of the small
    exhaustive blocks, then a seeded random fill on the suite's round-robin
    schedule up to its LEMMA_CORPUS pairs. Beside it runs a stream of
    DIAGONAL_SAMPLES 3600-point diagonal samples, drawn as the diagonal
    suite draws them, so the diagonal share is the two suites' own ratio."""

    name = "corpus"
    # p99 is the upper end of the 3600-point diagonal samples; p99.9 is
    # decided by a few stray slow items, and spread 0.22 over five seeds.
    tail_percentile = 99.0
    LEMMA_CORPUS = 100_000  # suite_identity_checks(corpus_target=...)
    DIAGONAL_SAMPLES = 10**4  # suite_diagonal(samples=...)

    def __init__(self, seed: int, tracer=None):
        rng = random.Random(seed)
        blocks: list[list] = []
        sym5, sym6 = _all_perms(5), _all_perms(6)
        for elements, actions in (
            (sym5, (NaturalAction(5), KSetsAction(5, 2))),
            (sym6, (NaturalAction(6), KSetsAction(6, 2), KSetsAction(6, 3),
                    PartitionsAction(2, 3), PartitionsAction(3, 2))),
        ):
            for action in actions:
                blocks.append([(action, g) for g in elements])
        blocks.append([(NaturalAction(7), g) for g in _all_perms(7)])
        for n, copies in ((3, 2), (3, 3), (4, 2)):
            action = ProductAction(n, copies)
            base, tops = _all_perms(n), _all_perms(copies)
            blocks.append([
                (action, WreathElement(comps, top))
                for comps in itertools.product(base, repeat=copies)
                for top in tops
            ])
        gl = {}
        for d, q in ((2, 2), (2, 3), (3, 2)):
            with _span(tracer, "gfalgebra.gl_elements"):
                gl[d, q] = gl_elements(d, q)
            action = VectorsAction(d, q)
            blocks.append([(action, m) for m in gl[d, q]])
        aff = AffineVectorsAction(2, 3)
        blocks.append([
            (aff, AffineMap(lin, tra)) for lin in gl[2, 3] for tra in itertools.product(range(3), repeat=2)
        ])
        with _span(tracer, "groups.closure.sym6"):
            s6 = symmetric_group(6)
        with _span(tracer, "groups.closure.pgl2_5"):
            p5 = pgl2(5)
        with _span(tracer, "groups.closure.pgl2_9"):
            p9 = pgl2(9)
        if tracer is not None:
            for g, group in (("sym6", s6), ("pgl2_5", p5), ("pgl2_9", p9)):
                tracer.add(f"groups.closure.{g}.elements", group.order)
        coset6 = CosetsAction(s6, p5, label="pgl2:5")
        blocks.append([(coset6, g) for g in s6.elements])
        coset36 = CosetsAction(p9, sylow_normalizer(p9, 5), label="pgl2_9:36")
        blocks.append([(coset36, g) for g in p9.elements])
        data = alt5_diagonal_data(tracer)
        n_amb = len(data.automorphisms.coset_reps)
        diag1 = DiagonalAction(data, 1)
        blocks.append([
            (diag1, DiagonalElement(Permutation(sig), phi, (m0,)))
            for sig in itertools.permutations(range(2))
            for phi in range(n_amb)
            for m0 in range(data.order)
        ])
        exhaustive = sum(len(b) for b in blocks)
        for block in blocks:
            rng.shuffle(block)

        diag2 = DiagonalAction(data, 2)
        schedule = (
            [(9, a) for a in (NaturalAction(9), KSetsAction(9, 2), KSetsAction(9, 3), KSetsAction(9, 4))] * 2
            + [(9, PartitionsAction(3, 3))]
            + [(10, a) for a in (KSetsAction(10, 2), KSetsAction(10, 3))] * 2
            + [(10, PartitionsAction(5, 2))]
            + [(12, a) for a in (NaturalAction(12), KSetsAction(12, 2))] * 2
            + [(16, NaturalAction(16))] * 4
        )
        fill = []
        for i in range(self.LEMMA_CORPUS - exhaustive):
            n, action = schedule[i % len(schedule)]
            fill.append((action, _random_perm(rng, n)))
        diagonal = [(diag2, _random_diagonal2(rng, n_amb, data.order)) for _ in range(self.DIAGONAL_SAMPLES)]
        streams = blocks + [fill, diagonal]
        self.warmup = [s[0] for s in streams]
        self.items = interleave(streams, rng)

    def run(self, item):
        action, g = item
        return decide_bruteforce(action, g), decide_fix_union(action, g)

    def check(self, item, result) -> Optional[str]:
        bf, fu = result
        for field in ("has_regular_cycle", "induced_order", "group_order_of_g"):
            if getattr(bf, field) != getattr(fu, field):
                return (
                    f"{item[0].name} {bf.element_text}: {field} bruteforce "
                    f"{getattr(bf, field)} vs fix_union {getattr(fu, field)}"
                )
        return None

    def run_traced(self, item, tracer):
        action, g = item
        with tracer.span("regular.decide_bruteforce"):
            bf = decide_bruteforce(action, g)
        with tracer.span("regular.decide_fix_union"):
            fu = decide_fix_union(action, g)
        fam = _family(action)
        with tracer.span(f"actions.induced_images.{fam}"):
            images = action.induced_images(g)
        tracer.add(f"actions.induced_images.{fam}.points", len(images))
        with tracer.span("actions.orbit_lengths"):
            orbit_lengths(images)
        tracer.add("actions.orbit_lengths.points", len(images))
        if isinstance(g, Permutation):
            _permcore_spans(tracer, g)
        return bf, fu

    def stream(self, item) -> str:
        action = item[0]
        return action.name if isinstance(action, DiagonalAction) else _family(action)


# ---------------------------------------------------------------------------
# witness: constructive certified witnesses, never building the domain

PARTITION_SHAPES = ((2, 3), (3, 2), (3, 3), (2, 5), (4, 3), (3, 4), (5, 4), (2, 8), (3, 10))
KSET_ACTIONS = ((40, 8), (32, 10))
WREATHS = ((3, 3), (4, 3), (4, 4))
LINEAR = ((2, 5), (2, 7), (2, 9), (3, 3))
# A matrix order takes tens of microseconds, so fewer calls make a batch.
MATRIX_ORDER_REPS = 10


def affine_power(f: AffineMap, e: int) -> AffineMap:
    """f composed with itself e times, by square and multiply."""
    d = f.dimension
    acc = AffineMap(Matrix.identity(f.field, d), (0,) * d)
    base = f
    while e:
        if e & 1:
            acc = acc.compose(base)
        base = base.compose(base)
        e >>= 1
    return acc


def kset_has_regular_orbit(lengths: list[int], k: int) -> bool:
    """Whether some k-set of a permutation with these cycle lengths (fixed
    points included) has an orbit as long as the permutation's order.

    A k-set S meets each cycle C in m_C points. The rotations of C that
    keep S's part in C form the multiples of some e_C dividing len(C):
    e_C = 1 when m_C is 0 or len(C), and e_C may be len(C) (take m_C
    consecutive points) otherwise. S's orbit is regular exactly when
    lcm(e_C) is the order. So one exists exactly when some set P of cycles
    met in part has lcm(len) equal to the order, and cycles taken whole
    add up to a size s with |P| <= k - s <= sum(len(C) - 1 for C in P).
    Every P is tried; s runs over the subset sums of the other cycles.
    """
    order = math.lcm(*lengths)
    moved = [i for i, v in enumerate(lengths) if v > 1]
    for r in range(len(moved) + 1):
        for part in itertools.combinations(moved, r):
            if math.lcm(*(lengths[i] for i in part)) != order:
                continue
            lo = max(0, k - sum(lengths[i] - 1 for i in part))
            hi = k - r
            if hi < lo:
                continue
            sums = 1  # bit s set: the whole cycles outside P can add up to s
            for i, v in enumerate(lengths):
                if i not in part:
                    sums |= sums << v
            if (sums >> lo) & ((1 << (hi - lo + 1)) - 1):
                return True
    return False


class Witness(Workload):
    """Seeded uniform elements of every case: partition shapes (2x2 is left
    out, the documented exception), k-set actions past the cycle-type cap,
    wreath products, and GL/AGL(d, q).

    Each of the five constructors gets PER_CONSTRUCTOR items, split evenly
    over its cases, so each weighs the same in the item mix."""

    name = "witness"
    # p99.9 has fifteen to twenty samples beyond it in a 20-26 s run, and spread
    # twice as much from seed to seed as p99.
    tail_percentile = 99.0
    PER_CONSTRUCTOR = 6300

    def __init__(self, seed: int, tracer=None):
        rng = random.Random(seed)
        share = self.PER_CONSTRUCTOR
        streams: list[list] = []
        count = share // len(PARTITION_SHAPES)
        for a, b in PARTITION_SHAPES:
            streams.append([("partition", (a, b), _random_perm(rng, a * b)) for _ in range(count)])
        count = share // len(KSET_ACTIONS)
        for n, k in KSET_ACTIONS:
            action = KSetsAction(n, k)
            if action.size <= 4 * DEFAULT_DOMAIN_CAP:
                raise ValueError(f"{action.name} would not take the cycle-type branch")
            streams.append([("kset", action, _random_perm(rng, n)) for _ in range(count)])
        count = share // len(WREATHS)
        for c, copies in WREATHS:
            streams.append([
                ("product", (c, copies), ([_random_perm(rng, c) for _ in range(copies)], _random_perm(rng, copies)))
                for _ in range(count)
            ])
        count = share // len(LINEAR)
        for d, q in LINEAR:
            with _span(tracer, "gfalgebra.gl_elements"):
                mats = gl_elements(d, q)
            streams.append([("gl", (d, q), rng.choice(mats)) for _ in range(count)])
            streams.append([
                ("affine", (d, q), AffineMap(rng.choice(mats), tuple(rng.randrange(q) for _ in range(d))))
                for _ in range(count)
            ])
        self.negatives = 0
        self.warmup = [s[0] for s in streams]
        self.items = interleave(streams, rng)

    def run(self, item):
        kind, param, g = item
        if kind == "partition":
            return partition_witness(g, *param)
        if kind == "kset":
            return decide(param, g)
        if kind == "product":
            comps, top = g
            return product_witness([(h, None) for h in comps], top)
        if kind == "gl":
            return gl_regular_vector_set(g)
        return affine_witness(g)

    def check(self, item, result) -> Optional[str]:
        """Confirm independently that no prime-index power g^(o/p) fixes
        the returned witness."""
        kind, param, g = item
        if kind == "partition":
            a, b = param
            blocks = frozenset(frozenset(blk) for blk in result)
            if len(blocks) != b or any(len(blk) != a for blk in blocks) or set().union(*blocks) != set(range(1, a * b + 1)):
                return f"not an {a}x{b} partition: {result}"
            order = g.order()
            for p in prime_divisors(order):
                h = (g ** (order // p)).images
                if frozenset(frozenset(h[v - 1] + 1 for v in blk) for blk in blocks) == blocks:
                    return f"partition fixed by g^({order}/{p})"
            return None
        if kind == "kset":
            if result.method != "kset_combinatorial":
                return f"{param.name}: method {result.method}"
            expected = kset_has_regular_orbit([len(c) for c in g.cycles(include_fixed=True)], param.k)
            if result.has_regular_cycle != expected:
                return f"{param.name} {g.cycles()}: verdict {result.has_regular_cycle}, expected {expected}"
            if not result.has_regular_cycle:
                self.negatives += 1
                return None if result.witness is None else "negative verdict with a witness"
            chosen = set(result.witness)
            if len(chosen) != param.k or not chosen <= set(range(1, param.degree + 1)):
                return f"not a {param.k}-set: {result.witness}"
            order = g.order()
            for p in prime_divisors(order):
                h = (g ** (order // p)).images
                if {h[v - 1] + 1 for v in chosen} == chosen:
                    return f"k-set fixed by g^({order}/{p})"
            return None
        if kind == "product":
            comps, top = g
            w = WreathElement(comps, top)
            action = ProductAction(*param)
            idx = action.index(result)
            order = w.order()
            for p in prime_divisors(order):
                if action.apply(w ** (order // p), idx) == idx:
                    return f"tuple fixed by g^({order}/{p})"
            return None
        if kind == "gl":
            if not result.spans:
                return "regular vectors do not span"
            order = g.order()
            for p in prime_divisors(order):
                h = g ** (order // p)
                for v in result.regular_vectors:
                    if h.vec_mul(v) == tuple(v):
                        return f"vector {v} fixed by m^({order}/{p})"
            return None
        order = g.order()
        for p in prime_divisors(order):
            if affine_power(g, order // p).apply(result) == tuple(result):
                return f"vector fixed by f^({order}/{p})"
        return None

    _SPANS = {
        "partition": "regular.partition_witness",
        "kset": "regular.decide.kset_combinatorial",
        "product": "regular.product_witness",
        "gl": "regular.gl_regular_vector_set",
        "affine": "regular.affine_witness",
    }

    def run_traced(self, item, tracer):
        kind, param, g = item
        with tracer.span(self._SPANS[kind]):
            result = self.run(item)
        if kind in ("partition", "kset"):
            _permcore_spans(tracer, g)
            witnessed = kind == "partition" or result.has_regular_cycle
            order = g.order()
        elif kind == "product":
            witnessed, order = True, WreathElement(*g).order()
        elif kind == "gl":
            d, q = param
            order = g.order()
            if _micro_item(tracer):
                with tracer.span("gfalgebra.matrix_order", MATRIX_ORDER_REPS):
                    for _ in range(MATRIX_ORDER_REPS):
                        g.order()
            with tracer.span("actions.induced_images.vectors"):
                images = VectorsAction(d, q).induced_images(g)
            tracer.add("actions.induced_images.vectors.points", len(images))
            witnessed = bool(result.regular_vectors)
        else:
            d, q = param
            if _micro_item(tracer):
                with tracer.span("gfalgebra.matrix_order", MATRIX_ORDER_REPS):
                    for _ in range(MATRIX_ORDER_REPS):
                        g.linear.order()
                with tracer.span("gfalgebra.affine_apply", MICRO_REPS):
                    for _ in range(MICRO_REPS):
                        g.apply(result)
            with tracer.span("actions.induced_images.vectors"):
                images = VectorsAction(d + 1, q).induced_images(g.embed())
            tracer.add("actions.induced_images.vectors.points", len(images))
            witnessed, order = True, g.order()
        if witnessed:
            tracer.add("regular.certified_steps", order)
        return result

    def stream(self, item) -> str:
        return item[0]


# ---------------------------------------------------------------------------
# bounds: the bounds-all sweeps, one call on one degree per item

CRUDE_PROFILES = (
    ("alt", 5, 1), ("alt", 5, 2), ("alt", 6, 1), ("alt", 7, 1), ("alt", 8, 1),
    ("psl2", 7, 1), ("psl2", 8, 1), ("psl2", 9, 1), ("psl2", 11, 1), ("psl2", 13, 1),
    ("psl2", 13, 2),
)
ROBIN_BLOCK = 10**4
ROBIN_HI = 10**6
ALPHA_BETA = (47, 10**4)
# Alpha-beta rows run in blocks of consecutive degrees, so the monotone flag
# can be checked between neighbours while the blocks spread over the range.
ALPHA_BETA_BLOCK = 10
E8_HI = 1024
TECHNICAL_PRIMES = (2, 3, 5, 7, 11, 13)  # technical_sweep's default primes


def technical_points(m: int) -> int:
    """Grid points (alpha, p, k) that technical_sweep(m, m) evaluates."""
    total = 0
    for alpha in B.technical_inequality_alphas():
        for p in TECHNICAL_PRIMES:
            k_min = max(1, math.ceil((1 - alpha) * m / p))
            total += max(0, m // p - k_min + 1)
    return total


def _is_prime_power(q: int) -> bool:
    return len(prime_divisors(q)) == 1


class Bounds(Workload):
    """Every degree of every bounds-all sweep, one stream per sweep. Each
    stream visits its degrees in a seeded golden-ratio order; the alpha-beta
    rows are visited so by blocks of ALPHA_BETA_BLOCK consecutive rows."""

    name = "bounds"
    tail_percentile = 99.0

    def __init__(self, seed: int, tracer=None):
        rng = random.Random(seed)

        def spread(kind, params):
            params = list(params)
            return [(kind, params[i]) for i in spread_order(len(params), rng)]

        robin = [
            (max(B.ROBIN_MIN_N, lo), ROBIN_HI if lo + ROBIN_BLOCK > ROBIN_HI else lo + ROBIN_BLOCK - 1)
            for lo in range(0, ROBIN_HI, ROBIN_BLOCK)
        ]
        profiles = [(B.group_profile(f, p), copies) for f, p, copies in CRUDE_PROFILES]
        rows = range(ALPHA_BETA[0], ALPHA_BETA[1] + 1)
        row_blocks = [rows[i:i + ALPHA_BETA_BLOCK] for i in range(0, len(rows), ALPHA_BETA_BLOCK)]
        streams = [
            spread("robin", robin),
            spread("massias", range(4, 201)),
            spread("stirling", range(1, 1001)),
            spread("technical", range(3, 201)),
            [("alpha_beta", m) for b in spread_order(len(row_blocks), rng) for m in row_blocks[b]],
            spread("crude", profiles),
            [("e8", E8_HI)],
        ]
        self._technical_points: dict[int, int] = {}
        self._prev_row = None
        self.warmup = [s[0] for s in streams]
        self.items = interleave(streams, rng)

    def run(self, item):
        kind, p = item
        if kind == "robin":
            return B.robin_sweep(*p)
        if kind == "massias":
            return B.massias_check(p)
        if kind == "stirling":
            return B.stirling_check(p)
        if kind == "technical":
            return B.technical_sweep(p, p)
        if kind == "alpha_beta":
            return B.alpha_beta_row(p)
        if kind == "crude":
            profile, copies = p
            return B.diagonal_crude_bound(profile.min_faithful_degree, profile.omega_aut, copies)
        return B.e8_sweep(p)

    def check(self, item, result) -> Optional[str]:
        kind, p = item
        lines = getattr(result, "lines", (result,))
        if not lines:
            return f"{kind} {p}: no lines"
        bad = [line for line in lines if line.status != B.STATUS_PASS]
        if bad:
            return f"{kind} {p}: status {bad[0].status}"
        if kind == "alpha_beta":
            # The scan's monotone flag, re-checked between consecutive rows:
            # the upper end of log(alpha*beta) at m lies below the lower end
            # at m - 1, within each stretch of constant bit length from 100.
            prev, self._prev_row = self._prev_row, result
            if prev is not None and prev.m == p - 1 and p >= 100 and p.bit_length() == prev.m.bit_length():
                if not result.product_log_high < math.log(prev.alpha_low) + prev.log_beta_low:
                    return f"alpha_beta {p}: not below row {p - 1}"
        return None

    def _points(self, kind, p) -> int:
        if kind == "robin":
            return p[1] - p[0] + 1
        if kind == "technical":
            if p not in self._technical_points:
                self._technical_points[p] = technical_points(p)
            return self._technical_points[p]
        if kind == "e8":
            return sum(1 for q in range(2, p + 1) if _is_prime_power(q))
        return 1

    def run_traced(self, item, tracer):
        kind, p = item
        with tracer.span(f"bounds.{kind}"):
            result = self.run(item)
        tracer.add(f"bounds.{kind}.points", self._points(kind, p))
        return result

    def stream(self, item) -> str:
        return item[0]


# ---------------------------------------------------------------------------
# cli: cold-start `python -m regcycle decide` subprocesses

EXAMPLES = (
    ("--group", "sym:10", "--element", "(1 2)(3 4 5)(6 7 8 9 10)", "--action", "ksets:2"),
    ("--group", "sym:6", "--element", "(1 2 3 4 5 6)", "--action", "cosets:pgl2:5"),
    ("--group", "agl:2,3", "--element", "1,1,0,1+2,0", "--action", "affine"),
    ("--group", "wreath:3,2", "--element", "(1 2 3)|(1 2)@(1 2)", "--action", "product"),
    ("--group", "diag:5,1", "--element", "sigma=(1 2);phi=2;m=7", "--action", "diagonal"),
)
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def decide_argv(example: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "regcycle", "decide", *example]


class Cli(Workload):
    """The README's five decide examples, in a seeded order that visits
    each once per round."""

    name = "cli"
    tail_percentile = 75.0
    ROUNDS = 200

    def __init__(self, seed: int, tracer=None):
        rng = random.Random(seed)
        config = regcycle_cli.RunConfig()
        for example in EXAMPLES:
            args = dict(zip(example[::2], example[1::2]))
            ctx = regcycle_cli.parse_group(args["--group"], config)
            g = regcycle_cli.parse_element(ctx, args["--element"])
            if not regcycle_cli.contains(ctx, g):
                raise ValueError(f"{args['--element']} is not in {args['--group']}")
            regcycle_cli.parse_action(args["--action"], ctx, config)
        if tracer is not None:
            # The groups the examples close at start-up, built again on the
            # same inputs so each closure has its own span.
            for name, build in (("sym6", lambda: symmetric_group(6)), ("pgl2_5", lambda: pgl2(5))):
                with tracer.span(f"groups.closure.{name}"):
                    group = build()
                tracer.add(f"groups.closure.{name}.elements", group.order)
            alt5_diagonal_data(tracer)
        with open(CLI_REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        self.reference = [reference[" ".join(ex)].encode("utf-8") for ex in EXAMPLES]
        self.env = child_env()
        order = list(range(len(EXAMPLES)))
        self.items = []
        for _ in range(self.ROUNDS):
            rng.shuffle(order)
            self.items.extend(order)
        self.warmup = list(range(len(EXAMPLES)))

    def _spawn(self, argv: list[str]) -> tuple[int, bytes]:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu_ns += int((usage.ru_utime + usage.ru_stime) * 1e9)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out

    def run(self, item):
        return self._spawn(decide_argv(EXAMPLES[item]))

    def check(self, item, result) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"example {item}: exit {code}"
        if out != self.reference[item]:
            return f"example {item}: stdout differs from the recorded reference"
        return None

    def run_traced(self, item, tracer):
        with tracer.span("cli.interpreter"):
            self._spawn([sys.executable, "-c", "pass"])
        with tracer.span("cli.import"):
            self._spawn([sys.executable, "-c", "import regcycle.cli"])
        with tracer.span("cli.decide"):
            return self.run(item)

    def stream(self, item) -> str:
        return EXAMPLES[item][1]


WORKLOADS = {w.name: w for w in (Corpus, Witness, Bounds, Cli)}
