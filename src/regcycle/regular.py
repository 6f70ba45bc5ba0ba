"""Deciders and certified witness constructions for regular cycles.

An orbit of a point under an element g is a regular cycle when its length
equals the abstract order of g. Everything here either decides whether such
an orbit exists for a given induced action, or constructs one explicitly and
certifies it with `certify_regular`: a point lies on a regular cycle exactly
when no power g^(|g|/p), with p a prime dividing |g|, fixes it, and those
powers are applied from shared squarings of g, so the check never walks the
orbit. The certificate checks the witness once, with the action's
`internal`, and moves it in that internal form. Certification failures,
a witness that is not a point among them, raise AssertionError: a
construction is never allowed to return silently wrong.

`decide` runs the first row of one ordered table, DECIDE_TABLE, that applies
to the action and element: the two enumerating deciders while the action is
small enough to list, then the cycle-type rule on k-sets and the constructive
witness on uniform partitions, which are bounded at any size. An action that
no row answers raises DomainCapError.

The k-set row, `_kset_combinatorial`, is the one place a regular k-set is
built. It takes g's cycle list once, decides s <= min(k, m - k) once with
`kset_decide` (s the fewest cycles whose lengths have lcm |g|), builds the
witness on that smaller side from the same list, complements it when
k > m/2, and certifies the k-set it returns. `kset_witness` is a thin entry
over that row.

A verdict names g by `str(g)`: every element type prints the form that
the CLI's `parse_element` reads back. Point values in results are external
(1-based or field codes, matching the owning action); all internal work is
0-based.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from itertools import product as iter_product
from typing import Iterator, Optional, Sequence

import numpy as np

from .actions import (
    Action,
    AffineVectorsAction,
    DiagonalAction,
    DiagonalElement,
    KSetsAction,
    PartitionsAction,
    ProductAction,
    VectorsAction,
    WreathElement,
    canonical_blocks,
    fixed_count,
    orbit_lengths,
    power_images,
)
from .gfalgebra import AffineMap, Matrix, matrix_rank
from .groups import GeneratedGroup, all_permutations
from .permcore import (
    CycleType,
    Permutation,
    cycle_types,
    factorize,
    nk_threshold,
    orbit_labels,
    orbit_length_array,
)

METHODS = (
    "bruteforce",
    "fix_union",
    "kset_combinatorial",
    "constructive_proof",
)

CASE_CONSECUTIVE_RUNS = "consecutive_runs"
CASE_PADDED_NEAR_FULL = "padded_near_full"
CASE_IMPOSSIBLE = "impossible"


class PartitionCaseError(ValueError):
    """Raised for block shape (2, 2), which admits no general construction."""


class DomainCapError(RuntimeError):
    """An action, or a batch of work priced in points, passes the cap."""

    def __init__(self, size: int, cap: int, subject: str = "action"):
        super().__init__(f"{subject} has {size} points, cap is {cap}")
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class Verdict:
    """Outcome of a regular-cycle decision for one element and action."""

    group_order_of_g: int
    induced_order: int
    has_regular_cycle: bool
    witness: object
    method: str
    certified: bool
    flags: tuple[str, ...] = ()
    element_text: str = ""
    action_name: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.induced_order > self.group_order_of_g:
            raise ValueError("induced order cannot exceed the element order")

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "element": self.element_text,
            "order": self.group_order_of_g,
            "induced_order": self.induced_order,
            "action": self.action_name,
            "verdict": self.has_regular_cycle,
            "witness": self.witness,
            "method": self.method,
            "certified": self.certified,
            "flags": list(self.flags),
        }


def _verdict(
    action: Action,
    g,
    method: str,
    order: int,
    induced: int,
    regular: bool,
    witness=None,
    flags: tuple[str, ...] = (),
) -> Verdict:
    """The one way a decider builds its certified Verdict for g on action."""
    return Verdict(
        group_order_of_g=order,
        induced_order=induced,
        has_regular_cycle=regular,
        witness=witness,
        method=method,
        certified=True,
        flags=flags,
        element_text=str(g),
        action_name=action.name,
    )


def certify_regular(action: Action, g, pt, order: int) -> None:
    """Assert that the external point pt lies on a g-cycle of length `order`.

    pt may be in any form that action.internal accepts; anything that is
    not a point of the action raises AssertionError. g and pt are checked
    once, and the point is then moved in the action's internal form. Its
    orbit length divides `order` when g^order fixes it, and equals `order`
    when, besides, no g^(order/p) with p a prime dividing `order` fixes it.
    The powers act through the shared squarings g, g^2, g^4, ..., so the
    check costs bit_length(order) - 1 compositions and popcount(e) moves
    per exponent e checked, never a walk of the orbit.
    """
    action._check(g)
    # Raised explicitly, so that the checks also run under python -O.
    try:
        x = action.internal(pt)
    except ValueError as exc:
        raise AssertionError(f"{pt} is not a point of {action.name}: {exc}") from exc
    squares = [g]
    for _ in range(order.bit_length() - 1):
        squares.append(action.compose(squares[-1], squares[-1]))

    def image(e: int):
        out = x
        for bit, sq in enumerate(squares):
            if e >> bit & 1:
                out = action.move(sq, out)
        return out

    if image(order) != x:
        raise AssertionError(f"g^{order} moves the point {pt}")
    for p in factorize(order).primes:
        if image(order // p) == x:
            raise AssertionError(f"g^({order}/{p}) fixes the point {pt}")


def decide_bruteforce(action: Action, g) -> Verdict:
    """Read the orbit length of every point; report the first regular one.

    The witness, when present, is the smallest-index point (in the action's
    point order) whose orbit is regular. Always certified.
    """
    order = action.element_order(g)
    # The size of each orbit, at its least point and nowhere else. So the
    # least point with size `order` is the least point on a regular orbit.
    sizes = np.bincount(orbit_labels(action.induced_images(g)), minlength=action.size)
    induced = math.lcm(*set(sizes[sizes > 0].tolist()))
    regular = (sizes == order).nonzero()[0]
    witness_idx = int(regular[0]) if regular.size else None
    flags = ("unfaithful",) if induced < order else ()
    witness = action.point_json(witness_idx) if witness_idx is not None else None
    return _verdict(
        action, g, "bruteforce", order, induced, witness_idx is not None, witness, flags
    )


def decide_fix_union(action: Action, g) -> Verdict:
    """Decide via the union of fixed-point sets of prime-index powers.

    A point lies on a regular cycle iff it is fixed by no power g^(|g|/p)
    with p prime dividing |g|. The first uncovered point (in action point
    order) is a certified witness. Identity elements are trivially regular
    on every point.

    No orbit of the action is walked. The induced order is |g| reduced
    prime by prime: when g^(|g|/p) fixes every point, p is divided out
    while g^(induced/p) still fixes every point. A g^(|g|/p) that moves a
    point leaves p alone, since then no smaller power g^(induced/p) fixes
    every point either.
    """
    order = action.element_order(g)
    if order == 1:
        return _verdict(
            action, g, "fix_union", 1, 1, True, action.point_json(0), ("identity",)
        )
    images = np.asarray(action.induced_images(g), dtype=np.int64)
    n = action.size
    covered = np.zeros(n, dtype=bool)
    idx = np.arange(n, dtype=np.int64)
    induced = order
    for p in factorize(order).primes:
        fixed = power_images(images, order // p) == idx
        covered |= fixed
        if fixed.all():
            induced //= p
            while induced % p == 0 and (power_images(images, induced // p) == idx).all():
                induced //= p
    flags: tuple[str, ...] = ()
    if induced < order:
        flags = ("unfaithful",)
    uncovered = np.flatnonzero(~covered)
    if uncovered.size == 0:
        return _verdict(action, g, "fix_union", order, induced, False, None, flags)
    witness_idx = int(uncovered[0])
    certify_regular(action, g, action.point(witness_idx), order)
    witness = action.point_json(witness_idx)
    return _verdict(action, g, "fix_union", order, induced, True, witness, flags)


# ---------------------------------------------------------------------------
# k-sets: combinatorial decision and constructive witness


@lru_cache(maxsize=None)
def min_cover(parts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Smallest set of cycle lengths whose lcm equals lcm(parts).

    Returns (s, lengths ascending). Ties are broken by preferring fewer
    cycles, then the lexicographically smallest ascending length tuple.
    Exact subset-sweep via a bitmask DP over the maximal prime powers of
    the lcm; a length contributes a prime power p^e only when its p-adic
    valuation is exactly e.
    """
    order = 1
    for v in parts:
        order = order * v // math.gcd(order, v)
    if order == 1:
        return 0, ()
    pps = [p**e for p, e in factorize(order).prime_powers]
    t = len(pps)
    full = (1 << t) - 1

    def mask_of(length: int) -> int:
        m = 0
        for i, pe in enumerate(pps):
            if length % pe == 0:
                m |= 1 << i
        return m

    best: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
    for length in sorted(set(parts)):
        m = mask_of(length)
        if m == 0:
            continue
        for state, (cnt, chosen) in sorted(best.items()):
            new_state = state | m
            if new_state == state:
                continue
            cand = (cnt + 1, tuple(sorted(chosen + (length,))))
            cur = best.get(new_state)
            if cur is None or cand < cur:
                best[new_state] = cand
    s, lengths = best[full]
    return s, lengths


def _first_cycles(
    cycles: Sequence[tuple[int, ...]], lengths: Sequence[int]
) -> list[tuple[int, ...]]:
    """The first cycle of each length in `lengths` (distinct, as min_cover
    returns them), in the order of `cycles`."""
    return [next(cyc for cyc in cycles if len(cyc) == length) for length in lengths]


@dataclass(frozen=True)
class KSetDecision:
    """Cycle-type-level decision for the action on k-element subsets."""

    cycle_type: CycleType
    k: int
    min_cover_s: int
    chosen_lengths: tuple[int, ...]
    case_tag: str
    has_regular_cycle: bool

    def __post_init__(self):
        lcm_all = self.cycle_type.order
        lcm_chosen = 1
        for v in self.chosen_lengths:
            lcm_chosen = lcm_chosen * v // math.gcd(lcm_chosen, v)
        if lcm_chosen != lcm_all:
            raise ValueError("chosen cycles do not realize the element order")


def kset_decide(ct: CycleType, k: int) -> KSetDecision:
    """Decide regularity on k-sets from the cycle type alone.

    Valid for 1 <= k <= m/2; larger k is equivalent to m - k by
    complementation and must be mapped by the caller. Regularity holds
    exactly when the minimal lcm-cover size s satisfies s <= k.
    """
    m = ct.degree
    if k < 1 or 2 * k > m:
        raise ValueError(f"k={k} out of range for degree {m} (need 1 <= k <= m/2)")
    s, lengths = min_cover(ct.parts)
    regular = s <= k
    if not regular:
        tag = CASE_IMPOSSIBLE
    else:
        ell = sum(lengths)
        tag = CASE_CONSECUTIVE_RUNS if k <= ell - s else CASE_PADDED_NEAR_FULL
    return KSetDecision(
        cycle_type=ct,
        k=k,
        min_cover_s=s,
        chosen_lengths=lengths,
        case_tag=tag,
        has_regular_cycle=regular,
    )


def _kset_combinatorial(action: KSetsAction, g: Permutation) -> Verdict:
    """The k-set row of `decide`, and the one construction of a regular k-set.

    g's cycle list is taken once, and the cycle-type rule is decided once,
    on the smaller side j = min(k, m - k). The witness is built there from
    the minimal lcm-cover cycles, the first cycle of each chosen length in
    the list. When j fits strictly inside the chosen cycles, it is a union
    of consecutive runs (in cycle order) of sizes x_i with 1 <= x_i < len_i;
    a run of length x_i < len_i cannot map into itself under any nontrivial
    power, so the set's period is the lcm of the chosen lengths. Otherwise
    it takes all but one point of each chosen cycle plus the smallest points
    off their supports. When j < k the j-set is complemented, a
    g-equivariant bijection of j-sets onto (m-j)-sets, so orbit lengths
    carry over. The k-set the verdict prints is the one certified.
    """
    action._check(g)
    cycles = g.cycles(include_fixed=True)
    ct = CycleType.of(len(cyc) for cyc in cycles)
    m = action.degree
    j = min(action.k, m - action.k)
    decision = kset_decide(ct, j)
    witness = None
    flags: tuple[str, ...] = ("cycle_type_decision",)
    if decision.has_regular_cycle:
        chosen = _first_cycles(cycles, decision.chosen_lengths)
        s = decision.min_cover_s
        picked: list[int] = []
        if decision.case_tag == CASE_CONSECUTIVE_RUNS:
            rem = j - s
            for cyc in chosen:
                extra = min(rem, len(cyc) - 2)
                picked.extend(cyc[: 1 + extra])
                rem -= extra
        else:
            for cyc in chosen:
                picked.extend(cyc[:-1])
            support = {v for cyc in chosen for v in cyc}
            picked += [v for v in range(m) if v not in support][: j - len(picked)]
        assert len(picked) == j
        if j < action.k:
            inside = set(picked)
            witness = [v + 1 for v in range(m) if v not in inside]
            flags += ("complement_dual",)
        else:
            witness = sorted(v + 1 for v in picked)
        certify_regular(action, g, witness, ct.order)
    return _verdict(
        action, g, "kset_combinatorial", ct.order, ct.order,
        decision.has_regular_cycle, witness, flags,
    )


def kset_witness(g: Permutation, k: int) -> tuple[int, ...]:
    """The certified regular k-set of the `kset_combinatorial` row, 1 <= k < m.

    For k > m/2 it is the complement of the (m-k)-set witness. Raises
    ValueError when no regular k-set exists.
    """
    verdict = _kset_combinatorial(KSetsAction(g.degree, k), g)
    if not verdict.has_regular_cycle:
        raise ValueError(f"no regular cycle on {k}-sets for {verdict.element_text}")
    return tuple(verdict.witness)


@dataclass(frozen=True)
class KSetScanReport:
    """Outcome of a full cycle-type scan for regularity on k-sets."""

    m: int
    k: int
    threshold: int
    types_scanned: int
    failing_types: tuple[CycleType, ...]

    @property
    def all_regular(self) -> bool:
        return not self.failing_types


def ksets_theorem_scan(m: int, k: int) -> KSetScanReport:
    """Scan every cycle type of degree m for regularity on k-sets.

    Requires m >= 2k. Checks the expected threshold law, and raises
    AssertionError when it fails: failures exist iff m is at least the sum
    of the first k+1 primes (the first k+1 prime lengths then need k+1
    cycles to realize the lcm, and any k-set meets one cycle in a full or
    empty slice by pigeonhole).
    """
    if m < 2 * k:
        raise ValueError(f"need m >= 2k (got m={m}, k={k})")
    threshold = nk_threshold(k)
    failing = []
    count = 0
    for ct in cycle_types(m):
        count += 1
        s, _ = min_cover(ct.parts)
        if s > k:
            failing.append(ct)
    report = KSetScanReport(
        m=m,
        k=k,
        threshold=threshold,
        types_scanned=count,
        failing_types=tuple(failing),
    )
    # Raised explicitly, so that the law is also checked under python -O.
    if report.all_regular != (m < threshold):
        raise AssertionError(
            f"threshold law violated at m={m}, k={k}: "
            f"failures={len(failing)}, threshold={threshold}"
        )
    return report


# ---------------------------------------------------------------------------
# Uniform partitions: constructive witness


def _is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).prime_powers == ((n, 1),)


def _fill(blocks: list[list[int]], a: int, n: int) -> list[list[int]]:
    """`blocks`, then the points of 0..n-1 they miss, in ascending chunks of a."""
    used = {v for blk in blocks for v in blk}
    pool = [v for v in range(n) if v not in used]
    return blocks + [pool[i : i + a] for i in range(0, len(pool), a)]


def _partition_case_one_cycle(L: int, a: int, b: int) -> list[list[int]]:
    """Leading blocks (0-based, standardized labels) when one cycle covers
    the lcm.

    The element is standardized so the covering cycle is (0 1 ... L-1) and
    the remaining points L..ab-1 are moved in later cycles, whose lengths
    divide L. L may be prime or composite. For a = L = 2 the first two
    blocks are {0,2},{1,4}: with {0,2},{1,3} a second transposition (2 3)
    would map the partition to itself.
    """
    if a >= L:
        if a == L == 2:
            return [[0, 2], [1, 4]]
        return [list(range(L - 1)) + list(range(L, a + 1))]
    q, r = divmod(L, a)
    if r >= 1:
        return [list(range(i * a, (i + 1) * a)) for i in range(q + 1)]
    if q < b:
        blocks = [list(range(i * a, (i + 1) * a)) for i in range(q - 1)]
        blocks.append(list(range((q - 1) * a, q * a - 1)) + [q * a])
        blocks.append([q * a - 1] + list(range(q * a + 1, (q + 1) * a)))
        return blocks
    # q == b: the cycle is an n-cycle.
    if a == 2:
        # b >= 3 here since (2, 2) is excluded upstream.
        return [[0, 2], [1, 3]]
    first = list(range(1, a - 1)) + [2 * a - 2, 2 * a - 1]
    second = [0] + list(range(a - 1, 2 * a - 2))
    return [first, second]


def _partition_case_runs(
    lengths: Sequence[int], starts: Sequence[int], a: int
) -> list[list[int]]:
    """Leading block when s <= a <= sum(len_i - 1): consecutive runs.

    Run sizes x_i start at 1 and are filled backwards from the last chosen
    cycle, capped at len_i - 1. If the first cycle would be exactly halved
    (its run mapping to its complement under the half-power), one unit is
    moved from the first later cycle with a spare unit.
    """
    s = len(lengths)
    sizes = [1] * s
    rem = a - s
    for i in range(s - 1, -1, -1):
        extra = min(rem, lengths[i] - 1 - sizes[i])
        sizes[i] += extra
        rem -= extra
    assert rem == 0
    if sizes[0] > 1 and lengths[0] == 2 * sizes[0] and lengths[0] != 2:
        donor = next(i for i in range(1, s) if sizes[i] > 1)
        sizes[0] += 1
        sizes[donor] -= 1
        assert sizes[0] <= lengths[0] - 1
    first: list[int] = []
    for st, x in zip(starts, sizes):
        first.extend(range(st, st + x))
    return [first]


def _partition_case_overflow(
    lengths: Sequence[int], starts: Sequence[int], a: int
) -> list[list[int]]:
    """Leading block when a > sum(len_i - 1): near-full cycles plus
    off-support pad (the pad alone for the identity)."""
    ell = sum(lengths)
    first: list[int] = []
    for st, L in zip(starts, lengths):
        first.extend(range(st, st + L - 1))
    pad = a - (ell - len(lengths))
    first.extend(range(ell, ell + pad))
    return [first]


def _partition_case_many_cycles(starts: Sequence[int], a: int) -> list[list[int]]:
    """Leading blocks when a < s: group the chosen cycle minima a at a time.

    With s = aq + r, blocks 1..q take the minima of consecutive groups of a
    chosen cycles; when r > 0 an extra block takes the last r minima plus
    the second-smallest point of each of the first a - r chosen cycles.
    """
    q, r = divmod(len(starts), a)
    blocks = [[starts[i * a + j] for j in range(a)] for i in range(q)]
    if r > 0:
        extra = [starts[q * a + j] for j in range(r)]
        extra += [starts[j] + 1 for j in range(a - r)]
        blocks.append(extra)
    return blocks


def partition_witness(
    g: Permutation, a: int, b: int
) -> tuple[tuple[int, ...], ...]:
    """Certified partition of 1..ab into b blocks of size a with a regular
    g-orbit.

    The element is conjugated to a standard form where the chosen
    lcm-covering cycles (ascending lengths) occupy consecutive ascending
    runs starting at 1; the leading blocks are built there, the remaining
    points fill ascending blocks, and the system is transported back. The
    cost is polynomial in ab, whatever the order of g. Block shape (2, 2)
    is refused: on its three partitions a double transposition acts
    trivially and a 4-cycle has orbits of length at most 2, so neither has
    a regular cycle.
    """
    return _regular_partition(PartitionsAction(a, b), g)[0]


def _regular_partition(
    action: PartitionsAction, g: Permutation
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """`partition_witness` on action, and the order of g from its cycle list."""
    action._check(g)
    a, b = action.block_size, action.block_count
    if (a, b) == (2, 2):
        raise PartitionCaseError(
            "shape (2, 2) has only 3 partitions; elements of order 4 "
            "cannot have a regular cycle there"
        )
    n = a * b
    cycles = g.cycles(include_fixed=True)
    ct = CycleType.of(len(cyc) for cyc in cycles)
    s, lengths = min_cover(ct.parts)
    chosen = _first_cycles(cycles, lengths)
    ordered = chosen + [cyc for cyc in cycles if cyc not in chosen]
    # Standard label i is the point back[i]: cycles become consecutive runs.
    back = [pt for cyc in ordered for pt in cyc]
    starts = list(accumulate(lengths, initial=0))[:-1]
    if s == 1:
        lead = _partition_case_one_cycle(lengths[0], a, b)
    elif a < s:
        lead = _partition_case_many_cycles(starts, a)
    elif a <= sum(lengths) - s:
        lead = _partition_case_runs(lengths, starts, a)
    else:
        lead = _partition_case_overflow(lengths, starts, a)

    witness = canonical_blocks([back[v] + 1 for v in blk] for blk in _fill(lead, a, n))
    certify_regular(action, g, witness, ct.order)
    return witness, ct.order


# ---------------------------------------------------------------------------
# Product action: constructive witness for wreath elements


def product_witness(
    components: Sequence[tuple[Permutation, Optional[int]]],
    top: Permutation,
) -> tuple[int, ...]:
    """Certified regular tuple for a wreath element in its product action.

    Input components pair each base coordinate's permutation with an
    optional regular point (1-based) for that coordinate's cycle product;
    the point is consumed at the minimal position of each top cycle and
    re-verified. When omitted, the first point whose orbit under the cycle
    product is full is used. For a top cycle whose cycle product is the
    identity, one coordinate receives a different point so the tuple still
    detects the rotation.

    The value at each position is obtained by transporting the constant
    tuple along suffix products of the coordinate permutations, matching
    conjugation of the wreath element to its cycle-product normal form.
    """
    perms = [h for h, _ in components]
    hints = [w for _, w in components]
    copies = len(perms)
    if copies == 0:
        raise ValueError("need at least one coordinate")
    base_degree = perms[0].degree
    if base_degree < 2:
        raise ValueError("base domain needs at least 2 points")
    g = WreathElement(tuple(perms), top)
    order = g.order()
    out = [0] * copies
    for cyc, prod in g.cycle_products():
        r = len(cyc)
        prod_order = prod.order()
        hint = hints[cyc[0]]
        delta = 0 if hint is None else hint - 1
        if not 0 <= delta < base_degree:
            raise ValueError(f"invalid inner witness {hint}")
        if prod_order > 1:
            prod_cycles = prod.cycles(include_fixed=True)
            if hint is None:
                delta = next(
                    (c[0] for c in prod_cycles if len(c) == prod_order), None
                )
                if delta is None:
                    raise ValueError(
                        "no regular point for a coordinate-cycle product"
                    )
            else:
                length = next(len(c) for c in prod_cycles if delta in c)
                if length != prod_order:
                    raise ValueError(
                        f"invalid inner witness {hint}: orbit length {length}, "
                        f"cycle product order {prod_order}"
                    )
        # Under an identity cycle product the first coordinate leaves delta,
        # so that the tuple still detects the rotation of the top cycle.
        out[cyc[0]] = int(delta == 0) if prod_order == 1 and r > 1 else delta
        suffix = Permutation.identity(base_degree)
        for j in range(r - 1, 0, -1):
            suffix = perms[cyc[j]] * suffix
            out[cyc[j]] = suffix.inverse().images[delta]
    witness = tuple(v + 1 for v in out)
    certify_regular(ProductAction(base_degree, copies), g, witness, order)
    return witness


# ---------------------------------------------------------------------------
# Linear and affine actions


@dataclass(frozen=True)
class SpanningSet:
    """Regular vectors of a matrix, with a spanning flag for their span."""

    matrix: Matrix
    regular_vectors: tuple[tuple[int, ...], ...]
    spans: bool


def confirmed_order(m: Matrix, order: int) -> int:
    """Return `order` once m ** order is checked to be the identity.

    The linear witnesses read `order` as the lcm of the orbit lengths of
    m's action on all vectors. Each orbit length divides the order of m,
    and the action is faithful, so the lcm divides the order; the power,
    O(log order) products, shows the order divides the lcm. Raises
    ValueError when m is singular and AssertionError when m is invertible
    but m ** order is not the identity. Both are explicit raises, so the
    check also runs under python -O.
    """
    if m ** order != Matrix.identity(m.field, m.rows):
        if not m.is_invertible():
            raise ValueError("matrix is singular")
        raise AssertionError(f"m^{order} is not the identity")
    return order


def _orbit_lengths_and_order(action: VectorsAction, m: Matrix) -> tuple[np.ndarray, int]:
    """Orbit length of each vector under m, and m's order confirmed from them."""
    lengths = orbit_length_array(action.induced_images(m))
    return lengths, confirmed_order(m, math.lcm(*set(lengths.tolist())))


def gl_regular_vector_set(m: Matrix) -> SpanningSet:
    """All vectors on full-length orbits under m, with a span check.

    Vectors are external field-code tuples in action index order. `spans`
    is True when they span the whole row space. The order of m is not
    walked: it is the lcm of the orbit lengths on the vectors, confirmed
    by `confirmed_order`. A singular m raises ValueError.
    """
    d = m.rows
    q = m.field.q
    action = VectorsAction(d, q)
    lengths, order = _orbit_lengths_and_order(action, m)
    # The codec decodes the whole index array at once; vector points are
    # the digits themselves (field codes, offset 0).
    digits = action._decode(np.flatnonzero(lengths == order))
    vectors = tuple(zip(*[column.tolist() for column in digits]))
    spans = bool(vectors) and matrix_rank(m.field, vectors) == d
    return SpanningSet(matrix=m, regular_vectors=vectors, spans=spans)


def affine_witness(f: AffineMap) -> tuple[int, ...]:
    """Certified regular vector for an affine map: the first vector, in
    action index order, on a full-length orbit of f's own action.

    The affine action is faithful, so the order of f is the lcm of its
    orbit lengths, confirmed by `confirmed_order` on the embedded matrix,
    whose order is the map's. A map with no regular vector raises
    ValueError.
    """
    action = AffineVectorsAction(f.dimension, f.field.q)
    lengths = orbit_length_array(action.induced_images(f))
    order = confirmed_order(f.embed(), math.lcm(*set(lengths.tolist())))
    found = np.flatnonzero(lengths == order)
    if found.size == 0:
        raise ValueError("no regular affine vector exists for this map")
    w = action.point(int(found[0]))
    certify_regular(action, f, w, order)
    return w


# ---------------------------------------------------------------------------
# Fixed-point-ratio surveys for wreath and diagonal families


def wreath_fpr_max(inner: GeneratedGroup, outer: GeneratedGroup) -> Fraction:
    """Max fixed-point ratio over nonidentity wreath elements in the
    product action, asserted equal to the inner group's own maximum.

    Raises ValueError when the inner group is regular on its domain (no
    nonidentity element fixes a point, so the maximum is degenerate).
    """
    d = inner.degree
    copies = outer.degree
    inner_max = Fraction(0)
    for h in inner:
        if h.is_identity():
            continue
        fixed = sum(1 for i in range(d) if h.images[i] == i)
        inner_max = max(inner_max, Fraction(fixed, d))
    if inner.order == 1 or inner_max == 0:
        raise ValueError("inner group is regular; fixed-point ratio degenerate")
    action = ProductAction(d, copies)
    outer_max = Fraction(0)
    for top in outer:
        for combo in iter_product(inner.elements, repeat=copies):
            g = WreathElement(tuple(combo), top)
            if g.is_identity():
                continue
            ratio = Fraction(fixed_count(action.induced_images(g)), action.size)
            outer_max = max(outer_max, ratio)
    assert outer_max == inner_max, (
        f"wreath fpr max {outer_max} differs from inner max {inner_max}"
    )
    return outer_max


@dataclass(frozen=True)
class DiagonalAuditLine:
    """One audited shape class: observed maximum against its stated bound."""

    shape: str
    prime: int
    bound: Fraction
    max_fpr: Fraction
    count: int

    @property
    def ok(self) -> bool:
        return self.max_fpr <= self.bound


@dataclass(frozen=True)
class DiagonalAuditReport:
    """The audit of one pass over diagonal-type elements.

    elements_checked counts every element of the pass, elements_seen only
    those of prime order. irregular lists, as (position in the pass,
    element), each element whose induced cycles include no regular one.
    """

    copies: int
    exhaustive: bool
    elements_seen: int
    lines: tuple[DiagonalAuditLine, ...]
    elements_checked: int
    irregular: tuple[tuple[int, DiagonalElement], ...]

    @property
    def all_ok(self) -> bool:
        return all(line.ok for line in self.lines)


def diagonal_elements(
    data, copies: int, samples: Optional[int] = None, seed: int = 0
) -> Iterator[DiagonalElement]:
    """Diagonal-type elements (slot permutation, automorphism index phi,
    translation tuple) over data with `copies` visible coordinates.

    With samples None: every element, slot permutations in lexicographic
    order, then phi, then translation tuples in lexicographic order.
    Otherwise `samples` draws from random.Random(seed), each drawing the
    slot permutation by one shuffle, then phi, then the translations in
    coordinate order.
    """
    n_amb = len(data.automorphisms.coset_reps)
    if samples is None:
        for sigma in all_permutations(copies + 1):
            for phi in range(n_amb):
                for mvec in iter_product(range(data.order), repeat=copies):
                    yield DiagonalElement(sigma, phi, mvec)
        return
    rng = random.Random(seed)
    slots = list(range(copies + 1))
    for _ in range(samples):
        sig = slots[:]
        rng.shuffle(sig)
        sigma = Permutation(tuple(sig))
        phi = rng.randrange(n_amb)
        mvec = tuple(rng.randrange(data.order) for _ in range(copies))
        yield DiagonalElement(sigma, phi, mvec)


def _diagonal_shape(elem: DiagonalElement) -> str:
    if elem.sigma.is_identity():
        return "coordinatewise"
    if elem.sigma.images[0] == 0:
        return "slot_fixing_anchor"
    return "slot_moving_anchor"


def _diagonal_bound(
    shape: str, p: int, n_target: int, copies: int, min_faithful_degree: int
) -> Fraction:
    if shape == "coordinatewise":
        return Fraction(1, min_faithful_degree**copies)
    if shape == "slot_fixing_anchor":
        return Fraction(1, n_target ** (p - 1))
    if p == 2:
        return Fraction(4, 15)
    return Fraction(1, n_target ** (p - 2))


# The most diagonal-type elements `diagonal_fpr_audit` lists exhaustively.
DIAGONAL_EXHAUSTIVE_CAP = 200000


def diagonal_fpr_audit(
    data,
    copies: int,
    min_faithful_degree: int,
    samples: int = 10000,
    seed: int = 0,
) -> DiagonalAuditReport:
    """Audit fixed-point ratios of prime-order diagonal-type elements.

    One pass over `diagonal_elements`: all of them when there are at most
    DIAGONAL_EXHAUSTIVE_CAP, else `samples` seeded draws. Each element's
    image array is built once, and its orbit lengths give both its induced
    order and whether it has a regular cycle; elements without one are
    listed in the report. Each prime-order element is classified by how
    its slot permutation treats the anchor slot, and the observed maximum
    ratio per (shape, order) class is compared against that class's stated
    bound. Identity slot permutations cover the pure inner-holomorph case,
    where every nonidentity fixed set is a coset of a point stabilizer in
    each coordinate.
    """
    action = DiagonalAction(data, copies)
    n_target = data.group.order
    n_amb = len(data.automorphisms.coset_reps)
    total = math.factorial(copies + 1) * n_amb * n_target**copies
    exhaustive = total <= DIAGONAL_EXHAUSTIVE_CAP

    stats: dict[tuple[str, int], tuple[Fraction, int]] = {}
    elements_seen = 0
    elements_checked = 0
    irregular = []
    for elem in diagonal_elements(data, copies, None if exhaustive else samples, seed):
        images = action.induced_images(elem)
        lens = orbit_lengths(images)
        order = math.lcm(*lens)
        if max(lens) != order:
            irregular.append((elements_checked, elem))
        elements_checked += 1
        if not _is_prime(order):
            continue
        elements_seen += 1
        shape = _diagonal_shape(elem)
        ratio = Fraction(fixed_count(images), action.size)
        key = (shape, order)
        cur = stats.get(key)
        if cur is None:
            stats[key] = (ratio, 1)
        else:
            stats[key] = (max(cur[0], ratio), cur[1] + 1)

    lines = []
    for (shape, p), (max_fpr, count) in sorted(stats.items()):
        bound = _diagonal_bound(shape, p, n_target, copies, min_faithful_degree)
        lines.append(
            DiagonalAuditLine(
                shape=shape, prime=p, bound=bound, max_fpr=max_fpr, count=count
            )
        )
    return DiagonalAuditReport(
        copies=copies,
        exhaustive=exhaustive,
        elements_seen=elements_seen,
        lines=tuple(lines),
        elements_checked=elements_checked,
        irregular=tuple(irregular),
    )


# ---------------------------------------------------------------------------
# Method auto-selection


FIX_UNION_FACTOR = 4


def _constructive_proof(action: PartitionsAction, g: Permutation) -> Verdict:
    """The certified partition_witness: every shape but 2x2 has one. Its
    cycle list gives the order, so g is walked twice: that list and str(g)."""
    witness, order = _regular_partition(action, g)
    return _verdict(
        action, g, "constructive_proof", order, order, True, [list(b) for b in witness]
    )


def _listed_within(factor: int):
    """Row condition: the action can list its points, at most factor * cap."""
    return lambda action, g, cap: action.listable and action.size <= factor * cap


def _kset_applies(action: Action, g, cap: int) -> bool:
    return isinstance(action, KSetsAction) and isinstance(g, Permutation)


def _partition_applies(action: Action, g, cap: int) -> bool:
    return (
        isinstance(action, PartitionsAction)
        and isinstance(g, Permutation)
        and (action.block_size, action.block_count) != (2, 2)
    )


# (method, applies(action, g, cap), run(action, g)), in order of preference:
# decide runs the first row that applies.
DECIDE_TABLE = (
    ("bruteforce", _listed_within(1), decide_bruteforce),
    ("fix_union", _listed_within(FIX_UNION_FACTOR), decide_fix_union),
    ("kset_combinatorial", _kset_applies, _kset_combinatorial),
    ("constructive_proof", _partition_applies, _constructive_proof),
)


def decide(action: Action, g, domain_cap: int = 10**7) -> Verdict:
    """Decide with the first row of DECIDE_TABLE that applies.

    Full enumeration under the cap; the fixed-set-union decider up to
    FIX_UNION_FACTOR times the cap (its arrays are flat and cheaper than
    orbit bookkeeping); past that, at any size, the cycle-type decision on
    k-sets of a permutation and the constructive witness on uniform
    partitions of a permutation. Anything else raises DomainCapError.
    """
    if domain_cap < 1:
        raise ValueError("domain_cap must be positive")
    for _method, applies, run in DECIDE_TABLE:
        if applies(action, g, domain_cap):
            return run(action, g)
    raise DomainCapError(action.size, domain_cap)
