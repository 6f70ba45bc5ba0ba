"""Finite permutation groups given by generators.

Groups are enumerated by breadth-first closure under right multiplication
and stored sorted by image sequence, so enumeration order is deterministic
and independent of how the generators were listed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gfalgebra import Field, Matrix, SemilinearMap, field_ops, projective_action
from .permcore import Permutation, factorize

DEFAULT_GROUP_CAP = 5_000_000


class ClosureCapError(RuntimeError):
    """Raised when a closure exceeds the element cap, or is priced past it
    before it starts; carries a lower bound on the group order."""

    def __init__(self, cap: int, reached: int):
        super().__init__("group closure exceeded cap %d (at least %d elements)" % (cap, reached))
        self.cap = cap
        self.reached = reached


class GeneratedGroup:
    """A permutation group with a full, sorted element list."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self._index

    def __iter__(self):
        return iter(self.elements)

    def index(self, g: Permutation) -> int:
        return self._index[g]

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def is_subgroup_of(self, other: "GeneratedGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.elements)

    def centralizer_of_subgroup(self, other: "GeneratedGroup") -> list[Permutation]:
        """Elements commuting with every generator of ``other``."""
        return [a for a in self.elements if all(a * t == t * a for t in other.generators)]

    def random_element(self, rng) -> Permutation:
        return self.elements[rng.randrange(len(self.elements))]

    def __repr__(self) -> str:
        return "GeneratedGroup(degree=%d, order=%d)" % (self.degree, self.order)


def closure(generators: Sequence[Permutation], cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    """Breadth-first closure under right multiplication."""
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share a degree")
    ident = Permutation.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for s in generators:
                y = x * s
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ClosureCapError(cap, len(seen))
                    nxt.append(y)
        frontier = nxt
    return GeneratedGroup(degree, generators, sorted(seen))


# --- symmetric and alternating groups ------------------------------------------


def sym_generators(n: int) -> list[Permutation]:
    if n < 1:
        raise ValueError("degree must be positive")
    if n == 1:
        return [Permutation.identity(1)]
    gens = [Permutation.from_cycles([(1, 2)], n)]
    if n > 2:
        gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], n))
    return gens


def alt_generators(n: int) -> list[Permutation]:
    if n < 3:
        return [Permutation.identity(max(n, 1))]
    if n == 3:
        return [Permutation.from_cycles([(1, 2, 3)], 3)]
    three = Permutation.from_cycles([(1, 2, 3)], n)
    if n % 2 == 1:
        big = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    else:
        big = Permutation.from_cycles([tuple(range(2, n + 1))], n)
    return [three, big]


def symmetric_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    return closure(sym_generators(n), cap)


def alternating_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    return closure(alt_generators(n), cap)


def all_permutations(n: int) -> Iterable[Permutation]:
    """Every element of Sym(n) in lexicographic image order, without closure."""
    for images in itertools.permutations(range(n)):
        yield Permutation._raw(images)


# --- matrix-flavored constructions ---------------------------------------------


def gl_elements(d: int, q: int) -> list[Matrix]:
    """All invertible d x d matrices, in lexicographic entry order."""
    f = field_ops(q)
    out = []
    for entries in itertools.product(range(q), repeat=d * d):
        m = Matrix(f, d, d, entries)
        if m.is_invertible():
            out.append(m)
    return out


def gl_order(d: int, q: int) -> int:
    order = 1
    for i in range(d):
        order *= q**d - q**i
    return order


def pgl2_generators(q: int) -> list[Permutation]:
    f = field_ops(q)
    gens = [Matrix.from_rows(f, [[1, 1], [0, 1]]), Matrix.from_rows(f, [[0, 1], [1, 0]])]
    if q > 3:
        nu = f.primitive_element()
        gens.append(Matrix.from_rows(f, [[nu, 0], [0, 1]]))
    return [projective_action(m) for m in gens]


def pgl2(q: int, cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    """PGL(2, q) acting on the q+1 points of the projective line."""
    return closure(pgl2_generators(q), cap)


def psl2(q: int, cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    """PSL(2, q) on the projective line, generated by transvections.

    Transvection parameters run over a power basis of the field so the two
    root subgroups are generated in full even when q is a proper prime power.
    """
    f = field_ops(q)
    params = [1]
    nu = f.primitive_element()
    acc = 1
    for _ in range(1, f.spec.e):
        acc = f.mul(acc, nu)
        params.append(acc)
    gens = []
    for x in params:
        gens.append(projective_action(Matrix.from_rows(f, [[1, x], [0, 1]])))
        gens.append(projective_action(Matrix.from_rows(f, [[1, 0], [x, 1]])))
    return closure(gens, cap)


def pgammal2_9(cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    """PGL(2, 9) extended by the field automorphism, on 10 points."""
    f = field_ops(9)
    frob = projective_action(SemilinearMap(Matrix.identity(f, 2), 1))
    return closure(pgl2_generators(9) + [frob], cap)


def m10(cap: int = DEFAULT_GROUP_CAP) -> GeneratedGroup:
    """The point-transitive degree-10 group between PSL(2, 9) and its
    automorphism group that is neither PGL(2, 9) nor the field extension:
    generated by PSL(2, 9) and a nonsquare-determinant matrix twisted by the
    field automorphism."""
    f = field_ops(9)
    nu = f.primitive_element()
    twist = projective_action(SemilinearMap(Matrix.from_rows(f, [[nu, 0], [0, 1]]), 1))
    gens = [
        projective_action(Matrix.from_rows(f, [[1, 1], [0, 1]])),
        projective_action(Matrix.from_rows(f, [[1, 0], [1, 1]])),
        twist,
    ]
    return closure(gens, cap)


# --- subgroups by stabilized structure ------------------------------------------


def _check_points(group: GeneratedGroup, points: Sequence[int]) -> None:
    for p in points:
        if not 1 <= p <= group.degree:
            raise ValueError("point %d out of range 1..%d" % (p, group.degree))


def point_stabilizer(group: GeneratedGroup, point: int) -> GeneratedGroup:
    """Stabilizer of a 1-indexed point, as a generated group (full filter)."""
    _check_points(group, (point,))
    members = [g for g in group.elements if g.images[point - 1] == point - 1]
    return GeneratedGroup(group.degree, tuple(members), tuple(members))

def set_stabilizer(group: GeneratedGroup, points: Sequence[int]) -> GeneratedGroup:
    """Setwise stabilizer of a set of 1-indexed points."""
    _check_points(group, points)
    target = set(p - 1 for p in points)
    members = [g for g in group.elements if {g.images[p] for p in target} == target]
    return GeneratedGroup(group.degree, tuple(members), tuple(members))


def sylow_normalizer(group: GeneratedGroup, prime: int) -> GeneratedGroup:
    """Normalizer of the cyclic subgroup generated by the first element of
    order ``prime`` in enumeration order (a Sylow subgroup when prime
    divides the order exactly once). Raises ValueError unless ``prime`` is a
    prime."""
    gen = next((g for g in group.elements if g.order() == prime), None)
    if gen is None:
        raise ValueError("group has no element of order %d" % prime)
    if factorize(prime).prime_powers != ((prime, 1),):
        raise ValueError("%d is not a prime" % prime)
    sub = {gen**i for i in range(prime)}
    members = [a for a in group.elements if all(x.conj(a) in sub for x in sub)]
    return GeneratedGroup(group.degree, tuple(members), tuple(sorted(members)))


# --- automorphisms realized inside an ambient group ------------------------------


@dataclass(frozen=True)
class AmbientAutomorphisms:
    """Automorphisms of ``target`` realized as conjugation by the elements of
    an ambient group that contains and normalizes it. Only the identity of
    the ambient group may centralize the target, which makes the target
    centerless and each ambient element induce its own automorphism:
    ``coset_reps`` is ``ambient.elements``, and an automorphism's index is
    the position of its ambient element there."""

    target: GeneratedGroup
    ambient: GeneratedGroup
    coset_reps: tuple[Permutation, ...]

    @classmethod
    def build(cls, target: GeneratedGroup, ambient: GeneratedGroup) -> "AmbientAutomorphisms":
        if not target.is_subgroup_of(ambient):
            raise ValueError("the ambient group must contain the target")
        for a in ambient.generators:
            for t in target.generators:
                if t.conj(a) not in target:
                    raise ValueError("ambient group does not normalize the target")
        if len(ambient.centralizer_of_subgroup(target)) > 1:
            raise ValueError("the target has a nontrivial centralizer in the ambient group")
        return cls(target, ambient, ambient.elements)

    @property
    def count(self) -> int:
        return len(self.coset_reps)

    def apply(self, rep: Permutation, t: Permutation) -> Permutation:
        """The image of t under the automorphism realized by ``rep``."""
        return t.conj(rep)
