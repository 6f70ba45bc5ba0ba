"""Induced actions on derived point sets.

Every action here exposes the same small interface. Points are addressed by
a 0-based internal index; `point` and `index` convert between an index and
the external point. External representations (tuples, blocks, vectors, coset
representatives) use 1-based point labels wherever the underlying set is a
permutation domain; finite field coordinates keep their 0-based element
codes. An action defines its map once: either `apply`, which pushes one
index forward under a group element, or `apply_external`, which pushes one
external point; `Action` derives the other. `induced_images` materializes
the whole induced map as an image array.

The product, vector, affine and diagonal actions are `TupleAction`s: their
points are little-endian digit tuples, and each writes its map once, as
`move(g, digits)` on 0-based digits that may be plain ints or numpy index
arrays. `TupleAction` derives the point codec, `apply`, `apply_external`
and `induced_images` from that one formula.

All actions are right actions: apply(g * h, i) == apply(h, apply(g, i)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .gfalgebra import AffineMap, Matrix, field_ops
from .groups import DEFAULT_GROUP_CAP, AmbientAutomorphisms, GeneratedGroup, closure
from .permcore import Permutation, orbit_partition, render_cycles


def orbit_lengths(images: Sequence[int]) -> list[int]:
    """Orbit sizes in smallest-member order."""
    return [len(orbit) for orbit in orbit_partition(images)]


def images_order(images: Sequence[int]) -> int:
    return math.lcm(*set(orbit_lengths(images)))


def fixed_count(images: Sequence[int]) -> int:
    if isinstance(images, np.ndarray):
        return int((images == np.arange(len(images))).sum())
    return sum(1 for i, v in enumerate(images) if i == v)


def power_images(images: Sequence[int], exponent: int) -> Sequence[int]:
    """Image array of the exponent-th power, by square and multiply."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    n = len(images)
    if n >= 4096 or isinstance(images, np.ndarray):
        base = np.asarray(images, dtype=np.int64)
        acc = np.arange(n, dtype=np.int64)
        e = exponent
        while e:
            if e & 1:
                acc = base[acc]
            base = base[base]
            e >>= 1
        return acc
    base = list(images)
    acc = list(range(n))
    e = exponent
    while e:
        if e & 1:
            acc = [base[v] for v in acc]
        base = [base[v] for v in base]
        e >>= 1
    return acc


class Action:
    """Right action of group elements on an indexed finite point set.

    A subclass defines its map once, either as `apply` on indices or as
    `apply_external` on external points; each is derived from the other.
    """

    name: str
    size: int

    def element_order(self, g) -> int:
        raise NotImplementedError

    def apply(self, g, idx: int) -> int:
        return self.index(self.apply_external(g, self.point(idx)))

    def point(self, idx: int):
        raise NotImplementedError

    def index(self, pt) -> int:
        raise NotImplementedError

    def point_json(self, idx: int):
        """JSON-friendly external form of a point."""
        return self.point(idx)

    def induced_images(self, g) -> Sequence[int]:
        return [self.apply(g, i) for i in range(self.size)]

    def compose(self, g, h):
        """The element that acts as g, then h."""
        return g * h

    def apply_external(self, g, pt):
        return self.point(self.apply(g, self.index(pt)))

    def fix_count(self, g) -> int:
        return fixed_count(self.induced_images(g))

    def fpr(self, g) -> Fraction:
        return Fraction(self.fix_count(g), self.size)

    def induced_order(self, g) -> int:
        return images_order(self.induced_images(g))

    def is_faithful_for(self, g) -> bool:
        """Whether g acts with its full order; false means a kernel ate it."""
        return self.induced_order(g) == self.element_order(g)


class NaturalAction(Action):
    """The defining action of permutations on {1..degree}."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.size = degree
        self.name = f"natural:{degree}"

    def element_order(self, g: Permutation) -> int:
        return g.order()

    def apply(self, g: Permutation, idx: int) -> int:
        return g.images[idx]

    def induced_images(self, g: Permutation) -> Sequence[int]:
        return list(g.images)

    def point(self, idx: int) -> int:
        if not 0 <= idx < self.size:
            raise IndexError(idx)
        return idx + 1

    def index(self, pt: int) -> int:
        if not 1 <= pt <= self.size:
            raise ValueError(f"point {pt} out of range 1..{self.size}")
        return pt - 1


def _colex_rank(combo: Sequence[int]) -> int:
    return sum(math.comb(v, i + 1) for i, v in enumerate(combo))


def _colex_combinations(degree: int, k: int):
    """All k-subsets of range(degree) in colexicographic order."""
    combo = list(range(k))
    last = degree - k + 1
    while True:
        yield combo
        i = 0
        while i + 1 < k and combo[i] + 1 == combo[i + 1]:
            i += 1
        if i == k - 1 and combo[i] + 1 == degree:
            return
        combo[i] += 1
        for j in range(i):
            combo[j] = j


class KSetsAction(Action):
    """Action on k-element subsets of {1..degree}, indexed in colex order."""

    def __init__(self, degree: int, k: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        if not 1 <= k <= degree:
            raise ValueError(f"k must satisfy 1 <= k <= {degree}, got {k}")
        self.degree = degree
        self.k = k
        self.size = math.comb(degree, k)
        self.name = f"ksets:{degree}:{k}"

    def element_order(self, g: Permutation) -> int:
        return g.order()

    def _unrank(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.size:
            raise IndexError(idx)
        r = idx
        out = []
        b = self.degree
        for i in range(self.k, 0, -1):
            b -= 1
            while math.comb(b, i) > r:
                b -= 1
            out.append(b)
            r -= math.comb(b, i)
        out.reverse()
        return tuple(out)

    def induced_images(self, g: Permutation) -> Sequence[int]:
        imgs = g.images
        return [
            _colex_rank(sorted(imgs[v] for v in combo))
            for combo in _colex_combinations(self.degree, self.k)
        ]

    def point(self, idx: int) -> tuple[int, ...]:
        return tuple(v + 1 for v in self._unrank(idx))

    def index(self, pt: Iterable[int]) -> int:
        vals = sorted(pt)
        if len(vals) != self.k or len(set(vals)) != self.k:
            raise ValueError(f"expected {self.k} distinct points, got {vals}")
        if vals[0] < 1 or vals[-1] > self.degree:
            raise ValueError(f"points must lie in 1..{self.degree}: {vals}")
        return _colex_rank([v - 1 for v in vals])

    def point_json(self, idx: int) -> list[int]:
        return list(self.point(idx))

    def apply_external(self, g: Permutation, pt: Iterable[int]) -> tuple[int, ...]:
        vals = [v - 1 for v in pt]
        return tuple(sorted(g.images[v] + 1 for v in vals))


def partitions_count(block_size: int, block_count: int) -> int:
    n = block_size * block_count
    return math.factorial(n) // (
        math.factorial(block_size) ** block_count * math.factorial(block_count)
    )


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a block system: blocks sorted, each sorted inside."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def apply_to_blocks(
    g: Permutation, blocks: Iterable[Iterable[int]]
) -> tuple[tuple[int, ...], ...]:
    """Image of a 0-based block system under g, in canonical form."""
    imgs = g.images
    return canonical_blocks([imgs[v] for v in block] for block in blocks)


def iter_uniform_partitions(block_size: int, points: tuple[int, ...]):
    """All partitions of `points` into blocks of `block_size`, lazily.

    Canonical order: each block is anchored at the smallest remaining point,
    and anchored blocks are emitted in lexicographic order, so the whole
    stream is deterministic.
    """
    if not points:
        yield ()
        return
    first = points[0]
    rest = points[1:]
    for comb in combinations(rest, block_size - 1):
        block = (first,) + comb
        taken = set(comb)
        remaining = tuple(p for p in rest if p not in taken)
        for tail in iter_uniform_partitions(block_size, remaining):
            yield (block,) + tail


class PartitionsAction(Action):
    """Action on partitions of {1..a*b} into b unordered blocks of size a.

    Partitions are stored canonically: each block sorted ascending, blocks
    ordered by their minimum. Index-based access enumerates all partitions
    lazily, so it only works while the count stays below an internal cap;
    apply_external works at any scale.
    """

    _ENUM_CAP = 2_000_000

    def __init__(self, block_size: int, block_count: int):
        if block_size < 2 or block_count < 2:
            raise ValueError("need block size >= 2 and block count >= 2")
        self.block_size = block_size
        self.block_count = block_count
        self.degree = block_size * block_count
        self.size = partitions_count(block_size, block_count)
        self.name = f"partitions:{block_size}:{block_count}"
        self._enum: list[tuple[tuple[int, ...], ...]] | None = None
        self._lookup: dict[tuple[tuple[int, ...], ...], int] | None = None

    def element_order(self, g: Permutation) -> int:
        return g.order()

    def _materialize(self) -> None:
        if self._enum is not None:
            return
        if self.size > self._ENUM_CAP:
            raise ValueError(
                f"{self.name} has {self.size} points; index-based access "
                f"is capped at {self._ENUM_CAP}"
            )
        enum = list(iter_uniform_partitions(self.block_size, tuple(range(self.degree))))
        self._enum = enum
        self._lookup = {p: i for i, p in enumerate(enum)}

    def induced_images(self, g: Permutation) -> Sequence[int]:
        self._materialize()
        lookup = self._lookup
        return [lookup[apply_to_blocks(g, blocks)] for blocks in self._enum]

    def point(self, idx: int) -> tuple[tuple[int, ...], ...]:
        self._materialize()
        return tuple(tuple(v + 1 for v in block) for block in self._enum[idx])

    def index(self, pt: Iterable[Iterable[int]]) -> int:
        self._materialize()
        internal = canonical_blocks([v - 1 for v in block] for block in pt)
        self._validate(internal)
        return self._lookup[internal]

    def _validate(self, internal: tuple[tuple[int, ...], ...]) -> None:
        flat = [v for block in internal for v in block]
        if len(internal) != self.block_count or any(
            len(b) != self.block_size for b in internal
        ):
            raise ValueError(
                f"expected {self.block_count} blocks of size {self.block_size}"
            )
        if sorted(flat) != list(range(self.degree)):
            raise ValueError(f"blocks must partition 1..{self.degree}")

    def point_json(self, idx: int) -> list[list[int]]:
        return [list(block) for block in self.point(idx)]

    def apply_external(
        self, g: Permutation, pt: Iterable[Iterable[int]]
    ) -> tuple[tuple[int, ...], ...]:
        internal = canonical_blocks([v - 1 for v in block] for block in pt)
        self._validate(internal)
        image = apply_to_blocks(g, internal)
        return tuple(tuple(v + 1 for v in block) for block in image)


class WreathElement:
    """Element (h_1, ..., h_l; s) of a permutation wreath product.

    components are the base-coordinate permutations, top is the permutation
    of the coordinate positions. Multiplication matches the product action:
    (x; s)(y; t) = (z; st) with z_i = x_i * y_{i^s}.
    """

    __slots__ = ("components", "top")

    def __init__(self, components: Iterable[Permutation], top: Permutation):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one base component")
        if top.degree != len(components):
            raise ValueError("top degree must equal the number of components")
        base = components[0].degree
        if any(c.degree != base for c in components):
            raise ValueError("all base components must share a degree")
        self.components = components
        self.top = top

    @staticmethod
    def identity(base_degree: int, copies: int) -> "WreathElement":
        one = Permutation.identity(base_degree)
        return WreathElement((one,) * copies, Permutation.identity(copies))

    @property
    def base_degree(self) -> int:
        return self.components[0].degree

    @property
    def copies(self) -> int:
        return len(self.components)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        timg = self.top.images
        z = tuple(
            self.components[i] * other.components[timg[i]] for i in range(self.copies)
        )
        return WreathElement(z, self.top * other.top)

    def inverse(self) -> "WreathElement":
        tinv = self.top.inverse()
        w = tuple(self.components[tinv.images[i]].inverse() for i in range(self.copies))
        return WreathElement(w, tinv)

    def __pow__(self, e: int) -> "WreathElement":
        if e < 0:
            return self.inverse() ** (-e)
        acc = WreathElement.identity(self.base_degree, self.copies)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.top.is_identity() and all(c.is_identity() for c in self.components)

    def order(self) -> int:
        """lcm over top cycles of (cycle length) * (order of the cycle product)."""
        return math.lcm(*(len(cyc) * prod.order() for cyc, prod in self.cycle_products()))

    def cycle_products(self) -> list[tuple[tuple[int, ...], Permutation]]:
        """(top cycle, product of components along it) for every top cycle."""
        out = []
        for cyc in self.top.cycles(include_fixed=True):
            prod = self.components[cyc[0]]
            for i in cyc[1:]:
                prod = prod * self.components[i]
            out.append((tuple(cyc), prod))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return self.components == other.components and self.top == other.top

    def __hash__(self) -> int:
        return hash((self.components, self.top))

    def __repr__(self) -> str:
        comps = "|".join(render_cycles(c) for c in self.components)
        return f"WreathElement({comps} @ {render_cycles(self.top)})"


class TupleAction(Action):
    """Action on the tuples of `length` digits in 0..radix-1.

    Index i packs a tuple little-endian (the first coordinate varies
    fastest). An external point adds `offset` to every digit: 1 where the
    digits are points of a permutation domain, 0 where they are field
    codes. A subclass defines its map once, as move(g, digits): it takes a
    list of 0-based digits, each a plain int or a numpy index array, and
    returns the image digits. It reads only numpy tables, so the same
    formula moves one point and, on index arrays, builds the whole image
    array.
    """

    def __init__(self, radix: int, length: int, offset: int, name: str):
        self.radix = radix
        self.length = length
        self.offset = offset
        self.size = radix**length
        self.name = name

    def _check(self, g) -> None:
        """Raise ValueError when g does not fit the action."""

    def move(self, g, digits: list) -> list:
        raise NotImplementedError

    def _decode(self, idx):
        digits = []
        for _ in range(self.length):
            digits.append(idx % self.radix)
            idx //= self.radix
        return digits

    def _encode(self, digits):
        idx = 0
        for v in reversed(digits):
            idx = idx * self.radix + v
        return idx

    def _digits(self, pt: Iterable[int]) -> list[int]:
        """The 0-based digits of an external point, checked."""
        digits = [v - self.offset for v in pt]
        if len(digits) != self.length:
            raise ValueError(f"expected {self.length} coordinates")
        if min(digits) < 0 or max(digits) >= self.radix:
            lo = self.offset
            raise ValueError(f"coordinates must lie in {lo}..{lo + self.radix - 1}")
        return digits

    def point(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.size:
            raise IndexError(idx)
        return tuple(int(v) + self.offset for v in self._decode(idx))

    def index(self, pt: Iterable[int]) -> int:
        return self._encode(self._digits(pt))

    def point_json(self, idx: int) -> list[int]:
        return list(self.point(idx))

    def apply(self, g, idx: int) -> int:
        self._check(g)
        # Python ints, so that indices past the int64 range stay exact.
        return self._encode([int(v) for v in self.move(g, self._decode(idx))])

    def apply_external(self, g, pt: Iterable[int]) -> tuple[int, ...]:
        self._check(g)
        return tuple([int(v) + self.offset for v in self.move(g, self._digits(pt))])

    def induced_images(self, g) -> np.ndarray:
        self._check(g)
        points = np.arange(self.size, dtype=np.int64)
        return self._encode(self.move(g, self._decode(points)))


class ProductAction(TupleAction):
    """Wreath product acting on tuples: coordinate i^s receives coordinate i.

    Points are the l-tuples over {1..base_degree}.
    """

    def __init__(self, base_degree: int, copies: int):
        if base_degree < 2:
            raise ValueError("base degree must be at least 2")
        if copies < 1:
            raise ValueError("need at least one copy")
        self.base_degree = base_degree
        self.copies = copies
        super().__init__(base_degree, copies, 1, f"product:{base_degree}:{copies}")

    def _check(self, g: WreathElement) -> None:
        if g.base_degree != self.base_degree or g.copies != self.copies:
            raise ValueError("element shape does not match the action")

    def element_order(self, g: WreathElement) -> int:
        self._check(g)
        return g.order()

    def move(self, g: WreathElement, digits: list) -> list:
        out = [0] * self.copies
        for comp, s, d in zip(g.components, g.top.images, digits):
            out[s] = np.asarray(comp.images)[d]
        return out


class VectorsAction(TupleAction):
    """Invertible matrices acting on row vectors of a finite field power.

    Vector coordinates are field element codes (0-based).
    """

    def __init__(self, dimension: int, q: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.field = field_ops(q)
        self.dimension = dimension
        super().__init__(q, dimension, 0, f"vectors:{dimension}:{q}")

    def _check(self, m: Matrix) -> None:
        if m.field.q != self.field.q or m.rows != self.dimension:
            raise ValueError("matrix shape does not match the action")

    def element_order(self, m: Matrix) -> int:
        self._check(m)
        return m.order()

    def move(self, m: Matrix, digits: list) -> list:
        add, mul = self.field.add_table, self.field.mul_table
        out = []
        for j in range(self.dimension):
            acc = 0
            for i, d in enumerate(digits):
                acc = add[acc, mul[d, m[i, j]]]
            out.append(acc)
        return out


class AffineVectorsAction(VectorsAction):
    """Affine maps w -> w*M + t acting on the same vector point set."""

    def __init__(self, dimension: int, q: int):
        super().__init__(dimension, q)
        self.name = f"affine:{dimension}:{q}"

    def _check(self, m: AffineMap) -> None:
        if m.field.q != self.field.q or m.dimension != self.dimension:
            raise ValueError("affine map shape does not match the action")

    def element_order(self, m: AffineMap) -> int:
        self._check(m)
        return m.order()

    def move(self, m: AffineMap, digits: list) -> list:
        add = self.field.add_table
        linear = super().move(m.linear, digits)
        return [add[v, t] for v, t in zip(linear, m.translation)]


class CosetsAction(Action):
    """A group acting on the right cosets of a subgroup by right translation.

    Coset i is represented by its minimal element; representatives are listed
    in increasing order.
    """

    def __init__(
        self,
        group: GeneratedGroup,
        subgroup: GeneratedGroup,
        label: str | None = None,
    ):
        if not subgroup.is_subgroup_of(group):
            raise ValueError("subgroup elements must all lie in the group")
        self.group = group
        self.subgroup = subgroup
        reps: list[Permutation] = []
        coset_of: dict[Permutation, int] = {}
        for g in group.elements:
            if g in coset_of:
                continue
            idx = len(reps)
            reps.append(g)
            for h in subgroup.elements:
                coset_of[h * g] = idx
        self._reps = reps
        self._coset_of = coset_of
        self.size = len(reps)
        if self.size * subgroup.order != group.order:
            raise AssertionError("coset enumeration does not tile the group")
        self.name = f"cosets:{label or f'{group.order}/{subgroup.order}'}"

    def element_order(self, g: Permutation) -> int:
        return g.order()

    def apply(self, g: Permutation, idx: int) -> int:
        image = self._coset_of.get(self._reps[idx] * g)
        if image is None:
            raise ValueError("element does not belong to the acting group")
        return image

    def point(self, idx: int) -> Permutation:
        return self._reps[idx]

    def index(self, pt: Permutation) -> int:
        idx = self._coset_of.get(pt)
        if idx is None:
            raise ValueError("representative does not belong to the group")
        return idx

    def point_json(self, idx: int) -> str:
        return render_cycles(self._reps[idx])


class DiagonalGroupData:
    """Lookup tables for a target group and its ambient automorphisms.

    Stores multiplication, inversion, and per-automorphism conjugation as
    integer tables over element indices, plus a fingerprint map so any
    ambient element can be resolved to its automorphism representative.
    """

    def __init__(self, group: GeneratedGroup, automorphisms: AmbientAutomorphisms, label: str):
        self.group = group
        self.automorphisms = automorphisms
        self.label = label
        n = group.order
        elements = group.elements
        index = group.index
        mul = np.empty((n, n), dtype=np.int64)
        for i, g in enumerate(elements):
            mul[i] = [index(g * h) for h in elements]
        inv = np.empty(n, dtype=np.int64)
        for i, g in enumerate(elements):
            inv[i] = index(g.inverse())
        reps = automorphisms.coset_reps
        aut = np.empty((len(reps), n), dtype=np.int64)
        for a, rep in enumerate(reps):
            aut[a] = [index(automorphisms.apply(rep, g)) for g in elements]
        self.mul = mul
        self.inv = inv
        self.aut = aut
        self._phi_by_fingerprint = {
            self._fingerprint(rep): a for a, rep in enumerate(reps)
        }
        self.identity_phi = self.phi_index_of(
            Permutation.identity(group.degree)
        )

    @classmethod
    def build(
        cls,
        group: GeneratedGroup,
        automorphisms: AmbientAutomorphisms,
        label: str = "",
    ) -> "DiagonalGroupData":
        if automorphisms.target is not group and set(automorphisms.target.elements) != set(
            group.elements
        ):
            raise ValueError("automorphism table must target the same group")
        return cls(group, automorphisms, label or f"order{group.order}")

    @property
    def order(self) -> int:
        return self.group.order

    def _fingerprint(self, ambient_element: Permutation) -> tuple[int, ...]:
        return tuple(
            self.group.index(t.conj(ambient_element)) for t in self.group.generators
        )

    def phi_index_of(self, ambient_element: Permutation) -> int:
        """Representative index of the automorphism an ambient element induces."""
        key = self._fingerprint(ambient_element)
        phi = self._phi_by_fingerprint.get(key)
        if phi is None:
            raise ValueError("element does not normalize the target group")
        return phi


class DiagonalElement:
    """One symbol of a diagonal-quotient action: (slot permutation, automorphism, translation).

    sigma permutes the copies+1 tuple slots (degree copies+1), phi indexes an
    automorphism representative, m holds one translating element index per
    visible coordinate.
    """

    __slots__ = ("sigma", "phi", "m")

    def __init__(self, sigma: Permutation, phi: int, m: tuple[int, ...]):
        if sigma.degree != len(m) + 1:
            raise ValueError("slot permutation degree must be copies + 1")
        self.sigma = sigma
        self.phi = phi
        self.m = tuple(m)

    def __repr__(self) -> str:
        return f"DiagonalElement({render_cycles(self.sigma)}, phi={self.phi}, m={self.m})"


class DiagonalAction(TupleAction):
    """Action on copies-tuples of target group elements, as diagonal cosets.

    A point is the normalized representative (1, a_1, ..., a_l) of a coset of
    the diagonal subgroup in the (l+1)-fold direct power; only (a_1..a_l) is
    stored. An element first routes slots through sigma (slot 0 carries the
    identity), renormalizes so slot 0 is the identity again, then applies the
    automorphism and the per-coordinate right translations.
    """

    def __init__(self, data: DiagonalGroupData, copies: int):
        if copies < 1:
            raise ValueError("need at least one visible coordinate")
        self.data = data
        self.copies = copies
        super().__init__(data.order, copies, 1, f"diagonal:{data.label}:{copies}")

    def _check(self, g: DiagonalElement) -> None:
        if g.sigma.degree != self.copies + 1:
            raise ValueError("element shape does not match the action")

    def element_order(self, g: DiagonalElement) -> int:
        # The action is faithful for a centerless target, so the element
        # order equals the induced order.
        return images_order(self.induced_images(g))

    def move(self, g: DiagonalElement, digits: list) -> list:
        mul, inv, aut, phi = self.data.mul, self.data.inv, self.data.aut, g.phi
        slots = [0, *digits]
        beta = [0] * (self.copies + 1)
        for i, s in enumerate(g.sigma.images):
            beta[s] = slots[i]
        b0inv = inv[beta[0]]
        return [mul[aut[phi, mul[b0inv, b]], t] for b, t in zip(beta[1:], g.m)]

    def compose(self, g: DiagonalElement, h: DiagonalElement) -> DiagonalElement:
        """The element that acts as g, then h, read off the data tables.

        On full tuples g sends x to phi_g(x^sigma_g)·m_g, with slot 0 of m
        the identity. Then h sends it to (phi_h phi_g)(x^sigma)·r with
        sigma = sigma_g sigma_h and r_i = phi_h(m_g[sigma_h^-1(i)])·m_h[i].
        Left division by the diagonal element r_0 restores slot 0, so the
        composite has m_i = r_0^-1 r_i and the automorphism t -> r_0^-1
        phi_h(phi_g(t)) r_0, found by its images of the generators.
        """
        self._check(g)
        self._check(h)
        mul, inv, aut = self.data.mul, self.data.inv, self.data.aut
        group = self.data.group
        hinv = h.sigma.inverse().images
        mg, mh = (0,) + g.m, (0,) + h.m
        r = [int(mul[aut[h.phi, mg[hinv[i]]], mh[i]]) for i in range(self.copies + 1)]
        r0inv = int(inv[r[0]])
        key = tuple(
            int(mul[mul[r0inv, aut[h.phi, aut[g.phi, group.index(t)]]], r[0]])
            for t in group.generators
        )
        m = tuple(int(mul[r0inv, v]) for v in r[1:])
        return DiagonalElement(
            g.sigma * h.sigma, self.data._phi_by_fingerprint[key], m
        )

    def translation(self, parts: Sequence[Permutation]) -> DiagonalElement:
        """Element of the direct-power part, given copies+1 target elements.

        The slot-0 entry is absorbed into a conjugation plus per-coordinate
        translations, matching right multiplication on coset representatives.
        """
        if len(parts) != self.copies + 1:
            raise ValueError(f"expected {self.copies + 1} group elements")
        group = self.data.group
        for t in parts:
            if t not in group:
                raise ValueError("translation parts must lie in the target group")
        head = parts[0]
        phi = self.data.phi_index_of(head)
        head_inv = head.inverse()
        m = tuple(group.index(head_inv * t) for t in parts[1:])
        return DiagonalElement(Permutation.identity(self.copies + 1), phi, m)

    def automorphism_element(self, ambient_element: Permutation) -> DiagonalElement:
        phi = self.data.phi_index_of(ambient_element)
        return DiagonalElement(
            Permutation.identity(self.copies + 1), phi, (0,) * self.copies
        )

    def slot_element(self, sigma: Permutation) -> DiagonalElement:
        if sigma.degree != self.copies + 1:
            raise ValueError(f"slot permutation must have degree {self.copies + 1}")
        return DiagonalElement(sigma, self.data.identity_phi, (0,) * self.copies)


def realize_diagonal_group(
    data: DiagonalGroupData, copies: int, cap: int = DEFAULT_GROUP_CAP
) -> GeneratedGroup:
    """Close the full diagonal-quotient group as permutations of the point set."""
    act = DiagonalAction(data, copies)
    gens: list[DiagonalElement] = []
    identity = Permutation.identity(data.group.degree)
    for t in data.group.generators:
        gens.append(act.translation((t,) + (identity,) * copies))
        for slot in range(copies):
            m = [0] * copies
            m[slot] = data.group.index(t)
            gens.append(DiagonalElement(
                Permutation.identity(copies + 1), data.identity_phi, tuple(m)
            ))
    for a in data.automorphisms.ambient.generators:
        gens.append(act.automorphism_element(a))
    swap = Permutation.from_cycles([(1, 2)], copies + 1)
    full = Permutation(tuple(list(range(1, copies + 1)) + [0]))
    gens.append(act.slot_element(swap))
    gens.append(act.slot_element(full))
    induced = [
        Permutation(tuple(int(v) for v in act.induced_images(g))) for g in gens
    ]
    return closure(induced, cap)
