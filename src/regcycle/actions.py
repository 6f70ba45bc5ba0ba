"""Induced actions on derived point sets.

Every action here exposes the same small interface. Points are addressed by
a 0-based internal index; `point` and `index` convert between an index and
the external point, and `point` raises IndexError for an index outside
0..size-1, a negative one included. External representations (tuples,
blocks, vectors, coset representatives) use 1-based point labels wherever
the underlying set is a permutation domain; finite field coordinates keep
their 0-based element codes. An action defines its map once, as
`move(g, x)` on its own internal point form x: the index on the natural
and coset actions, the sorted 0-based tuple on k-sets, the canonical
0-based blocks on partitions, and the 0-based digits on the tuple actions.
`internal` checks an external point and converts it to that form, raising
ValueError for a non-point, and `external` converts back.
`Action.apply_external` is the one external map, and `induced_images`
materializes the whole induced map as an image array.

The product, vector, affine and diagonal actions are `TupleAction`s: their
points are little-endian digit tuples, and their `move` takes digits that
may be plain ints or numpy index arrays. `TupleAction` derives the point
codec and `induced_images` from that one formula.

The k-set and partition actions build their image arrays from tables of
their whole point listing: all k-subsets in colex order, and all uniform
partitions with their sorted keys. Each table is built on the first call
that needs it, never in the constructor, so an action used only through
`apply_external` never pays for it. `induced_images` returns an int64
ndarray on these and on the tuple actions, and a list on the natural and
coset actions.

`orbit_lengths` and `images_order` read orbit sizes off an image array with
the pointer-doubling kernel of `permcore`; nothing here walks an orbit.
`element_order` is the order of g itself, which a kernel of the action may
divide down on the points. It first runs the action's `_check`, which
raises ValueError for an element of the wrong shape: the wrong degree on
the natural, k-set, partition and coset actions, and on the diagonal action
also an automorphism or translation index out of range, which numpy would
otherwise wrap or fail on. `induced_images` runs the
same check before it builds anything. The diagonal action reads the
order from the element's slot permutation and coordinate maps, without
building its image array.

All actions are right actions: apply(g * h, i) == apply(h, apply(g, i)).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .gfalgebra import AffineMap, Matrix, field_ops
from .groups import DEFAULT_GROUP_CAP, AmbientAutomorphisms, GeneratedGroup, closure
from .permcore import Permutation, orbit_labels, power, render_cycles


def orbit_lengths(images: Sequence[int]) -> list[int]:
    """Orbit sizes in smallest-member order: each orbit's point count under
    its `orbit_labels` label, which is its smallest member."""
    counts = np.bincount(orbit_labels(images), minlength=len(images))
    return counts[counts > 0].tolist()


def images_order(images: Sequence[int]) -> int:
    return math.lcm(*set(orbit_lengths(images)))


def fixed_count(images: Sequence[int]) -> int:
    return int(np.count_nonzero(np.asarray(images) == np.arange(len(images))))


def power_images(images: Sequence[int], exponent: int) -> Sequence[int]:
    """Image array of the exponent-th power, by `permcore.power` with arrays
    composed by indexing: "a, then b" is b[a]. A negative exponent raises
    ValueError."""
    base = np.asarray(images, dtype=np.int64)
    identity = np.arange(len(base), dtype=np.int64)
    return power(base, exponent, identity, lambda a, b: b[a])


class Action:
    """Right action of group elements on an indexed finite point set.

    A subclass defines its map once, as `move(g, x)` on its internal point
    form x. `internal(pt)` checks an external point and returns that form,
    raising ValueError for a non-point, and `external(x)` converts back. By
    default the internal form is the index, and `induced_images` lists
    `move` over it. `apply_external` and `apply` are derived from the three.
    """

    name: str
    size: int
    # Whether index-based access can list every point.
    listable = True

    def _check(self, g) -> None:
        """Raise ValueError when g does not fit the action."""

    def element_order(self, g) -> int:
        self._check(g)
        return g.order()

    def internal(self, pt):
        return self.index(pt)

    def external(self, x):
        return self.point(x)

    def move(self, g, x):
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
        self._check(g)
        return [self.move(g, i) for i in range(self.size)]

    def compose(self, g, h):
        """The element that acts as g, then h."""
        return g * h

    def apply_external(self, g, pt):
        self._check(g)
        return self.external(self.move(g, self.internal(pt)))


def _check_index(action, idx: int) -> None:
    """Raise IndexError for an index outside 0..size-1, which a list would wrap."""
    if not 0 <= idx < action.size:
        raise IndexError(idx)


def _check_degree(action, g: Permutation) -> None:
    """The `_check` of the actions whose elements permute {1..degree}."""
    if g.degree != action.degree:
        raise ValueError(
            f"element has degree {g.degree}, action {action.name} has degree {action.degree}"
        )


class NaturalAction(Action):
    """The defining action of permutations on {1..degree}."""

    _check = _check_degree

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.size = degree
        self.name = f"natural:{degree}"

    def move(self, g: Permutation, idx: int) -> int:
        return g.images[idx]

    def induced_images(self, g: Permutation) -> Sequence[int]:
        self._check(g)
        return list(g.images)

    def point(self, idx: int) -> int:
        _check_index(self, idx)
        return idx + 1

    def index(self, pt: int) -> int:
        if not 1 <= pt <= self.size:
            raise ValueError(f"point {pt} out of range 1..{self.size}")
        return pt - 1


def _colex_rank(combo: Sequence[int]) -> int:
    return sum(math.comb(v, i + 1) for i, v in enumerate(combo))


def _colex_combinations(degree: int, k: int) -> np.ndarray:
    """All k-subsets of range(degree) in colexicographic order, one
    ascending row each, as a small-int array of shape (C(degree, k), k).

    The colex listing of the j-subsets of range(t) is a prefix of the
    listing for any larger range. So the j-subsets are, for each top
    element t in turn, the first C(t, j - 1) rows of the (j - 1)-subsets
    with t appended. The j smallest points of a k-subset lie below
    degree - k + j, so level j lists only those, and no level is longer
    than the last.
    """
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(max(degree - 1, 0)))
    for j in range(1, k + 1):
        tops = np.arange(j - 1, degree - k + j)
        counts = [math.comb(int(t), j - 1) for t in tops]
        prefixes = np.concatenate([np.arange(c) for c in counts])
        rows = np.column_stack(
            [rows[prefixes], np.repeat(tops, counts).astype(rows.dtype)]
        )
    return rows


class KSetsAction(Action):
    """Action on k-element subsets of {1..degree}, indexed in colex order.

    induced_images returns an int64 ndarray. It gathers g's images through
    the matrix of all k-subsets in colex order, sorts each row, and ranks
    the rows from a binomial table; both tables are built on the first
    call, so an action that is never listed never builds them.
    """

    _check = _check_degree

    def __init__(self, degree: int, k: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        if not 1 <= k <= degree:
            raise ValueError(f"k must satisfy 1 <= k <= {degree}, got {k}")
        self.degree = degree
        self.k = k
        self.size = math.comb(degree, k)
        self.name = f"ksets:{degree}:{k}"
        self._combos: np.ndarray | None = None
        self._binom: np.ndarray | None = None

    def _unrank(self, idx: int) -> tuple[int, ...]:
        _check_index(self, idx)
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

    def induced_images(self, g: Permutation) -> np.ndarray:
        self._check(g)
        if self._combos is None:
            n, k = self.degree, self.k
            self._combos = _colex_combinations(n, k)
            # Entry [v, i] is C(v, i + 1), the term of the i-th smallest
            # point v in a colex rank. That point is at most n - k + i, and
            # larger entries, which may not fit an int64, are never read.
            self._binom = np.array(
                [[math.comb(v, i + 1) if v - i <= n - k else 0 for i in range(k)]
                 for v in range(n)],
                dtype=np.int64,
            )
        rows = np.asarray(g.images, dtype=self._combos.dtype)[self._combos]
        rows.sort(axis=1)
        return self._binom[rows, np.arange(self.k)].sum(axis=1)

    def internal(self, pt: Iterable[int]) -> tuple[int, ...]:
        vals = sorted(pt)
        if len(vals) != self.k or len(set(vals)) != self.k:
            raise ValueError(f"expected {self.k} distinct points, got {vals}")
        if vals[0] < 1 or vals[-1] > self.degree:
            raise ValueError(f"points must lie in 1..{self.degree}: {vals}")
        return tuple(v - 1 for v in vals)

    def external(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(v + 1 for v in x)

    def move(self, g: Permutation, x: Sequence[int]) -> tuple[int, ...]:
        imgs = g.images
        return tuple(sorted(imgs[v] for v in x))

    def point(self, idx: int) -> tuple[int, ...]:
        return self.external(self._unrank(idx))

    def index(self, pt: Iterable[int]) -> int:
        return _colex_rank(self.internal(pt))

    def point_json(self, idx: int) -> list[int]:
        return list(self.point(idx))


def partitions_count(block_size: int, block_count: int) -> int:
    n = block_size * block_count
    return math.factorial(n) // (
        math.factorial(block_size) ** block_count * math.factorial(block_count)
    )


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a block system: blocks sorted, each sorted inside."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _complements(subsets: np.ndarray, m: int) -> np.ndarray:
    """The complement in range(m) of each row of a small-int subset array,
    ascending, in the same dtype.

    The points are read through a boolean mask from a broadcast row of
    small ints, and the mask is cleared one subset column at a time, so no
    int64 array larger than one column is built.
    """
    free = np.ones((len(subsets), m), dtype=bool)
    rows = np.arange(len(subsets))
    for column in subsets.T:
        free[rows, column] = False
    points = np.broadcast_to(np.arange(m, dtype=subsets.dtype), free.shape)
    return points[free].reshape(len(subsets), m - subsets.shape[1])


def _uniform_partitions_array(block_size: int, block_count: int) -> np.ndarray:
    """The partitions of range(block_size * block_count) in canonical
    order, as a small-int array (count, block_count, block_size).

    Canonical order anchors each block at the smallest point left and lists
    the anchored blocks in lexicographic order. So the partitions of
    range(m) are, for each first block {0} + c with c an ascending
    (block_size - 1)-subset of 1..m-1 in lexicographic order, that block
    followed by the partitions of range(m - block_size) mapped onto the
    points c leaves, in ascending order. The lexicographic listing is the
    colex listing of the reflected subsets x -> m - 1 - x, read backwards.
    Each level is written into one preallocated array, so the largest
    level is held about twice, never as int64.
    """
    a = block_size
    dtype = np.min_scalar_type(a * block_count - 1)
    parts = np.zeros((1, 0), dtype=dtype)
    for m in range(a, a * block_count + 1, a):
        firsts = (m - 1 - _colex_combinations(m - 1, a - 1))[::-1, ::-1].astype(dtype)
        firsts = np.column_stack([np.zeros(len(firsts), dtype=dtype), firsts])
        rest = _complements(firsts, m)
        level = np.empty((len(firsts), len(parts), m), dtype=dtype)
        level[:, :, :a] = firsts[:, None, :]
        level[:, :, a:] = rest[:, parts]
        parts = level.reshape(-1, m)
    return parts.reshape(-1, block_count, a)


class PartitionsAction(Action):
    """Action on partitions of {1..a*b} into b unordered blocks of size a.

    Partitions are stored canonically: each block sorted ascending, blocks
    ordered by their minimum; the internal form is the canonical 0-based
    blocks. Index-based access works only while the count stays below an
    internal cap; apply_external works at any scale.

    The listing is a small-int array (size, b, a), built on first use
    together with the sorted keys of its partitions. The key gives point x
    the weight b**x and labels each block by the rank of its weight sum,
    which is the rank of its largest point: it is the base-b string of
    block labels, sum over x of label(x) * b**x. induced_images keys the
    image of every listed partition at once and looks the keys up with
    np.searchsorted, so it returns an int64 ndarray; index looks up one key
    the same way.
    """

    _ENUM_CAP = 2_000_000
    _check = _check_degree

    def __init__(self, block_size: int, block_count: int):
        if block_size < 2 or block_count < 2:
            raise ValueError("need block size >= 2 and block count >= 2")
        self.block_size = block_size
        self.block_count = block_count
        self.degree = block_size * block_count
        self.size = partitions_count(block_size, block_count)
        self.name = f"partitions:{block_size}:{block_count}"
        self.listable = self.size <= self._ENUM_CAP
        self._enum: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._sorted_keys: np.ndarray | None = None
        self._key_order: np.ndarray | None = None

    def _materialize(self) -> None:
        if self._enum is not None:
            return
        if not self.listable:
            raise ValueError(
                f"{self.name} has {self.size} points; index-based access "
                f"is capped at {self._ENUM_CAP}"
            )
        self._enum = _uniform_partitions_array(self.block_size, self.block_count)
        self._weights = self.block_count ** np.arange(self.degree, dtype=np.int64)
        keys = self._keys(self._weights, self._enum)
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    def _keys(self, weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Keys of the partitions (rows, b, a) of 0-based points when point
        x weighs weights[x]: b**x for the partitions themselves, b**(x^g)
        for their images under g."""
        sums = weights[blocks[:, :, 0]]
        for i in range(1, self.block_size):
            sums += weights[blocks[:, :, i]]
        sums.sort(axis=1)
        return sums @ np.arange(self.block_count, dtype=np.int64)

    def _index_of_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._key_order[np.searchsorted(self._sorted_keys, keys)]

    def induced_images(self, g: Permutation) -> np.ndarray:
        self._check(g)
        self._materialize()
        weights = self._weights[np.asarray(g.images)]
        return self._index_of_keys(self._keys(weights, self._enum))

    def internal(self, pt: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
        blocks = canonical_blocks([v - 1 for v in block] for block in pt)
        if len(blocks) != self.block_count or any(
            len(b) != self.block_size for b in blocks
        ):
            raise ValueError(
                f"expected {self.block_count} blocks of size {self.block_size}"
            )
        if sorted(v for block in blocks for v in block) != list(range(self.degree)):
            raise ValueError(f"blocks must partition 1..{self.degree}")
        return blocks

    def external(self, x: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v + 1 for v in block) for block in x)

    def move(
        self, g: Permutation, x: Iterable[Iterable[int]]
    ) -> tuple[tuple[int, ...], ...]:
        imgs = g.images
        return canonical_blocks([imgs[v] for v in block] for block in x)

    def point(self, idx: int) -> tuple[tuple[int, ...], ...]:
        _check_index(self, idx)
        self._materialize()
        return self.external(self._enum[idx].tolist())

    def index(self, pt: Iterable[Iterable[int]]) -> int:
        self._materialize()
        key = self._keys(self._weights, np.array([self.internal(pt)]))
        return int(self._index_of_keys(key)[0])

    def point_json(self, idx: int) -> list[list[int]]:
        return [list(block) for block in self.point(idx)]


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
        return power(self, e, WreathElement.identity(self.base_degree, self.copies))

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
        return f"WreathElement({self})"

    def __str__(self) -> str:
        """``<components>@<top>``, components joined by |: the CLI's form."""
        comps = "|".join(render_cycles(c) for c in self.components)
        return f"{comps}@{render_cycles(self.top)}"


class TupleAction(Action):
    """Action on the tuples of `length` digits in 0..radix-1.

    Index i packs a tuple little-endian (the first coordinate varies
    fastest). The internal form is the list of 0-based digits, and an
    external point adds `offset` to every digit: 1 where the digits are
    points of a permutation domain, 0 where they are field codes. A
    subclass's move(g, digits) takes digits that are each a plain int or a
    numpy index array, and returns the image digits. It reads only numpy
    tables, so the same formula moves one point and, on index arrays,
    builds the whole image array.
    """

    def __init__(self, radix: int, length: int, offset: int, name: str):
        self.radix = radix
        self.length = length
        self.offset = offset
        self.size = radix**length
        self.name = name

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

    def internal(self, pt: Iterable[int]) -> list[int]:
        digits = [v - self.offset for v in pt]
        if len(digits) != self.length:
            raise ValueError(f"expected {self.length} coordinates")
        if min(digits) < 0 or max(digits) >= self.radix:
            lo = self.offset
            raise ValueError(f"coordinates must lie in {lo}..{lo + self.radix - 1}")
        return digits

    def external(self, digits) -> tuple[int, ...]:
        return tuple([int(v) + self.offset for v in digits])

    def point(self, idx: int) -> tuple[int, ...]:
        _check_index(self, idx)
        return self.external(self._decode(idx))

    def index(self, pt: Iterable[int]) -> int:
        return self._encode(self.internal(pt))

    def point_json(self, idx: int) -> list[int]:
        return list(self.point(idx))

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

    def move(self, m: AffineMap, digits: list) -> list:
        add = self.field.add_table
        linear = super().move(m.linear, digits)
        return [add[v, t] for v, t in zip(linear, m.translation)]


class CosetsAction(Action):
    """A group acting on the right cosets of a subgroup by right translation.

    Coset i is represented by its minimal element; representatives are listed
    in increasing order. `degree` is the degree of the group's permutations.
    """

    _check = _check_degree

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
        self.degree = group.degree
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

    def move(self, g: Permutation, idx: int) -> int:
        image = self._coset_of.get(self._reps[idx] * g)
        if image is None:
            raise ValueError("element does not belong to the acting group")
        return image

    def point(self, idx: int) -> Permutation:
        _check_index(self, idx)
        return self._reps[idx]

    def index(self, pt: Permutation) -> int:
        idx = self._coset_of.get(pt)
        if idx is None:
            raise ValueError("representative does not belong to the group")
        return idx

    def point_json(self, idx: int) -> str:
        return render_cycles(self.point(idx))


class DiagonalGroupData:
    """Lookup tables for a target group and its ambient automorphisms.

    Stores multiplication, inversion, and per-automorphism conjugation as
    integer tables over element indices, and the order of each automorphism.
    An automorphism index phi is the position of its ambient element in
    `ambient.elements`, which `AmbientAutomorphisms` makes one-to-one.
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
        self.aut_order = [images_order(row) for row in aut]
        self.identity_phi = self.phi_index_of(Permutation.identity(group.degree))

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

    def phi_index_of(self, ambient_element: Permutation) -> int:
        """The automorphism index phi of an ambient element: its position in
        `ambient.elements`. Raises ValueError for a non-member."""
        ambient = self.automorphisms.ambient
        if ambient_element not in ambient:
            raise ValueError("element does not lie in the ambient group")
        return ambient.index(ambient_element)


class DiagonalElement:
    """One symbol of a diagonal-quotient action: (slot permutation, automorphism, translation).

    sigma permutes the copies+1 tuple slots (degree copies+1), phi indexes
    the ambient element whose conjugation is the automorphism, m holds one
    translating element index per visible coordinate.
    """

    __slots__ = ("sigma", "phi", "m")

    def __init__(self, sigma: Permutation, phi: int, m: tuple[int, ...]):
        if sigma.degree != len(m) + 1:
            raise ValueError("slot permutation degree must be copies + 1")
        self.sigma = sigma
        self.phi = phi
        self.m = tuple(m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        return (self.sigma, self.phi, self.m) == (other.sigma, other.phi, other.m)

    def __hash__(self) -> int:
        return hash((self.sigma, self.phi, self.m))

    def __repr__(self) -> str:
        return f"DiagonalElement({render_cycles(self.sigma)}, phi={self.phi}, m={self.m})"

    def __str__(self) -> str:
        """``sigma=<cycles>;phi=<i>;m=<j,...>``, phi and m 1-based: the CLI's form."""
        m = ",".join(str(i + 1) for i in self.m)
        return f"sigma={render_cycles(self.sigma)};phi={self.phi + 1};m={m}"


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
        n_amb, n = len(self.data.aut), self.data.order
        if not 0 <= g.phi < n_amb:
            raise ValueError(f"phi {g.phi} is outside 0..{n_amb - 1}")
        if any(not 0 <= t < n for t in g.m):
            raise ValueError(f"m {g.m} has an entry outside 0..{n - 1}")

    def element_order(self, g: DiagonalElement) -> int:
        """The order of g, read from its structure, never from the image
        array of the whole point set.

        With k the order of sigma, g^k (g, then g^(k-1) by `power` over
        `compose`, so k <= 3 takes k - 1 compositions) has slot
        permutation sigma^k = 1, so it acts on each coordinate alone, by
        psi_i: t -> phi'(t)·m'_i on the target's n points. As phi' fixes
        the identity, psi_i^j(t) = phi'^j(t)·psi_i^j(1), so psi_i has
        order lcm(|phi'|, length of the psi_i-orbit of the identity). The
        action is faithful for a centerless target, so the order of g is k
        times the lcm of the orders of the coordinate maps.
        """
        self._check(g)
        k = g.sigma.order()
        gk = power(g, k - 1, g, self.compose)
        mul, twist = self.data.mul, self.data.aut[gk.phi]
        orders = [self.data.aut_order[gk.phi]]
        for t in gk.m:
            # psi_i(1) = m'_i, since the identity has index 0.
            x, length = t, 1
            while x != 0:
                x = mul[twist[x], t]
                length += 1
            orders.append(length)
        return k * math.lcm(*orders)

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
        phi_h(phi_g(t)) r_0: conjugation by the ambient element
        rep_g rep_h r_0, read from image tuples. Only the identity
        centralizes the target, so that element is the composite's phi.
        """
        self._check(g)
        self._check(h)
        mul, inv, aut = self.data.mul, self.data.inv, self.data.aut
        hinv = h.sigma.inverse().images
        mg, mh = (0,) + g.m, (0,) + h.m
        r = [int(mul[aut[h.phi, mg[hinv[i]]], mh[i]]) for i in range(self.copies + 1)]
        r0inv = int(inv[r[0]])
        m = tuple(int(mul[r0inv, v]) for v in r[1:])
        ambient = self.data.automorphisms.ambient
        rep_h = ambient.elements[h.phi].images
        r0 = self.data.group.elements[r[0]].images
        product = tuple(r0[rep_h[v]] for v in ambient.elements[g.phi].images)
        phi = ambient.index(Permutation._raw(product))
        return DiagonalElement(g.sigma * h.sigma, phi, m)

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
