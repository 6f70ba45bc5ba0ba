"""Induced actions on derived point sets.

Every action here exposes the same small interface. Points are addressed by
a 0-based internal index; `point` and `index` convert between an index and
the external point, and `point` raises IndexError for an index outside
0..size-1, a negative one included. External representations (tuples,
blocks, vectors, coset representatives) use 1-based point labels wherever
the underlying set is a permutation domain; finite field coordinates keep
their 0-based element codes. An action defines its map once, as
`move(g, x)` on its own internal point form x: the index on the natural
and coset actions, a frozenset of 0-based points on k-sets, a frozenset of
frozenset 0-based blocks on partitions, and the 0-based digits on the
tuple actions. `internal` checks an external point and converts it to that
form, raising ValueError for a non-point, and `external` converts back. A
set is equal to itself in any order, so no `move` sorts: `external` is the
only code that puts a k-set or a partition in canonical order, the order
every printed point has. `Action.apply_external` is the one external map,
and `induced_images` materializes the whole induced map as an image array.

The product, vector, affine and diagonal actions are `TupleAction`s: their
points are little-endian digit tuples, and their `move` takes digits that
may be plain ints or the axes of an open grid of numpy index arrays.
`TupleAction` derives the point codec and `induced_images` from that one
formula. The formula reads flat tables, through memoryviews for one
point's int digits and as int64 arrays on the grid.

The k-set and partition actions build their image arrays from tables of
their whole point listing: all k-subsets in colex order, and all uniform
partitions with their sorted keys. Each table is built on the first call
that needs it, never in the constructor, so an action used only through
`apply_external` never pays for it. `induced_images` returns an int64
ndarray on these and on the tuple actions, and a list on the natural and
coset actions.

`orbit_lengths` reads orbit sizes off an image array with the
pointer-doubling kernel of `permcore`; nothing here walks an orbit.
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

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .gfalgebra import AffineMap, Matrix, _digits, _undigits, field_ops
from .groups import DEFAULT_GROUP_CAP, AmbientAutomorphisms, GeneratedGroup, closure
from .permcore import (Permutation, at_bits, cycle_power, orbit_labels, power, render_cycles,
                       squaring_ladder)


def orbit_lengths(images: Sequence[int]) -> list[int]:
    """Orbit sizes in smallest-member order: each orbit's point count under
    its `orbit_labels` label, which is its smallest member."""
    counts = np.bincount(orbit_labels(images), minlength=len(images))
    return counts[counts > 0].tolist()


def fixed_count(images: Sequence[int]) -> int:
    return int(np.count_nonzero(np.asarray(images) == np.arange(len(images))))


def power_images(images: Sequence[int], exponent: int) -> Sequence[int]:
    """Image array of the exponent-th power, by `permcore.power` over
    `np.take`. A negative exponent raises ValueError."""
    base = np.asarray(images, dtype=np.int64)
    return power(base, exponent, np.arange(len(base), dtype=np.int64), np.take)


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

    def size_at_most(self, bound: int) -> bool:
        """Whether the action has at most bound points."""
        return self.size <= bound

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

    def _compose(self, g, h):
        """`compose` of elements known to fit the action, as the squarings
        of an element checked once are; by default `compose` itself."""
        return self.compose(g, h)

    def is_identity(self, g) -> bool:
        """Whether g is the identity element, read off g with no product."""
        return g.is_identity()

    def certificate_powers(self, g, order: int):
        """The powers of g that `regular.certify_regular` reads: None when
        g^order is not the identity, else a function (e, x) -> the image of
        the internal point x under g^e, for e dividing order.

        By default one `squaring_ladder` by `_compose`. g^order is the
        product of its squares at the set bits of order, which `is_identity`
        tests with no product; x then moves through the squares at the set
        bits of e, popcount(e) moves, and g^e itself is never formed.
        """
        squares = squaring_ladder(g, order, self._compose)
        if not self.is_identity(functools.reduce(self._compose, at_bits(squares, order))):
            return None

        def image(e: int, x):
            for sq in at_bits(squares, e):
                x = self.move(sq, x)
            return x

        return image

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


def _permutation_powers(action, g: Permutation, order: int):
    """The `certificate_powers` of the actions whose elements permute
    {1..degree}, read off g's cycle list: g^order is the identity exactly
    when every cycle length divides order, and each g^e is built from the
    same list by `cycle_power`, in O(degree), then moves the point once."""
    cycles = g.cycles()
    if any(order % len(cyc) for cyc in cycles):
        return None
    return lambda e, x: action.move(cycle_power(cycles, g.degree, e), x)


class NaturalAction(Action):
    """The defining action of permutations on {1..degree}."""

    _check = _check_degree
    certificate_powers = _permutation_powers

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

    The internal form of a k-set is the frozenset of its 0-based points, so
    `move` maps each point and sorts nothing; `external` lists the 1-based
    points ascending, the one canonical order of a printed k-set.

    induced_images gathers g's images through the colex k-subset matrix,
    sorts each row and sums its int64 colex rank one column at a time. Both
    tables are built on the first call: an unlisted action never builds them.
    """

    _check = _check_degree
    certificate_powers = _permutation_powers

    def __init__(self, degree: int, k: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        if not 1 <= k <= degree:
            raise ValueError(f"k must satisfy 1 <= k <= {degree}, got {k}")
        self.degree = degree
        self.k = k
        self.name = f"ksets:{degree}:{k}"
        self._combos: np.ndarray | None = None
        self._binom: np.ndarray | None = None
        self._at_most: dict[int, bool] = {}

    @functools.cached_property
    def size(self) -> int:
        return math.comb(self.degree, self.k)

    def size_at_most(self, bound: int) -> bool:
        """C(degree, k) <= bound by an early-exit product, so deciding a
        large action never counts it; each bound's answer is kept."""
        if bound not in self._at_most:
            self._at_most[bound] = _binomials_within([(self.degree, self.k)], bound)
        return self._at_most[bound]

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
        ranks = self._binom[rows[:, 0], 0]
        for i in range(1, self.k):
            ranks += self._binom[rows[:, i], i]
        return ranks

    def internal(self, pt: Iterable[int]) -> frozenset[int]:
        vals = list(pt)
        x = frozenset(v - 1 for v in vals)
        if len(vals) != self.k or len(x) != self.k:
            raise ValueError(f"expected {self.k} distinct points, got {sorted(vals)}")
        if min(x) < 0 or max(x) >= self.degree:
            raise ValueError(f"points must lie in 1..{self.degree}: {sorted(vals)}")
        return x

    def external(self, x: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(v + 1 for v in x))

    def move(self, g: Permutation, x: frozenset[int]) -> frozenset[int]:
        return frozenset(map(g.images.__getitem__, x))

    def point(self, idx: int) -> tuple[int, ...]:
        return self.external(self._unrank(idx))

    def index(self, pt: Iterable[int]) -> int:
        return _colex_rank(sorted(self.internal(pt)))


def partitions_count(block_size: int, block_count: int) -> int:
    n = block_size * block_count
    return math.factorial(n) // (
        math.factorial(block_size) ** block_count * math.factorial(block_count)
    )


def _binomials_within(terms: Iterable[tuple[int, int]], cap: int) -> bool:
    """Whether the product of C(n, k) over terms is at most cap, built one
    factor at a time: C(n, j + 1) = C(n, j) * (n - j) / (j + 1) is exact
    and, as j < min(k, n - k) <= n/2, no smaller than C(n, j), so the first
    partial product past cap decides."""
    count = 1
    for n, k in terms:
        for j in range(min(k, n - k)):
            count = count * (n - j) // (j + 1)
            if count > cap:
                return False
    return count <= cap


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

    The internal form of a partition is the frozenset of its blocks, each
    a frozenset of 0-based points, so `move` maps each point and sorts
    nothing. `external` writes the canonical form, the one order of a
    printed partition: each block ascending, blocks ordered by their
    minimum. Index-based access works only while the count stays below an
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
    certificate_powers = _permutation_powers

    def __init__(self, block_size: int, block_count: int):
        if block_size < 2 or block_count < 2:
            raise ValueError("need block size >= 2 and block count >= 2")
        self.block_size = block_size
        self.block_count = block_count
        self.degree = block_size * block_count
        self.name = f"partitions:{block_size}:{block_count}"
        self._enum: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._sorted_keys: np.ndarray | None = None
        self._key_order: np.ndarray | None = None

    @functools.cached_property
    def size(self) -> int:
        return partitions_count(self.block_size, self.block_count)

    @functools.cached_property
    def listable(self) -> bool:
        # partitions_count(a, b) is the product of C(i*a - 1, a - 1), i = 2..b.
        a, b = self.block_size, self.block_count
        return _binomials_within(((i * a - 1, a - 1) for i in range(2, b + 1)), self._ENUM_CAP)

    def _materialize(self) -> None:
        if self._enum is not None:
            return
        if not self.listable:
            raise ValueError(
                f"{self.name} has more than {self._ENUM_CAP} points; "
                "index-based access is capped there"
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

    def internal(self, pt: Iterable[Iterable[int]]) -> frozenset[frozenset[int]]:
        blocks = [[v - 1 for v in block] for block in pt]
        if len(blocks) != self.block_count or any(
            len(b) != self.block_size for b in blocks
        ):
            raise ValueError(
                f"expected {self.block_count} blocks of size {self.block_size}"
            )
        # The a*b listed points cover 1..a*b only when none repeats.
        x = frozenset(map(frozenset, blocks))
        if frozenset().union(*x) != frozenset(range(self.degree)):
            raise ValueError(f"blocks must partition 1..{self.degree}")
        return x

    def external(self, x: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(v + 1 for v in block)) for block in x))

    def move(
        self, g: Permutation, x: frozenset[frozenset[int]]
    ) -> frozenset[frozenset[int]]:
        image = g.images.__getitem__
        return frozenset(frozenset(map(image, block)) for block in x)

    def point(self, idx: int) -> tuple[tuple[int, ...], ...]:
        self._materialize()
        _check_index(self, idx)
        return self.external(self._enum[idx].tolist())

    def index(self, pt: Iterable[Iterable[int]]) -> int:
        self._materialize()
        # A key sums weights over each block and sorts the block sums, so
        # it does not depend on the order of blocks or of their points.
        blocks = np.array([[list(b) for b in self.internal(pt)]])
        return int(self._index_of_keys(self._keys(self._weights, blocks))[0])


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
        """g^e for any integer e, read off the cycle list of the imprimitive
        permutation."""
        return WreathElement._from_imprimitive(self.imprimitive() ** e, self.copies)

    def imprimitive(self) -> Permutation:
        """The permutation (i, v) -> (top(i), h_i(v)) of copies x base
        points, pair (i, v) at index i * base_degree + v. It is faithful and
        multiplies as g does, so it has g's powers and order."""
        b = self.base_degree
        return Permutation._raw(tuple(
            t * b + v for t, h in zip(self.top.images, self.components) for v in h.images
        ))

    @staticmethod
    def _from_imprimitive(p: Permutation, copies: int) -> "WreathElement":
        """The wreath element whose `imprimitive` permutation is p."""
        b = p.degree // copies
        rows = [p.images[i * b : (i + 1) * b] for i in range(copies)]
        return WreathElement(
            [Permutation._raw(tuple(y % b for y in row)) for row in rows],
            Permutation._raw(tuple(row[0] // b for row in rows)),
        )

    def is_identity(self) -> bool:
        return self.top.is_identity() and all(c.is_identity() for c in self.components)

    def order(self) -> int:
        """The order of the `imprimitive` permutation, from its cycle list."""
        return self.imprimitive().order()

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
    subclass's move(g, digits) takes digits that are either all plain ints
    or all axes of the open grid, digit k an index array of shape
    (radix,) + (1,) * k, and returns the image digits. It reads only flat
    tables: a memoryview, whose reads are Python ints, for int digits, and
    the int64 array behind it on the grid. So the same formula moves one
    point and, broadcast over the grid, builds the whole image array;
    table reads on a single digit axis touch only radix entries.
    """

    def __init__(self, radix: int, length: int, offset: int, name: str):
        self.radix = radix
        self.length = length
        self.offset = offset
        self.size = radix**length
        self.name = name

    def _decode(self, idx):
        return _digits(idx, self.radix, self.length)

    def _encode(self, digits):
        return _undigits(digits, self.radix)

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

    def induced_images(self, g) -> np.ndarray:
        self._check(g)
        axis = np.arange(self.radix, dtype=np.int64)
        grid = [axis.reshape((self.radix,) + (1,) * k) for k in range(self.length)]
        # A bijection moves every digit axis into its image, so the encoded
        # images fill the grid, and digit 0 runs along its last axis: C
        # order is index order.
        return self._encode(self.move(g, grid)).reshape(self.size)


def _on_grid(digits) -> bool:
    """Whether a `TupleAction.move` was handed the open grid, not a point."""
    return isinstance(digits[0], np.ndarray)


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
        grid = _on_grid(digits)
        out = [0] * self.copies
        for comp, s, d in zip(g.components, g.top.images, digits):
            out[s] = np.asarray(comp.images)[d] if grid else comp.images[d]
        return out

    def certificate_powers(self, g: WreathElement, order: int):
        """Read off the cycle list of g's `imprimitive` permutation P, which
        is the identity when every cycle length divides order. The tuple d
        is the set of pairs (i, d_i), at points i * base_degree + d_i, and
        g^e sends it to their images under P^e: each pair moves e places
        along its cycle, so no power is built."""
        b = self.base_degree
        cycles = g.imprimitive().cycles(include_fixed=True)
        if any(order % len(cyc) for cyc in cycles):
            return None
        place = {v: (cyc, at) for cyc in cycles for at, v in enumerate(cyc)}

        def image(e: int, digits: list) -> list:
            out = [0] * self.copies
            for i, d in enumerate(digits):
                cyc, at = place[i * b + d]
                y = cyc[(at + e) % len(cyc)]
                out[y // b] = y % b
            return out

        return image


class VectorsAction(TupleAction):
    """Invertible matrices acting on row vectors of a finite field power.

    Vector coordinates are field element codes (0-based). The field's
    addition and multiplication tables are read flat: a + b is entry
    a * q + b, and as the field is commutative, also entry b * q + a.
    """

    def __init__(self, dimension: int, q: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.field = field_ops(q)
        self.dimension = dimension
        self._flat = (self.field.add_table.ravel(), self.field.mul_table.ravel())
        self._views = tuple(memoryview(t) for t in self._flat)
        super().__init__(q, dimension, 0, f"vectors:{dimension}:{q}")

    def _check(self, m: Matrix) -> None:
        if m.field.q != self.field.q or m.rows != self.dimension:
            raise ValueError("matrix shape does not match the action")

    def move(self, m: Matrix, digits: list) -> list:
        add, mul = self._flat if _on_grid(digits) else self._views
        q, d, entries = self.radix, self.dimension, m.entries
        out = []
        for j in range(d):
            acc = mul[entries[j] * q + digits[0]]
            for i in range(1, d):
                acc = add[acc * q + mul[entries[i * d + j] * q + digits[i]]]
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
        add = (self._flat if _on_grid(digits) else self._views)[0]
        q = self.radix
        linear = super().move(m.linear, digits)
        return [add[t * q + v] for v, t in zip(linear, m.translation)]


class CosetsAction(Action):
    """A group acting on the right cosets of a subgroup by right translation.

    Coset i is represented by its minimal element; representatives are listed
    in increasing order. `degree` is the degree of the group's permutations.
    """

    _check = _check_degree
    certificate_powers = _permutation_powers

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


def _closed_rows(count: int, width: int, start: int, steps) -> np.ndarray:
    """The (count, width) int64 table with row `start` range(width) and,
    for each (successor, gather) in `steps`, row successor[x] the gather
    read through row x. ValueError unless the walk reaches every row."""
    out = np.empty((count, width), dtype=np.int64)
    out[start] = np.arange(width)
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for successor, gather in steps:
            y = successor[x]
            if y not in seen:
                seen.add(y)
                gather.take(out[x], out=out[y], mode="clip")
                todo.append(y)
    if len(seen) < count:
        raise ValueError("the generators do not reach every element")
    return out


class DiagonalGroupData:
    """Lookup tables for a target group and its ambient automorphisms.

    `mul`, `inv` and `aut` are int64 tables over element indices: the
    product g_i g_j, the inverse of g_i, and the image of g_i under
    automorphism phi. `aut_order` is the order of each automorphism. An
    automorphism index phi is the position of its ambient element in
    `ambient.elements`, which `AmbientAutomorphisms` makes one-to-one, so
    the order of phi is the order of that element.

    `mul` and `aut` are closed over generators by `_closed_rows`, so only
    generators are multiplied as `Permutation`s. With left_s[i] the index
    of s·g_i, the `mul` row of s·g is left_s read through the row of g, as
    s·g·g_j = s·(g·g_j); the `aut` row of e·a is the index of g_i
    conjugated by a, read through the row of e. `inv` is where each `mul`
    row holds the identity, index 0 of the target. `phi_of` maps ambient
    image tuples to phi, so no ambient product builds a `Permutation`.

    `flat` holds the tables as flat int64 arrays, entry (i, j) of an n-wide
    table at i * n + j, and `views` holds zero-copy memoryviews of them,
    whose reads are Python ints; there is no list copy.
    """

    def __init__(self, group: GeneratedGroup, automorphisms: AmbientAutomorphisms, label: str):
        self.group = group
        self.automorphisms = automorphisms
        self.label = label
        identity = Permutation.identity(group.degree)
        if group.index(identity) != 0:
            raise ValueError("the target's elements must list the identity first")
        elements, index, n = group.elements, group.index, group.order
        lefts = (np.array([index(s * g) for g in elements]) for s in group.generators)
        self.mul = _closed_rows(n, n, 0, [(left, left) for left in lefts])
        self.inv = self.mul.argmin(axis=1)
        ambient = automorphisms.ambient
        self.phi_of = {a.images: phi for phi, a in enumerate(ambient.elements)}
        self.identity_phi = self.phi_index_of(identity)
        self.aut = _closed_rows(ambient.order, n, self.identity_phi, [
            ([self.phi_of[tuple([a.images[v] for v in e.images])] for e in ambient.elements],
             np.array([index(g.conj(a)) for g in elements]))
            for a in ambient.generators
        ])
        self.aut_order = [a.order() for a in ambient.elements]
        self.flat = (self.mul.ravel(), self.inv, self.aut.ravel())
        self.views = tuple(memoryview(t) for t in self.flat)

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
        return self.automorphisms.ambient.index(ambient_element)


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
    automorphism and the per-coordinate right translations: coordinate b
    becomes mul[aut[phi*n + mul[inv[b0]*n + b]]*n + t] on the flat tables of
    `DiagonalGroupData`, with b0 the new slot 0 and t the translation.
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
        `_compose`, so k <= 3 takes k - 1 compositions) has slot
        permutation sigma^k = 1, so it acts on each coordinate alone, by
        psi_i: t -> phi'(t)·m'_i on the target's n points. As phi' fixes
        the identity, psi_i^j(t) = phi'^j(t)·psi_i^j(1), so psi_i has
        order lcm(|phi'|, length of the psi_i-orbit of the identity), and
        that orbit is walked one flat read psi(x) = mul[aut[phi'*n + x]*n +
        m'_i] at a time on the memoryviews. The action is faithful for a
        centerless target, so the order of g is k times the lcm of the
        orders of the coordinate maps.
        """
        self._check(g)
        k = g.sigma.order()
        gk = power(g, k - 1, g, self._compose)
        mul, _, aut = self.data.views
        n = self.radix
        twist = gk.phi * n
        orders = [self.data.aut_order[gk.phi]]
        for t in gk.m:
            # psi_i(1) = m'_i, since the identity has index 0.
            x, length = t, 1
            while x != 0:
                x = mul[aut[twist + x] * n + t]
                length += 1
            orders.append(length)
        return k * math.lcm(*orders)

    def move(self, g: DiagonalElement, digits: list) -> list:
        mul, inv, aut = self.data.flat if _on_grid(digits) else self.data.views
        n = self.radix
        twist = g.phi * n
        slots = [0, *digits]
        beta = [0] * (self.copies + 1)
        for i, s in enumerate(g.sigma.images):
            beta[s] = slots[i]
        head = inv[beta[0]] * n
        return [mul[aut[twist + mul[head + b]] * n + t] for b, t in zip(beta[1:], g.m)]

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
        Both elements are checked; `_compose` is the same product unchecked.
        """
        self._check(g)
        self._check(h)
        return self._compose(g, h)

    def _compose(self, g: DiagonalElement, h: DiagonalElement) -> DiagonalElement:
        mul, inv, aut = self.data.views
        n = self.radix
        twist = h.phi * n
        hinv = h.sigma.inverse().images
        mg, mh = (0,) + g.m, (0,) + h.m
        r = [mul[aut[twist + mg[hinv[i]]] * n + mh[i]] for i in range(self.copies + 1)]
        head = inv[r[0]] * n
        m = tuple(mul[head + v] for v in r[1:])
        reps = self.data.automorphisms.ambient.elements
        rep_h, r0 = reps[h.phi].images, self.data.group.elements[r[0]].images
        phi = self.data.phi_of[tuple([r0[rep_h[v]] for v in reps[g.phi].images])]
        return DiagonalElement(g.sigma * h.sigma, phi, m)

    def is_identity(self, g: DiagonalElement) -> bool:
        """Read off the structure: the identity of the slots, of the
        automorphisms and of the translations."""
        return g.sigma.is_identity() and g.phi == self.data.identity_phi and not any(g.m)

    def translation(self, parts: Sequence[Permutation]) -> DiagonalElement:
        """Element of the direct-power part, given copies+1 target elements.

        The slot-0 entry is absorbed into a conjugation plus per-coordinate
        translations, matching right multiplication on coset representatives.
        A part outside the target group raises ValueError naming it.
        """
        if len(parts) != self.copies + 1:
            raise ValueError(f"expected {self.copies + 1} group elements")
        mul, inv, _ = self.data.views
        index = self.data.group.index
        head = inv[index(parts[0])] * self.radix
        m = tuple(mul[head + index(t)] for t in parts[1:])
        phi = self.data.phi_index_of(parts[0])
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
