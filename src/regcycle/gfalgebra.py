"""Small finite fields, matrices over them, affine and semilinear maps.

Field elements are encoded as integers 0..q-1.  For an extension field of
characteristic p the integer is read in base p, least significant digit
first, as the coefficient vector of a polynomial in the generator.  All
arithmetic is table driven; the supported orders are small enough that the
q x q tables are built eagerly and cached.

Vectors are rows and matrices act on the right: ``w -> w * M``.

Matrix products, ``vec_mul``, ``inverse`` and the affine maps read the
field's nested-list tables ``_add``/``_mul`` (and ``_neg``/``_inv`` in the
elimination) as locals: one row lookup per scalar factor, then one index
per product term, with the right factor walked column by column. Their
results come from those tables, so they are built through the internal
constructors ``Matrix._raw`` and ``AffineMap._raw``, which skip the
per-entry range check and the invertibility elimination of the public
constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .permcore import Permutation, factorize, power

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)

# Fixed moduli for the extension fields, coefficients low degree first.
_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),      # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),   # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),      # x^2 + 1 over GF(3)
}


@dataclass(frozen=True)
class FieldSpec:
    """Order q = p^e together with the modulus used for e > 1."""

    p: int
    e: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.e


def _digits(value, p: int, e: int) -> list:
    """The e base-p digits of value, least significant first. value may be
    an int or an integer numpy array, whose digits are then arrays."""
    out = []
    for _ in range(e):
        out.append(value % p)
        value = value // p
    return out


def _undigits(coeffs: Sequence, p: int):
    """The inverse of `_digits`, on ints and integer arrays alike."""
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


class Field:
    """Arithmetic tables for one finite field."""

    def __init__(self, spec: FieldSpec):
        p, e = spec.p, spec.e
        q = spec.q
        if e > 1:
            self._check_irreducible(spec)
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = _digits(a, p, e)
            for b in range(q):
                db = _digits(b, p, e)
                add[a][b] = _undigits([(x + y) % p for x, y in zip(da, db)], p)
                mul[a][b] = _undigits(self._polymul(da, db, spec), p)
        neg = [add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = mul[a].index(1)
        frob = [power(a, p, 1, lambda x, y: mul[x][y]) for a in range(q)]
        self.spec = spec
        self.q = q
        self.p = p
        self.e = e
        self._add = add
        self._mul = mul
        # The same tables as arrays, for lookups on numpy index arrays.
        self.add_table = np.array(add, dtype=np.int64)
        self.mul_table = np.array(mul, dtype=np.int64)
        self._neg = neg
        self._inv = inv
        self._frob = frob

    @staticmethod
    def _polymul(da: Sequence[int], db: Sequence[int], spec: FieldSpec) -> list[int]:
        p, e = spec.p, spec.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        # Reduce by the monic modulus.
        mod = spec.modulus
        for deg in range(len(prod) - 1, e - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(len(mod) - 1):
                    prod[deg - e + i] = (prod[deg - e + i] - c * mod[i]) % p
        return prod[:e]

    @staticmethod
    def _check_irreducible(spec: FieldSpec) -> None:
        # Degree 2 or 3: irreducible over GF(p) exactly when there is no root.
        p, e, mod = spec.p, spec.e, spec.modulus
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        for x in range(p):
            if sum(c * x**i for i, c in enumerate(mod)) % p == 0:
                raise ValueError("modulus has root %d, not irreducible" % x)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def frobenius(self, a: int, power: int = 1) -> int:
        for _ in range(power % self.e):
            a = self._frob[a]
        return a

    def primitive_element(self) -> int:
        """Least element generating the multiplicative group: a generates
        it exactly when no a^((q-1)/p), p a prime dividing q - 1, is 1."""
        n = self.q - 1
        primes = factorize(n).primes
        for a in range(1, self.q):
            if all(power(a, n // p, 1, self.mul) != 1 for p in primes):
                return a
        raise RuntimeError("no primitive element found")

    def __repr__(self) -> str:
        return "Field(q=%d)" % self.q


@lru_cache(maxsize=None)
def field_ops(q: int) -> Field:
    """The table bundle for GF(q); q must be one of the supported orders."""
    if q not in SUPPORTED_ORDERS:
        raise ValueError("unsupported field order %d" % q)
    f = factorize(q)
    p, e = f.prime_powers[0]
    # The polynomial x stands in for the modulus of a prime field, unused.
    modulus = _MODULI[q] if e > 1 else (0, 1)
    spec = FieldSpec(p, e, modulus)
    return Field(spec)


class Matrix:
    """Immutable matrix over one of the supported fields, row major."""

    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence[int]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        if any(not 0 <= v < field.q for v in entries):
            raise ValueError("entry outside field")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = hash((field.q, rows, cols, entries))

    @classmethod
    def _raw(cls, field: Field, rows: int, cols: int, entries: tuple[int, ...]) -> "Matrix":
        # Internal constructor for entries read from the field tables.
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._hash = hash((field.q, rows, cols, entries))
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        flat = [v for row in rows for v in row]
        return cls(field, len(rows), len(rows[0]), flat)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._raw(field, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _columns(self) -> list[tuple[int, ...]]:
        c = self.cols
        return [self.entries[j::c] for j in range(c)]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field is not other.field:
            raise ValueError("incompatible shapes or fields")
        add, mul = self.field._add, self.field._mul
        n = self.cols
        cols = other._columns()
        entries = self.entries
        out = []
        for start in range(0, len(entries), n):
            factors = [mul[v] for v in entries[start : start + n]]
            for col in cols:
                acc = 0
                for fac, v in zip(factors, col):
                    acc = add[acc][fac[v]]
                out.append(acc)
        return Matrix._raw(self.field, self.rows, other.cols, tuple(out))

    def vec_mul(self, w: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix."""
        if len(w) != self.rows:
            raise ValueError("vector length does not match the matrix")
        add, mul = self.field._add, self.field._mul
        factors = [mul[v] for v in w]
        out = []
        for col in self._columns():
            acc = 0
            for fac, v in zip(factors, col):
                acc = add[acc][fac[v]]
            out.append(acc)
        return tuple(out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        f, n = self.field, self.rows
        add, mul, neg, inv = f._add, f._mul, f._neg, f._inv
        aug = [list(self.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            scale = mul[inv[aug[col][col]]]
            lead = aug[col] = [scale[v] for v in aug[col]]
            for r in range(n):
                c = aug[r][col]
                if r != col and c != 0:
                    # row_r - c * lead, as row_r + (-c) * lead.
                    minus_c = mul[neg[c]]
                    aug[r] = [add[v][minus_c[w]] for v, w in zip(aug[r], lead)]
        return Matrix._raw(f, n, n, tuple(v for row in aug for v in row[n:]))

    def is_identity(self) -> bool:
        """Square, with 1 at the diagonal entries k * (n + 1) and 0 elsewhere."""
        n = self.cols
        return self.rows == n and all(
            v == (i % (n + 1) == 0) for i, v in enumerate(self.entries)
        )

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ValueError:
            return False

    def order(self) -> int:
        """Multiplicative order; requires invertibility."""
        ident = Matrix.identity(self.field, self.rows)
        self.inverse()
        power, n = self, 1
        while power != ident:
            power = power * self
            n += 1
        return n

    def __pow__(self, n: int) -> "Matrix":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Matrix.identity(self.field, self.rows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Matrix(q=%d, %s)" % (self.field.q, [list(self.row(i)) for i in range(self.rows)])

    def __str__(self) -> str:
        """The entries, row major, joined by commas: the CLI's matrix form."""
        return ",".join(str(v) for v in self.entries)


def matrix_rank(field: Field, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of a set of row vectors, by Gaussian elimination.

    Stops reading vectors once the basis holds as many vectors as the
    vectors have coordinates: the rank is then full."""
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    # Each basis row with its lead position, the lead entry scaled to 1.
    basis: list[tuple[int, list[int]]] = []
    for vec in vectors:
        v = list(vec)
        for lead, b in basis:
            c = v[lead]
            if c != 0:
                minus_c = mul[neg[c]]
                v = [add[x][minus_c[y]] for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is not None:
            scale = mul[inv[v[lead]]]
            basis.append((lead, [scale[x] for x in v]))
            if len(basis) == len(v):
                break
    return len(basis)


@dataclass(frozen=True)
class AffineMap:
    """w -> w * linear + translation, acting on row vectors."""

    linear: Matrix
    translation: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.linear.rows != self.linear.cols:
            raise ValueError("linear part must be square")
        if len(self.translation) != self.linear.cols:
            raise ValueError("translation length must match the dimension")
        if any(not 0 <= v < self.field.q for v in self.translation):
            raise ValueError("translation entry outside field")
        if not self.linear.is_invertible():
            raise ValueError("linear part must be invertible")

    @classmethod
    def _raw(cls, linear: Matrix, translation: tuple[int, ...]) -> "AffineMap":
        # Internal constructor for parts built from valid maps: skips the
        # elimination in __post_init__.
        f = object.__new__(cls)
        object.__setattr__(f, "linear", linear)
        object.__setattr__(f, "translation", translation)
        return f

    @property
    def field(self) -> Field:
        return self.linear.field

    @property
    def dimension(self) -> int:
        return self.linear.rows

    def apply(self, w: Sequence[int]) -> tuple[int, ...]:
        add = self.field._add
        img = self.linear.vec_mul(w)
        return tuple([add[a][b] for a, b in zip(img, self.translation)])

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Apply self first, then other.

        A composite of invertible maps is invertible, so the product is
        built without the constructor's elimination."""
        lin = self.linear * other.linear
        add = self.field._add
        trans = other.linear.vec_mul(self.translation)
        return AffineMap._raw(lin, tuple([add[a][b] for a, b in zip(trans, other.translation)]))

    __mul__ = compose

    def is_identity(self) -> bool:
        return self.linear.is_identity() and not any(self.translation)

    def embed(self) -> Matrix:
        """Block matrix [[linear, 0], [translation, 1]] of size d+1.

        Acting on row vectors (w, 1) it reproduces the affine map, so orders
        and regular-vector questions transfer to the linear setting."""
        f, d = self.field, self.dimension
        entries: list[int] = []
        for i in range(d):
            entries.extend(self.linear.row(i))
            entries.append(0)
        entries.extend(self.translation)
        entries.append(1)
        return Matrix._raw(f, d + 1, d + 1, tuple(entries))

    def order(self) -> int:
        return self.embed().order()

    def __str__(self) -> str:
        """``<linear entries>+<translation>``: the CLI's affine map form."""
        return f"{self.linear}+{','.join(str(v) for v in self.translation)}"


@dataclass(frozen=True)
class SemilinearMap:
    """w -> frobenius^power(w) * matrix, on row vectors over one field."""

    matrix: Matrix
    frobenius_power: int

    def __post_init__(self) -> None:
        if not self.matrix.is_invertible():
            raise ValueError("matrix part must be invertible")

    @property
    def field(self) -> Field:
        return self.matrix.field

    def apply(self, w: Sequence[int]) -> tuple[int, ...]:
        f = self.field
        tw = tuple(f.frobenius(v, self.frobenius_power) for v in w)
        return self.matrix.vec_mul(tw)


def projective_points(field: Field) -> list[tuple[int, int]]:
    """Points of the projective line: (1, x) for each x, then (0, 1)."""
    return [(1, x) for x in range(field.q)] + [(0, 1)]


def _normalize(field: Field, v: tuple[int, int]) -> tuple[int, int]:
    u, w = v
    if u != 0:
        return (1, field.mul(field.inv(u), w))
    return (0, 1)


def projective_action(m: Matrix | SemilinearMap) -> Permutation:
    """The permutation of the q+1 projective-line points induced by a 2x2
    invertible matrix or semilinear map, in the projective_points order."""
    field = m.field
    if isinstance(m, Matrix):
        if m.rows != 2 or m.cols != 2:
            raise ValueError("projective action needs a 2x2 matrix")
        if not m.is_invertible():
            raise ValueError("matrix must be invertible")
        image = lambda v: m.vec_mul(v)
    else:
        if m.matrix.rows != 2 or m.matrix.cols != 2:
            raise ValueError("projective action needs a 2x2 matrix")
        image = m.apply
    pts = projective_points(field)
    index = {pt: i for i, pt in enumerate(pts)}
    return Permutation([index[_normalize(field, image(pt))] for pt in pts])
