"""Permutations, cycle structure and the small number theory used everywhere else.

Conventions shared across the package:

* permutations act on the right, so ``x ** (p * q) == (x ** p) ** q`` and
  ``(p * q)`` means "apply p, then q";
* images are stored 0-indexed, all text I/O (cycle notation, reports) is
  1-indexed;
* cycle types include fixed points, so the parts of a type sum to the degree.

`power` is the one square-and-multiply: every ``**`` on an element, the
power of an image array and the Frobenius table of a field go through it.

Orbits of an image array are read two ways. `orbit_partition` walks them,
in walk order, for cycle notation. `orbit_labels` and `orbit_length_array`
give each point's orbit minimum and orbit length by numpy pointer doubling,
for every caller that needs only the sizes.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

SIEVE_LIMIT = 1_000_000


def power(x, e: int, one, mul=operator.mul):
    """x to the e-th power, e >= 0, by right-to-left binary square and
    multiply (Knuth, TAOCP Vol. 2, section 4.6.3).

    `one` is the identity and `mul(a, b)` the product "a, then b". Any
    other start value s gives s, then x^e. The squaring after the last bit
    is skipped, so the cost is bit_length(e) - 1 squarings and popcount(e)
    multiplications.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not 0 <= v < n or seen[v]:
                raise ValueError("images do not describe a bijection of 0..%d" % (n - 1))
            seen[v] = True
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # Internal constructor for images known to be a bijection already.
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build from 1-indexed cycles; points absent from every cycle stay fixed."""
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for pt in cyc:
                if not 1 <= pt <= degree:
                    raise ValueError("point %d out of range 1..%d" % (pt, degree))
                if pt in seen:
                    raise ValueError("point %d appears twice" % pt)
                seen.add(pt)
            for i, pt in enumerate(cyc):
                images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
        return cls._raw(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # Apply self first, then other.
        oi = other.images
        if len(oi) != len(self.images):
            raise ValueError(f"degrees {len(self.images)} and {len(oi)} differ")
        return Permutation._raw(tuple(oi[v] for v in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._raw(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Permutation.identity(self.degree))

    def conj(self, c: "Permutation") -> "Permutation":
        """Conjugate ``c^-1 * self * c``."""
        return c.inverse() * self * c

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles(include_fixed=False)) % 2 == 0

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Cycle decomposition, 0-indexed, each cycle starting at its least point."""
        return [
            tuple(orbit)
            for orbit in orbit_partition(self.images)
            if include_fixed or len(orbit) > 1
        ]

    def cycle_type(self) -> "CycleType":
        return CycleType.from_permutation(self)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=False)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Permutation(%r)" % (render_cycles(self),)

    def __str__(self) -> str:
        return render_cycles(self)


def orbit_partition(images: Sequence[int]) -> list[list[int]]:
    """Orbits of the cyclic group generated by an image array.

    Orbits are listed by their smallest member, each starting at that member
    and walking forward, so the output is deterministic. This is the one
    orbit walk over an image array, kept for callers that need the walk
    order (`Permutation.cycles`); callers that read only orbit sizes use
    `orbit_labels` and `orbit_length_array`. A list, a tuple or an ndarray
    is accepted, and an ndarray is converted to Python ints once up front.
    """
    if isinstance(images, np.ndarray):
        images = images.tolist()
    seen = bytearray(len(images))
    orbits = []
    for start in range(len(images)):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        x = images[start]
        while x != start:
            seen[x] = 1
            orbit.append(x)
            x = images[x]
        orbits.append(orbit)
    return orbits


def orbit_labels(images: Sequence[int]) -> np.ndarray:
    """The least point of the orbit through each point of an image array.

    Pointer doubling (Hillis and Steele 1986): after r rounds of
    ``lab = minimum(lab, lab[f]); f = f[f]``, lab[x] is the least of x and
    its next 2**r - 1 images, so ceil(log2 n) rounds cover every orbit.
    All numpy, no walk: on thousands of points it is several times faster
    than `orbit_partition`, on a dozen points a few times slower.
    """
    f = np.asarray(images, dtype=np.intp)
    lab = np.arange(len(f))
    for _ in range((len(f) - 1).bit_length()):
        np.minimum(lab, lab[f], out=lab)
        f = f[f]
    return lab


def orbit_length_array(images: Sequence[int]) -> np.ndarray:
    """The length of the orbit through each point of an image array."""
    lab = orbit_labels(images)
    return np.bincount(lab, minlength=len(lab))[lab]


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, non-increasing, fixed points included."""

    parts: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise ValueError("cycle lengths must be positive")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be non-increasing")
        if sum(self.parts) != self.degree:
            raise ValueError("parts must sum to the degree")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "CycleType":
        parts = tuple(sorted(parts, reverse=True))
        return cls(parts, sum(parts))

    @classmethod
    def from_permutation(cls, p: Permutation) -> "CycleType":
        lengths = sorted((len(c) for c in p.cycles(include_fixed=True)), reverse=True)
        return cls(tuple(lengths), p.degree)

    @property
    def order(self) -> int:
        return math.lcm(*self.parts) if self.parts else 1


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1 2 3)(4 5)``.

    Points may be separated by spaces or commas.  The empty string (or a
    string of empty parens) is the identity.  Raises ValueError on repeated
    points, points out of range, or unbalanced parentheses.
    """
    cycles: list[list[int]] = []
    current: list[int] | None = None
    num = ""
    for ch in text:
        if ch == "(":
            if current is not None:
                raise ValueError("nested or unbalanced parenthesis")
            current = []
        elif ch == ")":
            if current is None:
                raise ValueError("unbalanced parenthesis")
            if num:
                current.append(int(num))
                num = ""
            if current:
                cycles.append(current)
            current = None
        elif ch.isdigit():
            if current is None:
                raise ValueError("digit outside parentheses")
            num += ch
        elif ch in " ,\t":
            if num:
                if current is None:
                    raise ValueError("digit outside parentheses")
                current.append(int(num))
                num = ""
        else:
            raise ValueError("unexpected character %r" % ch)
    if current is not None:
        raise ValueError("unbalanced parenthesis")
    if num:
        raise ValueError("digit outside parentheses")
    return Permutation.from_cycles(cycles, degree)


def render_cycles(p: Permutation) -> str:
    """Cycle notation, 1-indexed, fixed points omitted, identity rendered as ()."""
    cycles = p.cycles(include_fixed=False)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(v + 1) for v in cyc) + ")" for cyc in cycles)


# --- primes and factorization -------------------------------------------------


@lru_cache(maxsize=None)
def _spf_table() -> np.ndarray:
    """Smallest-prime-factor table for 0..SIEVE_LIMIT."""
    spf = np.zeros(SIEVE_LIMIT + 1, dtype=np.int32)
    for i in range(2, math.isqrt(SIEVE_LIMIT) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    unset = spf == 0
    spf[unset] = np.arange(SIEVE_LIMIT + 1, dtype=np.int32)[unset]
    return spf


@lru_cache(maxsize=None)
def _sieved_primes() -> tuple[int, ...]:
    """Every prime up to SIEVE_LIMIT, ascending; the only cached prime list."""
    spf = _spf_table()
    idx = np.arange(SIEVE_LIMIT + 1)
    return tuple(idx[(spf == idx) & (idx >= 2)].tolist())


def primes_upto(limit: int) -> tuple[int, ...]:
    if limit > SIEVE_LIMIT:
        raise ValueError("sieve limit is %d" % SIEVE_LIMIT)
    primes = _sieved_primes()
    return primes[: bisect_right(primes, limit)]


def first_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` primes."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    primes = _sieved_primes()
    if count > len(primes):
        raise ValueError("sieve limit is %d" % SIEVE_LIMIT)
    return primes[:count]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization, primes strictly increasing."""

    prime_powers: tuple[tuple[int, int], ...]
    value: int

    @property
    def omega(self) -> int:
        return len(self.prime_powers)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.prime_powers)


def factorize(n: int) -> Factorization:
    """Deterministic factorization: table lookups below the sieve limit,
    trial division by sieved primes above it (supports n up to SIEVE_LIMIT**2)."""
    if n < 1:
        raise ValueError("n must be positive")
    value = n
    pairs: list[tuple[int, int]] = []
    if n <= SIEVE_LIMIT:
        spf = _spf_table()
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    else:
        if n > SIEVE_LIMIT * SIEVE_LIMIT:
            raise ValueError("n too large for the precomputed sieve")
        for p in primes_upto(min(SIEVE_LIMIT, math.isqrt(n) + 1)):
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
        if n > 1:
            pairs.append((n, 1))
    return Factorization(tuple(pairs), value)


def nk_threshold(k: int) -> int:
    """Sum of the first k+1 primes: the least degree at which some element of
    the symmetric group has no regular cycle on k-sets."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(first_primes(k + 1))


# --- cycle-type enumeration ---------------------------------------------------


def cycle_types(m: int) -> Iterator[CycleType]:
    """All cycle types of Sym(m), in reverse-lexicographic order of parts."""

    def gen(remaining: int, cap: int, prefix: list[int]) -> Iterator[CycleType]:
        if remaining == 0:
            yield CycleType(tuple(prefix), m)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from gen(remaining - part, part, prefix)
            prefix.pop()

    yield from gen(m, m, [])


def cycle_type_count(m: int) -> int:
    """p(m), the number of cycle types of degree m, by the partition
    recurrence rather than by listing them."""
    counts = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            counts[total] += counts[total - part]
    return counts[m]


def canonical_permutation(ct: CycleType) -> Permutation:
    """The permutation whose cycles are consecutive runs 1..l1, l1+1..l1+l2, ..."""
    images = []
    start = 0
    for part in ct.parts:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return Permutation._raw(tuple(images))
