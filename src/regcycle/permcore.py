"""Permutations, cycle structure and the small number theory used everywhere else.

Conventions shared across the package:

* permutations act on the right, so ``x ** (p * q) == (x ** p) ** q`` and
  ``(p * q)`` means "apply p, then q";
* images are stored 0-indexed, all text I/O (cycle notation, reports) is
  1-indexed;
* cycle types include fixed points, so the parts of a type sum to the degree.

`power` is the one square-and-multiply: the ``**`` of a matrix, the power
of an image array and the Frobenius table of a field go through it. A
`Permutation` has a cheaper power: `cycle_power` reads g^e off its cycle
list in O(degree), for any integer e, and ``**`` is that read.

`factorize` is trial division at any size, with no table. `primes_upto`,
`first_primes` and `prime_array` read one sieve up to SIEVE_LIMIT, built on
first call and kept as one int64 array (and, for the first two, its tuple).

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
    """A permutation of {0, ..., n-1}, stored as its tuple of images.

    The last permutation whose cycles were walked keeps its cycle list in
    `_last_walk`, so a caller that takes g's cycles and the regular-cycle
    certificate that then reads them share one walk, while no element
    holds its list past the next walk of another. The pair is replaced in
    its one-item list, not rebound on the class: writing a class attribute
    would invalidate the interpreter's attribute caches for every
    permutation.
    """

    __slots__ = ("images", "_hash")
    _last_walk: list = [(None, ())]

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
        """g^n for any integer n, read off the cycle list by `cycle_power`."""
        return cycle_power(self.cycles(), self.degree, n)

    def conj(self, c: "Permutation") -> "Permutation":
        """Conjugate ``c^-1 * self * c``."""
        return c.inverse() * self * c

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles(include_fixed=False)) % 2 == 0

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Cycle decomposition, 0-indexed, each cycle starting at its least
        point: a new list each call."""
        last, cycles = Permutation._last_walk[0]
        if last is not self:
            cycles = [tuple(orbit) for orbit in orbit_partition(self.images)]
            Permutation._last_walk[0] = (self, cycles)
        if include_fixed:
            return list(cycles)
        return [cyc for cyc in cycles if len(cyc) > 1]

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


def cycle_power(cycles: Iterable[Sequence[int]], degree: int, e: int) -> Permutation:
    """g^e from the 0-indexed cycles of g (fixed points may be left out)
    on `degree` points: each cycle c sends c[i] to c[(i + e) % len(c)].
    One pass over the list, O(degree), for any integer e; a negative e
    needs no inverse, as e % len(c) is the forward shift."""
    images = list(range(degree))
    for cyc in cycles:
        shift = e % len(cyc)
        if shift:
            for x, y in zip(cyc, cyc[shift:] + cyc[:shift]):
                images[x] = y
    return Permutation._raw(tuple(images))


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


def orbit_labels(images: Sequence[int], bound: int = 0) -> np.ndarray:
    """The least point of the orbit through each point of an image array.

    Pointer doubling (Hillis and Steele 1986): after r rounds of
    ``lab = minimum(lab, lab[f]); f = f[f]``, lab[x] is the least of x and
    its next 2**r - 1 images, so ceil(log2 n) rounds cover every orbit.
    All numpy, no walk: on thousands of points it is several times faster
    than `orbit_partition`, on a dozen points a few times slower.

    A caller that knows a multiple of every orbit length, such as the
    element's order, passes it as `bound`. After ceil(log2 bound) rounds
    one gather, ``lab[images] == lab``, confirms that every orbit is
    covered: it fails exactly when some orbit is longer than the window,
    since then the window misses the orbit's least point from some start.
    If it fails, the remaining rounds run, so the labels are exact for any
    bound; 0 runs every round without the check.
    """
    step = np.asarray(images, dtype=np.intp)
    f = step
    lab = np.arange(len(f))
    rounds = (len(f) - 1).bit_length()
    window = (bound - 1).bit_length() if bound > 0 else rounds
    for r in range(rounds):
        if r == window and (lab[step] == lab).all():
            break
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
def _sieve_array() -> np.ndarray:
    """Every prime up to SIEVE_LIMIT, ascending, as one read-only int64 array,
    by a boolean sieve of Eratosthenes built on first use."""
    is_prime = np.ones(SIEVE_LIMIT + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(SIEVE_LIMIT) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    primes.flags.writeable = False
    return primes


@lru_cache(maxsize=None)
def _sieved_primes() -> tuple[int, ...]:
    """The sieve's primes as a tuple of ints; the only cached prime tuple."""
    return tuple(_sieve_array().tolist())


def primes_upto(limit: int) -> tuple[int, ...]:
    if limit > SIEVE_LIMIT:
        raise ValueError("sieve limit is %d" % SIEVE_LIMIT)
    primes = _sieved_primes()
    return primes[: bisect_right(primes, limit)]


def prime_array(limit: int) -> np.ndarray:
    """Every prime up to limit, as a read-only view of the sieve's int64 array."""
    if limit > SIEVE_LIMIT:
        raise ValueError("sieve limit is %d" % SIEVE_LIMIT)
    primes = _sieve_array()
    return primes[: np.searchsorted(primes, limit, side="right")]


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
    """Prime factorization by trial division, at any size: by 2, then by
    the odd numbers, while the divisor squared is at most what is left,
    which is then 1 or a prime. The prime factors of an element order are
    at most the degree, so it tries no divisor past the degree."""
    if n < 1:
        raise ValueError("n must be positive")
    value = n
    pairs: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
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
