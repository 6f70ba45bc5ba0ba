"""Rigorous numeric checks for the analytic counting pipelines.

Every inequality is evaluated with outward-rounded interval arithmetic
(mpmath's interval context) or exact integer and rational arithmetic, and
reported as pass, fail, or inconclusive. "pass" means the claim holds with
a certified gap of at least the stated margin; "fail" means the claim is
certainly violated; anything the intervals cannot separate is
"inconclusive". Wide sweeps over n use vectorized float64 with a
conservative error allowance folded into the reported gap.

Two checks filter cheaply first and escalate only what the filter cannot
decide (the adaptive scheme of Shewchuk 1997), so every line they return is
the one the full interval evaluation gives:
- technical_sweep evaluates each degree's whole grid in float64, with an
  allowance of TECHNICAL_ALLOWANCE times (the sum of the term magnitudes
  + 1). Only points whose float gap less the allowance is below the margin,
  and the candidates for the worst point of each (m, alpha), go on to the
  260-bit interval comparison.
- stirling_check certifies the factorial brackets (Robbins 1955) in the
  log domain at 260 bits once both linear gaps certainly overflow a double;
  otherwise it escalates to the linear-scale comparison at the precision
  of n!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import mpmath
import numpy as np
from mpmath import iv

from .permcore import factorize, primes_upto

MARGIN = 1e-9

# The float filter of technical_sweep: a float64 gap differs from the
# certified interval gap by at most this times (the sum of the magnitudes
# of its terms + 1). numpy's log is good to a few ulp (2^-52), so the
# allowance is more than a thousand times the float error.
TECHNICAL_ALLOWANCE = 2.0**-40

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"

# log n / (log log n - ROBIN_SHIFT) bounds the number of distinct primes.
ROBIN_SHIFT = Fraction(11714, 10000)
ROBIN_MIN_N = 26


class _Prec:
    """Temporarily raise the interval context precision."""

    def __init__(self, bits: int):
        self.bits = bits

    def __enter__(self):
        self.saved = iv.prec
        iv.prec = self.bits

    def __exit__(self, *exc):
        iv.prec = self.saved
        return False


def _ivf(x) -> "iv.mpf":
    """Exact interval from an int or Fraction."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _gap_low(lhs, rhs) -> float:
    """Certified lower bound for rhs - lhs, as a float."""
    try:
        g = mpmath.fsub(rhs.a, lhs.b, rounding="d")
    except (OverflowError, ValueError):
        return math.inf
    return float(g)


@dataclass(frozen=True)
class CheckLine:
    """One verified inequality: claim is always 'lhs < rhs'."""

    name: str
    status: str
    gap_low: float
    note: str = ""
    values: tuple[tuple[str, float], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_PASS


@dataclass(frozen=True)
class SweepReport:
    name: str
    lines: tuple[CheckLine, ...]

    @property
    def all_pass(self) -> bool:
        return all(line.ok for line in self.lines)

    @property
    def failures(self) -> tuple[CheckLine, ...]:
        return tuple(line for line in self.lines if not line.ok)

    @property
    def min_gap(self) -> float:
        return min((line.gap_low for line in self.lines), default=math.inf)


def _compare(name: str, lhs, rhs, margin: float = MARGIN, note: str = "",
             values: tuple[tuple[str, float], ...] = ()) -> CheckLine:
    """Status of the claim lhs < rhs from two interval values."""
    gap = _gap_low(lhs, rhs)
    if gap >= margin:
        status = STATUS_PASS
    elif lhs.a >= rhs.b:
        status = STATUS_FAIL
    else:
        status = STATUS_INCONCLUSIVE
    return CheckLine(name=name, status=status, gap_low=gap, note=note, values=values)


# ---------------------------------------------------------------------------
# Distinct prime divisor bound


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n).primes)


def _omega_block(lo: int, hi: int) -> np.ndarray:
    """omega(n) for n = lo..hi (lo >= 1), as int8.

    Primes up to the block length get one strided slice each; every larger
    prime has at most one multiple in the block, so those are added in one
    vectorized pass (np.add.at, as two of them may divide the same n).
    """
    size = hi - lo + 1
    counts = np.zeros(size, dtype=np.int8)
    primes = primes_upto(hi)
    small = primes_upto(size)
    for p in small:
        counts[-lo % p::p] += 1
    large = np.array(primes[len(small):], dtype=np.int64)
    first = -(-lo // large) * large
    np.add.at(counts, first[first <= hi] - lo, 1)
    return counts


def robin_check(n: int, margin: float = MARGIN) -> CheckLine:
    """omega(n) < log n / (log log n - shift), valid from n = 26."""
    if n < ROBIN_MIN_N:
        raise ValueError(f"bound valid for n >= {ROBIN_MIN_N}")
    with _Prec(260):
        ln = iv.log(iv.mpf(n))
        rhs = ln / (iv.log(ln) - _ivf(ROBIN_SHIFT))
        lhs = iv.mpf(omega(n))
        return _compare(f"robin:{n}", lhs, rhs, margin)


def robin_sweep(lo: int = ROBIN_MIN_N, hi: int = 10**6,
                margin: float = MARGIN) -> SweepReport:
    """Vectorized sweep of the prime-divisor bound on [lo, hi].

    float64 elementary functions are correct to a few ulp; the certified
    gap folds in a relative and absolute allowance far above that, so a
    reported pass is sound.
    """
    if lo < ROBIN_MIN_N:
        raise ValueError(f"bound valid for n >= {ROBIN_MIN_N}")
    n = np.arange(lo, hi + 1, dtype=np.float64)
    w = _omega_block(lo, hi).astype(np.float64)
    ln = np.log(n)
    rhs = ln / (np.log(ln) - float(ROBIN_SHIFT))
    rhs_low = rhs * (1.0 - 1e-12) - 1e-12
    gaps = rhs_low - w
    worst = int(np.argmin(gaps))
    gap = float(gaps[worst])
    status = STATUS_PASS if gap >= margin else STATUS_INCONCLUSIVE
    line = CheckLine(
        name=f"robin_sweep:{lo}..{hi}",
        status=status,
        gap_low=gap,
        note=f"tightest at n={lo + worst}",
        values=(("n", float(lo + worst)),),
    )
    return SweepReport(name="robin_sweep", lines=(line,))


# ---------------------------------------------------------------------------
# Largest element order vs the explicit upper estimate


@lru_cache(maxsize=None)
def _landau_table(limit: int) -> tuple[int, ...]:
    """dp[j] = largest lcm of a partition of j, each prime used once."""
    dp = [1] * (limit + 1)
    for p in primes_upto(limit):
        prev = dp[:]
        power = p
        while power <= limit:
            for j in range(power, limit + 1):
                cand = prev[j - power] * power
                if cand > dp[j]:
                    dp[j] = cand
            power *= p
    return tuple(dp)


def landau_exact(m: int) -> int:
    """Largest order of a permutation of m points, exact."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > 1000:
        raise ValueError("exact table capped at m = 1000")
    return _landau_table(max(m, 1))[m]


def _massias_upper(m: int):
    """Interval value of the explicit upper estimate for log(max order)."""
    mi = iv.mpf(m)
    lm = iv.log(mi)
    return iv.sqrt(mi * lm) * (1 + (iv.log(lm) - _ivf(Fraction(975, 1000))) / (2 * lm))


def massias_check(m: int, margin: float = MARGIN) -> CheckLine:
    """log(landau(m)) < explicit upper estimate; valid from m = 4.

    m = 3 is accepted but genuinely fails: the estimate dips below log 3.
    """
    if m < 3:
        raise ValueError("estimate needs m >= 3")
    with _Prec(260):
        lhs = iv.log(iv.mpf(landau_exact(m)))
        rhs = _massias_upper(m)
        return _compare(f"massias:{m}", lhs, rhs, margin)


def massias_sweep(lo: int = 4, hi: int = 200, margin: float = MARGIN) -> SweepReport:
    lines = tuple(massias_check(m, margin) for m in range(lo, hi + 1))
    return SweepReport(name="massias_sweep", lines=lines)


# ---------------------------------------------------------------------------
# Factorial brackets


def _stirling_gaps_overflow(n: int, fact: int) -> bool:
    """Both linear gaps of the factorial brackets certainly exceed e 2^1024."""
    with _Prec(260):
        ni = iv.mpf(n)
        log_base = iv.log(2 * iv.pi * ni) / 2 + ni * (iv.log(ni) - 1)
        log_fact = iv.log(iv.mpf(fact))
        d_low = log_fact - (log_base + 1 / (12 * ni + 1))
        d_up = log_base + 1 / (12 * ni) - log_fact
        if not (d_low.a > 0 and d_up.a > 0):
            return False
        floor = (1024 * iv.log(iv.mpf(2)) + 1).b
        return ((log_fact + iv.log(1 - iv.exp(-d_low))).a > floor
                and (log_fact + iv.log(d_up)).a > floor)


def stirling_check(n: int, margin: float = MARGIN) -> CheckLine:
    """sqrt(2 pi n)(n/e)^n e^(1/(12n+1)) < n! < same with e^(1/(12n)).

    The gaps are linear-scale: the logarithmic gap shrinks like
    1/(360 n^3) and drops below any fixed margin near n = 141, while the
    absolute gap grows without bound. Once n! has more than 1100 bits
    (n >= 181), both linear gaps are first certified in the log domain at
    260 bits: with log gaps d > 0 they are at least n!(1 - e^-d) and n! d,
    and when both logarithms exceed 1024 log 2 + 1 the gaps lie beyond the
    largest double, so the reported gap is inf. Otherwise, and for smaller
    n, the comparison runs on the linear scale at 1.2 bitlen(n!) + 64 bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    fact = math.factorial(n)
    if (fact.bit_length() > 1100 and math.inf >= margin
            and _stirling_gaps_overflow(n, fact)):
        return CheckLine(name=f"stirling:{n}", status=STATUS_PASS, gap_low=math.inf)
    bits = max(260, int(1.2 * fact.bit_length()) + 64)
    with _Prec(bits):
        ni = iv.mpf(n)
        base = iv.sqrt(2 * iv.pi * ni) * iv.exp(ni * (iv.log(ni) - 1))
        lower = base * iv.exp(1 / (12 * ni + 1))
        upper = base * iv.exp(1 / (12 * ni))
        f = iv.mpf(fact)
        left = _compare(f"stirling_lower:{n}", lower, f, margin)
        right = _compare(f"stirling_upper:{n}", f, upper, margin)
    status_order = (STATUS_FAIL, STATUS_INCONCLUSIVE, STATUS_PASS)
    status = min((left.status, right.status), key=status_order.index)
    return CheckLine(
        name=f"stirling:{n}",
        status=status,
        gap_low=min(left.gap_low, right.gap_low),
    )


def stirling_sweep(lo: int = 1, hi: int = 1000, margin: float = MARGIN) -> SweepReport:
    lines = tuple(stirling_check(n, margin) for n in range(lo, hi + 1))
    return SweepReport(name="stirling_sweep", lines=lines)


# ---------------------------------------------------------------------------
# Entropy-style comparison used to bound counts of small-support elements


def technical_inequality_alphas() -> tuple[Fraction, ...]:
    return (Fraction(4, 7),) + tuple(
        Fraction(c - 2, c) for c in range(3, 31)
    )


def _xlogx_minus_x(j: int):
    """j(log j - 1) as an interval at the current precision, with 0 log 0 = 0."""
    if j == 0:
        return iv.mpf(0)
    ji = iv.mpf(j)
    return ji * (iv.log(ji) - 1)


def _xlogx_minus_x_float(j: np.ndarray) -> np.ndarray:
    """j(log j - 1) in float64 for an integer array, with 0 log 0 = 0."""
    return j * (np.log(np.maximum(j, 1)) - 1)


def technical_check(
    m: int, p: int, k: int, alpha: Fraction, margin: float = MARGIN
) -> CheckLine:
    """k log p + r(log r - 1) + k(log k - 1) - m(log m - 1)
    < ((alpha - 1)/2) m(log m - 1), with r = m - kp, 0 log 0 = 0.
    """
    if m < 3:
        raise ValueError("inequality holds from m = 3")
    r = m - k * p
    if r < 0 or k < 1:
        raise ValueError("need k >= 1 and kp <= m")
    if Fraction(r) > alpha * m:
        raise ValueError("r exceeds alpha * m")
    with _Prec(260):
        lhs = (
            iv.mpf(k) * iv.log(iv.mpf(p))
            + _xlogx_minus_x(r)
            + _xlogx_minus_x(k)
            - _xlogx_minus_x(m)
        )
        rhs = (_ivf(alpha) - 1) / 2 * _xlogx_minus_x(m)
        return _compare(f"technical:m={m},p={p},k={k},a={alpha}", lhs, rhs, margin)


def technical_sweep(
    lo: int = 3,
    hi: int = 200,
    primes: Sequence[int] = (2, 3, 5, 7, 11, 13),
    alphas: Optional[Sequence[Fraction]] = None,
    margin: float = MARGIN,
) -> SweepReport:
    """technical_check at every grid point (m, alpha, p, k) with kp <= m and
    r <= alpha m, keeping the worst line of each (m, alpha) (the first one
    on ties) and every line that is not a pass.

    Each degree m is filtered in float64 over the whole (alpha, p, k) grid.
    A point goes to the interval comparison only if its float gap, less
    TECHNICAL_ALLOWANCE, is below the margin (it may not pass) or at most
    the smallest float gap plus the allowance (it may be the worst); every
    other point certainly passes and is certainly not the worst.
    """
    if alphas is None:
        alphas = technical_inequality_alphas()
    num = np.array([a.numerator for a in alphas], dtype=np.int64)[:, None]
    den = np.array([a.denominator for a in alphas], dtype=np.int64)[:, None]
    half = np.array([float((a - 1) / 2) for a in alphas])[:, None]
    lines = []
    with _Prec(260):
        log_p = {p: iv.log(iv.mpf(p)) for p in primes}
        # Cached for this sweep only, where every value is at 260 bits.
        xlx = lru_cache(maxsize=None)(_xlogx_minus_x)

        for m in range(lo, hi + 1):
            pk = [(p, k) for p in primes for k in range(1, m // p + 1)]
            if not pk:
                continue
            p_arr, k_arr = np.array(pk, dtype=np.int64).T
            r_arr = m - k_arr * p_arr
            m_float = _xlogx_minus_x_float(np.int64(m))
            terms = (
                k_arr * np.log(p_arr),
                _xlogx_minus_x_float(r_arr),
                _xlogx_minus_x_float(k_arr),
                -m_float,
            )
            rhs_float = half * m_float
            gaps = rhs_float - sum(terms)
            allowance = TECHNICAL_ALLOWANCE * (
                sum(np.abs(t) for t in terms) + np.abs(rhs_float) + 1
            )
            kept = r_arr * den <= num * m
            low = np.where(kept, gaps - allowance, np.inf)
            high = np.where(kept, gaps + allowance, np.inf)
            escalate = kept & (
                ~(low >= margin) | (low <= high.min(axis=1, keepdims=True))
            )

            m_term = xlx(m)
            for a in np.flatnonzero(escalate.any(axis=1)):
                alpha = alphas[a]
                rhs = (_ivf(alpha) - 1) / 2 * m_term
                worst: Optional[CheckLine] = None
                for i in np.flatnonzero(escalate[a]):
                    p, k = pk[i]
                    r = m - k * p
                    lhs = iv.mpf(k) * log_p[p] + xlx(r) + xlx(k) - m_term
                    line = _compare(
                        f"technical:m={m},p={p},k={k},a={alpha}",
                        lhs,
                        rhs,
                        margin,
                    )
                    if worst is None or line.gap_low < worst.gap_low:
                        worst = line
                    if line.status != STATUS_PASS:
                        lines.append(line)
                if worst.ok:
                    lines.append(worst)
    return SweepReport(name="technical_sweep", lines=tuple(lines))


# ---------------------------------------------------------------------------
# The spanning-count product pipeline


def spanning_count(m: int) -> int:
    """m * prod(m - 2^i) over 0 <= i < floor(log2 m), exact."""
    if m < 2:
        raise ValueError("m must be at least 2")
    out = m
    i = 0
    while (1 << (i + 1)) <= m:
        out *= m - (1 << i)
        i += 1
    return out


# Below this degree the explicit estimate of log(max order) is too small for
# the prime-divisor bound: the log log of it falls under ROBIN_SHIFT.
ALPHA_BETA_MIN_M = 7


def _alpha_interval(m: int):
    """Prime-divisor bound applied to the upper estimate of log(max order)."""
    up = _massias_upper(m)
    return up / (iv.log(up) - _ivf(ROBIN_SHIFT))


def _log_beta_interval(m: int, exact_constant: bool):
    """log of the decay factor multiplying the spanning count.

    The leading constant is 1.2, or in the exact form
    e^(1/12) * e^(1/12) / e^(1/(12m+1)) which dominates the factorial
    bracket ratio for every m.
    """
    mi = iv.mpf(m)
    if exact_constant:
        log_const = 2 * _ivf(Fraction(1, 12)) - 1 / (12 * mi + 1)
    else:
        log_const = iv.log(_ivf(Fraction(12, 10)))
    return (
        log_const
        + iv.log(16 * iv.pi * mi / 7) / 2
        + iv.log(iv.mpf(spanning_count(m)))
        - _ivf(Fraction(3, 14)) * mi * (iv.log(mi) - 1)
    )


@dataclass(frozen=True)
class AlphaBetaRow:
    m: int
    n_value: int
    alpha_low: float
    alpha_high: float
    log_beta_low: float
    log_beta_high: float
    product_log_high: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == STATUS_PASS


@dataclass(frozen=True)
class AlphaBetaReport:
    rows: tuple[AlphaBetaRow, ...]
    monotone_within_stretches: bool

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.rows)


def _alpha_beta(m: int, margin: float, exact_constant: bool):
    """The row for degree m and its interval log(alpha_m * beta_m)."""
    if m < ALPHA_BETA_MIN_M:
        raise ValueError(f"alpha_m needs m >= {ALPHA_BETA_MIN_M}")
    with _Prec(300):
        alpha = _alpha_interval(m)
        log_beta = _log_beta_interval(m, exact_constant)
        total = iv.log(alpha) + log_beta
        line = _compare(f"alpha_beta:{m}", total, iv.mpf(0), margin)
        row = AlphaBetaRow(
            m=m,
            n_value=spanning_count(m),
            alpha_low=float(alpha.a),
            alpha_high=float(alpha.b),
            log_beta_low=float(log_beta.a),
            log_beta_high=float(log_beta.b),
            product_log_high=float(total.b),
            status=line.status,
        )
        return row, total


def alpha_beta_row(m: int, margin: float = MARGIN,
                   exact_constant: bool = False) -> AlphaBetaRow:
    return _alpha_beta(m, margin, exact_constant)[0]


def alpha_beta_scan(lo: int = 47, hi: int = 10**4, margin: float = MARGIN,
                    exact_constant: bool = False) -> AlphaBetaReport:
    """alpha_m * beta_m < 1 on [lo, hi], checked in log space.

    The product is not globally monotone (the spanning count picks up an
    extra factor whenever m crosses a power of 2), so the decreasing check
    runs separately inside each stretch of constant floor(log2 m), from
    m = 100 up, on the certified interval of the log product.
    """
    rows = []
    prev_total = None
    monotone = True
    for m in range(lo, hi + 1):
        row, total = _alpha_beta(m, margin, exact_constant)
        rows.append(row)
        if m >= 100 and prev_total is not None:
            if m.bit_length() == (m - 1).bit_length():
                if not total.b < prev_total.a:
                    monotone = False
        prev_total = total
    return AlphaBetaReport(rows=tuple(rows), monotone_within_stretches=monotone)


def wreath_case_bound(c: int, copies: int, d: int,
                      margin: float = MARGIN) -> CheckLine:
    """Count bound for product-type actions on m = C(c, d)^copies points:

    log 2.4 + log(2 pi m)/2 + copies log(c!) + log(copies!)
        + log alpha_m < (m/c)(log m - 1).
    Only meaningful for m > 144.
    """
    m = math.comb(c, d) ** copies
    if m <= 144:
        raise ValueError(f"domain too small (m = {m} <= 144)")
    with _Prec(300):
        mi = iv.mpf(m)
        lhs = (
            iv.log(_ivf(Fraction(24, 10)))
            + iv.log(2 * iv.pi * mi) / 2
            + copies * iv.log(iv.mpf(math.factorial(c)))
            + iv.log(iv.mpf(math.factorial(copies)))
            + iv.log(_alpha_interval(m))
        )
        rhs = mi / c * (iv.log(mi) - 1)
        return _compare(f"wreath_case:c={c},l={copies},d={d}", lhs, rhs, margin)


# ---------------------------------------------------------------------------
# Diagonal-type crude bound and the exceptional-group demonstration


def diagonal_crude_bound(
    min_faithful_degree: int, omega_aut: int, copies: int
) -> CheckLine:
    """omega_aut / mT^copies + 4/15 + 1/59 < 1, exact rationals."""
    if min_faithful_degree < 5:
        raise ValueError("minimal faithful degree must be at least 5")
    if copies < 1 or omega_aut < 1:
        raise ValueError("need copies >= 1 and omega_aut >= 1")
    total = (
        Fraction(omega_aut, min_faithful_degree**copies)
        + Fraction(4, 15)
        + Fraction(1, 59)
    )
    gap = 1 - total
    if gap >= Fraction(1, 10**9):
        status = STATUS_PASS
    elif gap <= 0:
        status = STATUS_FAIL
    else:
        status = STATUS_INCONCLUSIVE
    return CheckLine(
        name=f"diagonal_crude:mT={min_faithful_degree},w={omega_aut},l={copies}",
        status=status,
        gap_low=float(gap),
        values=(("total", float(total)),),
    )


def e8_demo(q: int, margin: float = MARGIN) -> CheckLine:
    """58 log2(q) < q^8 (q^4 - 1) for prime powers q."""
    if q < 2 or q > 1024:
        raise ValueError("q must be a prime power in [2, 1024]")
    fac = factorize(q)
    if len(fac.primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    with _Prec(260):
        lhs = 58 * iv.log(iv.mpf(q)) / iv.log(iv.mpf(2))
        rhs = iv.mpf(q**8 * (q**4 - 1))
        return _compare(f"e8:{q}", lhs, rhs, margin)


def e8_sweep(hi: int = 1024, margin: float = MARGIN) -> SweepReport:
    lines = []
    for q in range(2, hi + 1):
        fac = factorize(q)
        if len(fac.primes) == 1:
            lines.append(e8_demo(q, margin))
    return SweepReport(name="e8_sweep", lines=tuple(lines))


# ---------------------------------------------------------------------------
# Minimal faithful degrees of the supported simple groups

_PSL2_SMALL_DEGREE = {5: 5, 7: 7, 9: 6, 11: 11}


def _aut_order_alt(n: int) -> int:
    if n < 5:
        raise ValueError("alternating groups are simple from degree 5")
    if n == 6:
        return 2 * math.factorial(6)
    return math.factorial(n)


def _aut_order_psl2(q: int) -> int:
    fac = factorize(q)
    if len(fac.primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    e = fac.prime_powers[0][1]
    return (q**3 - q) * e


@dataclass(frozen=True)
class GroupProfile:
    family: str
    parameter: int
    min_faithful_degree: int
    omega_aut: int


def group_profile(family: str, parameter: int) -> GroupProfile:
    """Minimal faithful degree and omega(|Aut|) for a named simple group.

    Families: 'alt' (degree n >= 5) and 'psl2' (prime power q >= 4).
    """
    if family == "alt":
        n = parameter
        if n < 5:
            raise ValueError("alternating groups are simple from degree 5")
        return GroupProfile("alt", n, n, omega(_aut_order_alt(n)))
    if family == "psl2":
        q = parameter
        if q < 4:
            raise ValueError("psl2 is simple from q = 4")
        mt = _PSL2_SMALL_DEGREE.get(q, q + 1)
        return GroupProfile("psl2", q, mt, omega(_aut_order_psl2(q)))
    raise ValueError(f"unknown family {family!r}")
