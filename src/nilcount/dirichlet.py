"""Exact coefficient sieves and slope estimation for restricted Euler products.

Everything is specialized to the rationals: the prime-ideal condition
"norm congruent to 0 or 1 mod ell" becomes the set B = {ell} u {p = 1 mod ell}
of rational primes.  A factor (ell, d, m) stands for the Euler product
prod_{p in B} (1 + m p^{-d s}); its coefficient at n = u^d is m^omega(u) for
squarefree B-supported u and 0 otherwise.  Partial sums of multi-factor
products are exact integers throughout (numpy carries int64 segments, the
accumulators are Python ints), so the asymptotic-slope diagnostics sit on top
of exact data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, InsufficientData
from .intmath import iroot, is_prime

SIEVE_BUDGET = 1 << 27  # largest coefficient array materialized in one piece
SEGMENT = 1 << 23
TUPLE_BUDGET = 2_000_000
CHECKPOINT_START = 1000


@dataclass(frozen=True)
class FactorSpec:
    """One Euler factor: congruence prime ell, discriminant exponent d,
    weight base m."""

    ell: int
    d: int
    m: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError(f"ell = {self.ell} is not prime")
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be positive")

    @classmethod
    def parse(cls, text: str) -> "FactorSpec":
        """Parse "ell:d:m", e.g. "3:1:4"."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected ell:d:m, got {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))


@dataclass(frozen=True)
class SumSeries:
    """Exact partial sums S(x) at geometric checkpoints, with the predicted
    exponents (alpha, beta) = (1/min d, e - 1) attached."""

    specs: tuple[FactorSpec, ...]
    checkpoints: tuple[int, ...]
    values: tuple[int, ...]
    alpha_pred: Fraction
    beta_pred: Fraction


@dataclass(frozen=True)
class SlopeReport:
    alpha_hat: float
    beta_hat: float
    alpha_pred: float
    beta_pred: float
    fitted_constant: float  # empirical only, never asserted
    residual_std: float
    n_points: int


def prime_sieve(limit: int) -> np.ndarray:
    """Boolean primality array of length limit + 1."""
    if limit > SIEVE_BUDGET:
        raise BudgetExceeded(f"prime sieve to {limit} exceeds in-memory budget")
    isp = np.ones(limit + 1, dtype=bool)
    isp[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if isp[p]:
            isp[p * p::p] = False
    return isp


def squarefree_sieve(limit: int) -> np.ndarray:
    """Boolean squarefree array of length limit + 1 (index 0 is False)."""
    if limit > SIEVE_BUDGET:
        raise BudgetExceeded(f"squarefree sieve to {limit} exceeds in-memory "
                             "budget")
    sf = np.ones(limit + 1, dtype=bool)
    sf[0] = False
    for k in range(2, isqrt(limit) + 1):
        sf[k * k::k * k] = False
    return sf


def _predicted(specs: Sequence[FactorSpec]) -> tuple[Fraction, Fraction]:
    # over the rationals n_ell = ell - 1, so e = sum m_i/(ell_i - 1) at min d
    d = min(s.d for s in specs)
    e = sum(Fraction(s.m, s.ell - 1) for s in specs if s.d == d)
    return Fraction(1, d), e - 1


def coefficient_sieve(spec: FactorSpec, limit: int) -> np.ndarray:
    """c[n] = m^omega(n) for squarefree n supported on B, else 0, n <= limit.

    Multiplicative fill: squarefree mask by p^2 strides, support mask by
    striking multiples of primes outside B, and one weight factor m per
    B-prime divisor.
    """
    if limit > SIEVE_BUDGET:
        raise BudgetExceeded(f"limit {limit} exceeds in-memory budget; "
                             "use multi_factor_sum for partial sums")
    out = np.zeros(limit + 1, dtype=np.int64)
    for lo, hi, seg in _segments(spec, limit):
        out[lo:hi + 1] = seg
    return out


def _segments(spec: FactorSpec, limit: int):
    """Yield (lo, hi, values) coefficient segments of c for n in [lo, hi]."""
    ell, m = spec.ell, spec.m
    root = isqrt(limit)
    isp = prime_sieve(max(root, ell))
    small_primes = np.nonzero(isp)[0]
    small_primes = small_primes[small_primes <= root]

    lo = 0
    while lo <= limit:
        hi = min(lo + SEGMENT - 1, limit)
        size = hi - lo + 1
        ok = np.ones(size, dtype=bool)
        sq = np.ones(size, dtype=bool)
        val = np.ones(size, dtype=np.int64)
        res = np.arange(lo, hi + 1, dtype=np.int64)
        if lo == 0:
            ok[0] = False  # n = 0
        for p in small_primes:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            p2 = p * p
            start2 = ((lo + p2 - 1) // p2) * p2
            if start2 <= hi:
                sq[start2 - lo::p2] = False
            in_b = (p == ell) or (p % ell == 1)
            if in_b:
                if start <= hi:
                    val[start - lo::p] *= m
                    res[start - lo::p] //= p
            else:
                if start <= hi:
                    ok[start - lo::p] = False
        # a surviving squarefree entry now has res = 1 or one prime > root
        big = res > 1
        good_big = big & ((res % ell == 1) | (res == ell))
        ok &= ~(big & ~good_big)
        val[good_big] *= m
        val[~(ok & sq)] = 0
        yield lo, hi, val
        lo = hi + 1


def _prefix_sums_at(spec: FactorSpec, queries: Sequence[int]) -> dict[int, int]:
    """Exact prefix sums sum_{n <= q} c[n] for every query point q.

    One segmented sweep; per-segment sums use int64 (safe: coefficients are
    tiny) and the running total is a Python int, so the results are exact.
    """
    queries = sorted(set(int(q) for q in queries))
    out: dict[int, int] = {}
    pending = [q for q in queries if q >= 0]
    for q in queries:
        if q < 0:
            out[q] = 0
    if not pending:
        return out
    limit = pending[-1]
    total = 0
    qi = 0
    while qi < len(pending) and pending[qi] < 1:
        out[pending[qi]] = 0
        qi += 1
    for lo, hi, seg in _segments(spec, limit):
        csum = np.cumsum(seg, dtype=np.int64)
        while qi < len(pending) and pending[qi] <= hi:
            q = pending[qi]
            out[q] = total + int(csum[q - lo])
            qi += 1
        total += int(csum[-1])
    return out


def default_checkpoints(limit: int, start: int = CHECKPOINT_START) -> list[int]:
    """Geometric checkpoints with ratio 2 from `start`, ending exactly at limit."""
    if limit < start:
        return [limit] if limit >= 1 else []
    points = []
    x = start
    while x < limit:
        points.append(x)
        x *= 2
    points.append(limit)
    return points


def multi_factor_sum(specs: Sequence[FactorSpec], limit: int,
                     checkpoints: Sequence[int] | None = None) -> SumSeries:
    """Exact S(x) = sum of m_1^omega(a_1) ... m_r^omega(a_r) over B-supported
    squarefree tuples with a_1^{d_1} ... a_r^{d_r} <= x, at each checkpoint.

    One factor with minimal d is swept with a segmented prefix-sum pass; the
    remaining factors are expanded into their (value, weight) support and
    combined by exact integer floor division.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one factor")
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[-1] > limit:
        raise ValueError("checkpoints must be nonempty and within the limit")

    order = sorted(range(len(specs)), key=lambda i: (specs[i].d, i))
    pivot = specs[order[0]]
    others = [specs[i] for i in order[1:]]

    # weighted support of the non-pivot factors: P = prod n_i^{d_i} -> weight
    support: dict[int, int] = {1: 1}
    for sp in others:
        reach = iroot(limit, sp.d)
        if reach > SIEVE_BUDGET:
            raise BudgetExceeded("non-pivot factor support is too large")
        coeffs = coefficient_sieve(sp, reach)
        nz = np.nonzero(coeffs)[0]
        new: dict[int, int] = {}
        for p_val, w in support.items():
            for n in nz:
                contrib = p_val * int(n) ** sp.d
                if contrib > limit:
                    break
                new[contrib] = new.get(contrib, 0) + w * int(coeffs[n])
                if len(new) > TUPLE_BUDGET:
                    raise BudgetExceeded("tuple expansion exceeds budget")
        support = new

    queries = {iroot(x // p_val, pivot.d)
               for x in checkpoints for p_val in support if p_val <= x}
    prefix = _prefix_sums_at(pivot, queries)

    values = []
    for x in checkpoints:
        s = 0
        for p_val, w in support.items():
            if p_val <= x:
                s += w * prefix[iroot(x // p_val, pivot.d)]
        values.append(s)

    alpha, beta = _predicted(specs)
    return SumSeries(specs, tuple(checkpoints), tuple(values), alpha, beta)


def slope_estimate(series: SumSeries) -> SlopeReport:
    """Empirical exponents from the checkpointed partial sums.

    alpha_hat: mean successive log-slope across the last decade of
    checkpoints.  beta_hat: least-squares slope of log(S(x)/x^alpha) against
    log log x over the final 60% of checkpoints, using the PREDICTED alpha so
    the two estimates do not contaminate each other.  The fitted constant is
    reported for orientation only.
    """
    xs = np.array(series.checkpoints, dtype=float)
    vals = np.array([float(v) for v in series.values])
    if len(xs) < 12 or xs[-1] < 1e4 * xs[0]:
        raise InsufficientData(
            "need at least 12 checkpoints spanning 4 decades")
    if np.any(vals <= 0):
        raise InsufficientData("partial sums must be positive to take logs")

    in_decade = xs >= xs[-1] / 10
    lx, lv = np.log(xs[in_decade]), np.log(vals[in_decade])
    alpha_hat = float(np.mean(np.diff(lv) / np.diff(lx)))

    alpha = float(series.alpha_pred)
    tail = max(2, int(round(0.6 * len(xs))))
    lx_t = np.log(xs[-tail:])
    y = np.log(vals[-tail:]) - alpha * lx_t
    llx = np.log(lx_t)
    beta_hat, intercept = np.polyfit(llx, y, 1)
    resid = y - (beta_hat * llx + intercept)
    return SlopeReport(
        alpha_hat=alpha_hat,
        beta_hat=float(beta_hat),
        alpha_pred=alpha,
        beta_pred=float(series.beta_pred),
        fitted_constant=float(np.exp(intercept)),
        residual_std=float(np.std(resid)),
        n_points=len(xs),
    )


def running_beta(series: SumSeries) -> list[float | None]:
    """Per-checkpoint beta estimate over the trailing 60% window up to that
    point (None while there is not enough data)."""
    out: list[float | None] = []
    alpha = float(series.alpha_pred)
    xs = np.array(series.checkpoints, dtype=float)
    vals = np.array([float(v) for v in series.values])
    for i in range(len(xs)):
        tail = max(2, int(round(0.6 * (i + 1))))
        if i + 1 < 4 or np.any(vals[:i + 1] <= 0):
            out.append(None)
            continue
        lx = np.log(xs[i + 1 - tail:i + 1])
        y = np.log(vals[i + 1 - tail:i + 1]) - alpha * lx
        slope, _ = np.polyfit(np.log(lx), y, 1)
        out.append(float(slope))
    return out


def factor_identity_check(m: int, n_terms: int = 64) -> bool:
    """Verify the per-prime polynomial identity behind the factorization:
    (1 + m t)(1 - t)^m has constant term 1, no linear term, second coefficient
    -C(m+1, 2), degree m + 1, and leading coefficient (-1)^m m.

    The vanishing linear term is the point (it is what makes the leftover
    product converge on the critical line); the tail signs alternate with m.
    The expansion is cross-checked against direct convolution of the two
    factors up to n_terms coefficients.
    """
    if m < 1:
        raise ValueError("m must be positive")
    binom = [comb(m, j) * (-1) ** j for j in range(m + 1)]  # (1 - t)^m
    poly = [0] * (m + 2)
    for j, c in enumerate(binom):
        poly[j] += c
        poly[j + 1] += m * c

    a = [1, m]  # 1 + m t
    upto = min(n_terms, m + 2)
    for k in range(upto):
        conv = sum(a[i] * binom[k - i]
                   for i in range(max(0, k - m), min(k, 1) + 1))
        if conv != poly[k]:
            return False

    return (len(poly) == m + 2
            and poly[0] == 1
            and poly[1] == 0
            and poly[2] == -comb(m + 1, 2)
            and poly[m + 1] == (-1) ** m * m)


def euler_factorization_check(spec: FactorSpec, n_terms: int = 10_000) -> bool:
    """Coefficient-exact check of the restricted-product factorization.

    Over the rationals the zeta-side factors at the primes outside B cancel
    exactly against the complementary product (both carry the exponent m/f at
    inertia degree f, with opposite signs), so the identity reduces to

        prod_{p in B} (1 + m p^{-ds})
          = g(s) * g0(s) * prod_{p = 1 mod ell} (1 - p^{-ds})^{-m},

    with g the product of the expanded polynomials (1 + m t)(1 - t)^m over
    p in B (t = p^{-ds}) and g0 = (1 - ell^{-ds})^{-m} the wild factor.  Both
    sides are expanded to n_terms Dirichlet coefficients in exact integer
    arithmetic and compared entrywise.
    """
    ell, d, m = spec.ell, spec.d, spec.m
    lhs = [0] * (n_terms + 1)
    base = coefficient_sieve(spec, iroot(n_terms, d))
    for n in range(1, len(base)):
        if base[n]:
            lhs[n ** d] = int(base[n])

    rhs = [0] * (n_terms + 1)
    rhs[1] = 1
    isp = prime_sieve(iroot(n_terms, d))
    primes = [int(p) for p in np.nonzero(isp)[0]]

    # w(t) = (1 + m t)(1 - t)^m as exact integer coefficients
    w = [0] * (m + 2)
    for j in range(m + 1):
        c = comb(m, j) * (-1) ** j
        w[j] += c
        w[j + 1] += m * c

    def mul_local(coeffs: list[int], p: int, local: list[int]) -> list[int]:
        """Multiply a Dirichlet series by sum_j local[j] p^(-j d s)."""
        pd = p ** d
        out = coeffs[:]
        power = pd
        for j in range(1, len(local)):
            if power > n_terms:
                break
            cj = local[j]
            if cj:
                for n in range(1, n_terms // power + 1):
                    if coeffs[n]:
                        out[n * power] += cj * coeffs[n]
            power *= pd
        return out

    for p in primes:
        in_b = (p == ell) or (p % ell == 1)
        if not in_b:
            continue
        rhs = mul_local(rhs, p, w)  # g(s) factor at p
    # g0: the factor at p = ell, expanded as a geometric-type series
    if ell ** d <= n_terms:
        depth = 0
        power = 1
        while power <= n_terms:
            power *= ell ** d
            depth += 1
        neg_binom = [comb(j + m - 1, m - 1) for j in range(depth + 1)]
        rhs = mul_local(rhs, ell, neg_binom)
    # the split-prime zeta part (1 - p^{-ds})^{-m} for p = 1 mod ell
    for p in primes:
        if p % ell != 1:
            continue
        if p ** d > n_terms:
            continue
        depth = 0
        power = 1
        while power <= n_terms:
            power *= p ** d
            depth += 1
        neg_binom = [comb(j + m - 1, m - 1) for j in range(depth + 1)]
        rhs = mul_local(rhs, p, neg_binom)

    return lhs[1:] == rhs[1:]


def series_csv_rows(series: SumSeries) -> list[tuple]:
    """Rows (x, S(x), S(x)/x^alpha, running beta) for CSV emission."""
    alpha = float(series.alpha_pred)
    betas = running_beta(series)
    rows = []
    for x, v, b in zip(series.checkpoints, series.values, betas):
        rows.append((x, v, float(v) / x ** alpha,
                     "" if b is None else f"{b:.6f}"))
    return rows
