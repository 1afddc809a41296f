"""Exact coefficient sieves and slope estimation for restricted Euler products.

Everything is specialized to the rationals: the prime-ideal condition
"norm congruent to 0 or 1 mod ell" becomes the set B = {ell} u {p = 1 mod ell}
of rational primes.  A factor (ell, d, m) stands for the Euler product
prod_{p in B} (1 + m p^{-d s}); its coefficient at n = u^d is m^omega(u) for
squarefree B-supported u and 0 otherwise.  Partial sums count the u of each
omega(u), either in one pass over the union of the checkpoints' floor sets
{x // i} (prime counts per class mod ell, then a min_25-style pass over the
B-primes up to sqrt x) or by a segmented sieve that carries only omega(u)
(numpy int8 segments).  Every weight m^omega and every sum of weights is a
Python int, so partial sums of multi-factor products are exact for any m
and the asymptotic-slope diagnostics sit on top of exact data.  A count
is refused by the arrays it builds (the "sieve entries" limit), and a
sweep by the integers it passes ("sweep entries").
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import LIMITS, InsufficientData, require
from .intmath import iroot, is_prime

SEGMENT = 1 << 23
OMEGA_MAX = 15  # omega(n) for n < 2^63, as 2*3*5*...*53 > 2^63
_POISON = -64  # below -OMEGA_MAX: stays negative whatever is added to it
CHECKPOINT_START = 1000
PAIR_BLOCK = 1 << 13  # (floor value, prime) pairs gathered at once


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
        """Parse "ell:d:m", e.g. "3:1:4".  A field longer than Python's limit
        on reading an integer from text (4300 digits by default), which
        nilcount does not lift, is refused by name."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected ell:d:m, got {text!r}")
        limit = sys.get_int_max_str_digits()  # 0 when the limit is off
        for name, t in zip(("ell", "d", "m"), parts):
            if limit and len(t) > limit:
                raise ValueError(
                    f"{name} = {t[:6]}... ({len(t)} digits) has more than "
                    f"{limit} digits, the limit on reading an integer from "
                    f"text; lower {name}")
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
    require("sieve entries", limit, "prime sieve to")
    isp = np.ones(limit + 1, dtype=bool)
    isp[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if isp[p]:
            isp[p * p::p] = False
    return isp


def squarefree_sieve(limit: int) -> np.ndarray:
    """Boolean squarefree array of length limit + 1 (index 0 is False)."""
    require("sieve entries", limit, "squarefree sieve to")
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


def _omega_sieve(spec: FactorSpec, limit: int) -> np.ndarray:
    """w[n] = omega(n) for squarefree n <= limit supported on B, else -1."""
    require("sieve entries", limit, "omega sieve to")
    return np.concatenate([w for _, _, w in _segments(spec, limit)])


def _segments(spec: FactorSpec, limit: int):
    """Yield (lo, hi, w) with w[n - lo] = omega(n) for the squarefree
    B-supported n in [lo, hi], else -1 (int8).

    Per segment, each prime p <= sqrt(limit) adds 1 at its multiples when in
    B and poisons them when not, p^2 poisons its multiples, and `prod`
    collects the B-primes found.  A surviving n then has n // prod equal to 1
    or to one prime above sqrt(limit), which must itself lie in B.
    """
    ell = spec.ell
    # no cofactor q <= limit equals a larger ell or is 1 mod it, so testing
    # q against min(ell, limit + 1) keeps every answer within int64
    ell_q = min(ell, limit + 1)
    primes = np.nonzero(prime_sieve(isqrt(limit)))[0].tolist()
    lo = 0
    while lo <= limit:
        hi = min(lo + SEGMENT - 1, limit)
        w = np.zeros(hi - lo + 1, dtype=np.int8)
        prod = np.ones(hi - lo + 1, dtype=np.int64)
        for p in primes:
            # offsets of the first multiples of p and p^2 in [max(lo, 1), hi]
            a, a2 = ((-(-lo // k) * k or k) - lo for k in (p, p * p))
            w[a2::p * p] = _POISON
            if p == ell or p % ell == 1:
                w[a::p] += 1
                prod[a::p] *= p
            else:
                w[a::p] = _POISON
        if lo == 0:
            w[0] = -1
        idx = np.flatnonzero(w >= 0)
        q = (idx + lo) // prod[idx]
        del prod  # freed before the caller works on the segment
        big = q > 1
        in_b = (q % ell_q == 1) | (q == ell_q)
        w[idx[big & in_b]] += 1
        w[idx[big & ~in_b]] = -1
        np.maximum(w, -1, out=w)
        yield lo, hi, w
        lo = hi + 1


def _support_sums(spec: FactorSpec, checkpoints: Sequence[int],
                  support: dict[int, int]) -> list[int]:
    """sum_{P <= x} w_P C(iroot(x // P, d)) at every checkpoint x, for the
    weighted support {P: w_P} and the prefix sums C(q) = sum_{n <= q} c[n].

    The queries are a generator, consumed only after the size checks, so a
    huge checkpoint is refused before they are built.
    """
    floor = _check_sizes(spec, checkpoints, support)
    queries = (iroot(x // p, spec.d) for x in checkpoints
               for p in support if p <= x)
    if floor:
        prefix = _floor_prefix_sums(spec, checkpoints, queries)
    else:
        prefix = _sweep_prefix_sums(spec, queries)
    return [sum(w * prefix[iroot(x // p, spec.d)]
                for p, w in support.items() if p <= x) for x in checkpoints]


def _check_sizes(spec: FactorSpec, checkpoints: Sequence[int],
                 support: dict[int, int]) -> bool:
    """The one rule between the two ways: whether `_support_sums` takes the
    floor-set count, one pass over the union of the checkpoints' floor sets
    in about (ell - 1) limit^(3/4) operations (a prime count per class of
    (Z/ell)^x), or the sweep, about limit.  So the count answers for d = 1
    while (ell - 1)^4 <= limit.  Either way is refused here by the size of
    its first table, before any work; no size shrinks with more checkpoints.
    """
    limit = max(checkpoints)
    if spec.d == 1 and (spec.ell - 1) ** 4 <= limit:
        require("sieve entries", (spec.ell - 1) * _floor_set_size(checkpoints),
                "floor-set class entries")
        return True
    least = min((p for p in support if p <= limit), default=0)
    require("sweep entries", iroot(limit // least, spec.d) if least else 0,
            "integer sweep to")
    return False


def _floor_set_size(checkpoints: Sequence[int]) -> int:
    """|V| <= size, the length of the concatenation that builds `vals`."""
    r = isqrt(max(checkpoints))
    return r + 1 + sum(isqrt(c) for c in checkpoints if c > r)


def _weighted(spec: FactorSpec, counts: Sequence[int]) -> int:
    """sum_k m^k counts[k], in Python ints."""
    return sum(spec.m ** k * n for k, n in enumerate(counts) if n)


def _floor_prefix_sums(spec: FactorSpec, checkpoints: Sequence[int],
                       queries: Iterable[int]) -> dict[int, int]:
    """Exact prefix sums sum_{n <= q} c[n] at floor values q = x // i of the
    checkpoints x, for d = 1, by one count over the union of their floor sets.

    `vals` is that union, sorted: 0 .. r (r = isqrt(max x)) and then every
    x // i > r with i <= isqrt(x).  A value w sits at np.searchsorted(vals,
    w), which is w itself for w <= r.  A floor set is closed under
    v -> v // p, and so is a union of them.
    - Phase 1 (Lucy_Hedgehog, per class): row c - 1 of `cls` counts the
      n in [2, v] with n = c mod ell that are prime or free of the primes
      sieved so far.  Sieving by p != ell removes n = p n' with n' of class
      c / p, so every row is needed; row 0 ends at pi(v; ell, 1), and
      pi_B(v) adds ell itself.
    - Phase 2 (min_25): over the B-primes p <= r in descending order,
      `comp[k - 2]` counts the squarefree B-supported u <= v with
      omega(u) = k >= 2 whose least prime is at least p.  Such a u with
      least prime p is p times a B-prime in (p, v/p] or p times a u' of
      omega k - 1 with least prime above p, which is comp before the step;
      it exceeds p^k, so only the rows with p^k <= v change.
    Both phases take the primes above t = iroot(max x, 3) in one step
    (`_prime_pairs`).  Such a p reads only p - 1 and v // p <= x / p, which
    lie below q^2 for every prime q > t, so no prime above t sieves them;
    and it adds only to comp[0], as p^3 > x.  So their order does not
    matter, and all of them read the state that the primes up to t leave.
    Every count is at most max x, so int64 holds it; the weights are
    applied in Python ints by `_weighted`.
    """
    ell, x = spec.ell, max(checkpoints)
    r, t = isqrt(x), iroot(x, 3)
    size = _floor_set_size(checkpoints)  # (ell - 1) size checked by the caller
    primes = np.flatnonzero(prime_sieve(r))
    b_primes = primes[(primes % ell == 1) | (primes == ell)]
    # omega(u) <= kmax for u <= x: the B-primes above r are at least r + 1
    kmax, prod = 0, 1
    for p in b_primes.tolist() + [r + 1]:
        prod *= p
        if prod > x:
            break
        kmax += 1
    require("sieve entries", max(kmax - 1, 1) * size, "floor-set omega entries")
    vals = np.concatenate([np.arange(r + 1)]
                          + [c // np.arange(isqrt(c), 0, -1)
                             for c in checkpoints if c > r])
    vals.sort()  # np.unique would make a hash table, 1 MiB more of RSS
    vals = vals[np.diff(vals, prepend=-1) > 0]

    def cofactors(p: int) -> tuple[int, np.ndarray]:
        """The first position with v >= p^2, and the positions of v // p
        from there on: v // p itself up to r, searched above."""
        start = int(np.searchsorted(vals, p * p))
        cof = vals[start:] // p
        above = int(np.searchsorted(cof, r, side="right"))
        cof[above:] = np.searchsorted(vals[r + 1:], cof[above:]) + (r + 1)
        return start, cof

    classes = np.arange(1, ell)
    cls = vals - classes[:, None]  # (ell - 1) x |V|, updated in place
    cls //= ell
    cls += 1  # n = c mod ell in [1, v]
    cls[0] -= vals >= 1  # n = 1 is not counted
    # rows[a] lists, per class c, the row of c / p for a prime p = a mod ell
    rows = np.zeros((ell, ell - 1), dtype=np.int64)
    for a in range(1, ell):
        rows[a] = (classes * pow(a, -1, ell)) % ell - 1
    removed = np.empty_like(cls)  # one buffer for every prime's gathers
    sieving = primes != ell  # ell's multiples lie in class 0, not kept
    for p in primes[sieving & (primes <= t)].tolist():
        start, cof = cofactors(p)
        row = rows[p % ell]
        gone = removed[:, start:]
        for c, source in enumerate(row.tolist()):  # before any row changes
            # "clip" writes straight into `out` ("raise" buffers it); every
            # position is in range
            cls[source].take(cof, out=gone[c], mode="clip")
        gone -= cls[row, p - 1][:, None]
        cls[:, start:] -= gone
    del removed
    high = primes[sieving & (primes > t)]
    high_rows = rows[high % ell].T
    # per class, the sum of cls[row, p - 1] over the first j + 1 primes
    below = np.cumsum(cls[high_rows, high - 1], axis=1)
    for lo, hi, counts, seg, j, cof in _prime_pairs(vals, high):
        removed = np.add.reduceat(cls[high_rows[:, j], cof], seg, axis=1)
        removed -= below[:, counts - 1]
        cls[:, lo:hi] -= removed
    pi_b = cls[0] + (vals >= ell)
    del cls

    comp = np.zeros((max(kmax - 1, 1), len(vals)), dtype=np.int64)
    high = b_primes[b_primes > t]
    below = np.cumsum(pi_b[high])
    for lo, hi, counts, seg, j, cof in _prime_pairs(vals, high):
        comp[0, lo:hi] += np.add.reduceat(pi_b[cof], seg) - below[counts - 1]
    for p in reversed(b_primes[b_primes <= t].tolist()):
        start, cof = cofactors(p)
        for k in range(len(comp) - 1, 0, -1):  # reads row k - 1 before it grows
            least = p ** (k + 2)  # below every u of row k with least prime p
            if least <= x:
                lo = int(np.searchsorted(vals, least))
                comp[k, lo:] += comp[k - 1].take(cof[lo - start:])
        comp[0, start:] += pi_b.take(cof) - pi_b[p]

    queries = list(set(queries))
    pos = np.searchsorted(vals, np.array(queries, dtype=np.int64))
    counts = np.vstack([np.ones_like(pos), pi_b[pos], comp[:, pos]]).T.tolist()
    return {q: _weighted(spec, n) for q, n in zip(queries, counts)}


def _prime_pairs(vals: np.ndarray, primes: np.ndarray):
    """The pairs (v, p) of a floor value v in `vals` and a prime p in the
    ascending `primes` with p^2 <= v, in blocks of at most PAIR_BLOCK pairs
    (or one floor value), cut only between floor values.

    A value's pairs take a prefix of `primes`.  Each block yields the range
    [lo, hi) of the positions of its values, `counts` (the number of pairs of
    each), `seg` (where each value's pairs start in the block, for
    np.add.reduceat), and per pair the index j of p and the position of
    v // p.
    """
    if not len(primes):
        return
    first = int(np.searchsorted(vals, primes[0] * primes[0]))
    counts = np.searchsorted(primes * primes, vals[first:], side="right")
    ends = np.cumsum(counts)
    i = done = 0
    while i < len(counts):
        k = max(int(np.searchsorted(ends, done + PAIR_BLOCK, side="right")),
                i + 1)
        c, seg = counts[i:k], ends[i:k] - counts[i:k] - done
        j = np.arange(ends[k - 1] - done) - np.repeat(seg, c)
        cof = np.searchsorted(vals, np.repeat(vals[first + i:first + k], c)
                              // primes[j])
        yield first + i, first + k, c, seg, j, cof
        i, done = k, int(ends[k - 1])


def _sweep_prefix_sums(spec: FactorSpec,
                       queries: Sequence[int]) -> dict[int, int]:
    """Exact prefix sums sum_{n <= q} c[n] for every query point q.

    One segmented sweep keeps N[k], the number of squarefree B-supported
    n <= q with omega(n) = k, advanced by a tally of the omega values between
    consecutive query points; each sum sum_k m^k N[k] is formed in Python
    ints.  `_check_sizes` has bounded the sweep.
    """
    queries = sorted(set(int(q) for q in queries))
    out = {q: 0 for q in queries if q < 1}
    pending = [q for q in queries if q >= 1]
    if not pending:
        return out
    counts = np.zeros(OMEGA_MAX + 1, dtype=np.int64)
    qi = 0
    for lo, hi, w in _segments(spec, pending[-1]):
        pos = lo
        while qi < len(pending) and pending[qi] <= hi:
            q = pending[qi]
            counts += _tally(w[pos - lo:q - lo + 1])
            out[q] = _weighted(spec, counts.tolist())
            pos = q + 1
            qi += 1
        counts += _tally(w[pos - lo:])
    return out


def _tally(w: np.ndarray) -> np.ndarray:
    """t[k] = #{i : w[i] = k} for k = 0 .. OMEGA_MAX."""
    t = np.zeros(OMEGA_MAX + 1, dtype=np.int64)
    for k in range(int(w.max(initial=-1)) + 1):
        t[k] = np.count_nonzero(w == k)
    return t


def default_checkpoints(limit: int) -> list[int]:
    """Geometric checkpoints with ratio 2 from CHECKPOINT_START, ending at limit."""
    if limit < CHECKPOINT_START:
        return [limit] if limit >= 1 else []
    points, x = [], CHECKPOINT_START
    while x < limit:
        points.append(x)
        x *= 2
    points.append(limit)
    return points


def multi_factor_sum(specs: Sequence[FactorSpec], limit: int,
                     checkpoints: Sequence[int] | None = None) -> SumSeries:
    """Exact S(x) = sum of m_1^omega(a_1) ... m_r^omega(a_r) over B-supported
    squarefree tuples with a_1^{d_1} ... a_r^{d_r} <= x, at each checkpoint.

    The remaining factors are expanded into their (value, weight) support P;
    the prefix sums of the factor with minimal d are then read at every
    iroot(x // P, d) and combined exactly, by `_support_sums`.
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
    most = LIMITS["tuple entries"]
    for sp in others:
        omega = _omega_sieve(sp, iroot(limit, sp.d))
        # each term is one more support entry, so more than the limit fail
        nz = np.flatnonzero(omega >= 0)[:most + 1]
        terms = [(n ** sp.d, sp.m ** k)
                 for n, k in zip(nz.tolist(), omega[nz].tolist())]
        new: dict[int, int] = {}
        for p_val, w in support.items():
            for nd, c in terms:
                contrib = p_val * nd
                if contrib > limit:
                    break
                new[contrib] = new.get(contrib, 0) + w * c
                if len(new) > most:  # compared inline: a hot loop
                    require("tuple entries", len(new))
        support = new

    values = _support_sums(pivot, checkpoints, support)
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
    xs, vals = _floats(series.checkpoints), _floats(series.values)
    if len(xs) < 12 or xs[-1] < 1e4 * xs[0]:
        raise InsufficientData(
            "need at least 12 checkpoints spanning 4 decades")
    if np.any(vals <= 0):
        raise InsufficientData("partial sums must be positive to take logs")
    if not (np.isfinite(xs).all() and np.isfinite(vals).all()):
        raise InsufficientData("checkpoints or partial sums exceed the "
                               "float range")

    in_decade = xs >= xs[-1] / 10
    lx, lv = np.log(xs[in_decade]), np.log(vals[in_decade])
    alpha_hat = float(np.mean(np.diff(lv) / np.diff(lx)))

    alpha = float(series.alpha_pred)
    beta_hat, intercept, resid = _beta_fit(xs, vals, alpha, len(xs))
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
    point (None while there is not enough data, or while a checkpoint or a
    sum is past the float range)."""
    alpha = float(series.alpha_pred)
    xs, vals = _floats(series.checkpoints), _floats(series.values)
    usable = (vals > 0) & np.isfinite(vals) & np.isfinite(xs)
    return [None if n < 4 or not usable[:n].all()
            else float(_beta_fit(xs, vals, alpha, n)[0]) for n in range(1, len(xs) + 1)]


def _floats(values: Sequence[int]) -> np.ndarray:
    """Exact integers as floats, inf for one past the float range."""
    out = []
    for v in values:
        try:
            out.append(float(v))
        except OverflowError:
            out.append(np.inf)
    return np.array(out)


def _beta_fit(xs, vals, alpha: float, n: int):
    """Slope, intercept and residuals of the least-squares line of
    log(S/x^alpha) on log log x over the last 60% of the first n checkpoints."""
    tail = max(2, int(round(0.6 * n)))
    lx = np.log(xs[n - tail:n])
    y = np.log(vals[n - tail:n]) - alpha * lx
    llx = np.log(lx)
    slope, intercept = np.polyfit(llx, y, 1)
    return slope, intercept, y - (slope * llx + intercept)


def series_csv_rows(series: SumSeries) -> list[tuple]:
    """Rows (x, S(x), S(x)/x^alpha, running beta) for CSV emission; the
    ratio is empty where x or S(x) is past the float range."""
    alpha = float(series.alpha_pred)
    betas = running_beta(series)
    rows = []
    for x, v, b in zip(series.checkpoints, series.values, betas):
        try:
            ratio = float(v) / x ** alpha
        except OverflowError:
            ratio = ""
        rows.append((x, v, ratio, "" if b is None else f"{b:.6f}"))
    return rows
