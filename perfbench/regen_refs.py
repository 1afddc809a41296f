"""Rebuild perfbench/references.json without calling nilcount.

    python3 perfbench/regen_refs.py   # rewrites references.json (~15 s)

`git diff perfbench/references.json` afterwards shows any change.

Each reference value comes from a method of its own:
  * S(x) of the factor 3:1:4 at every checkpoint up to 1e5, and the final
    sum of 3:1:100000 at 3e5, by brute force over sympy.factorint;
  * S(x) of 3:1:4 at all 18 checkpoints up to 1e8, and the final sum of
    3:1:2,5:2:3 at 1e8, from a segmented sieve that counts the n <= x with
    omega(n) = k and forms sum_k m^k N_k in Python ints;
  * the quadratic field counts up to 1e8 from the Moebius sum over odd d of
    mu(d) * #{k <= x/d^2 : k = a mod 4}, per residue class a;
  * the cyclic cubic field counts up to 1e10 from the conductors f <= 1e5,
    factored by sympy.factorint;
  * the V4 field count at 1e6 from pairs of quadratic discriminants, with
    squarefree kernels taken from sympy.factorint.

Notation: a factor ell:d:m is prod over p in B of (1 + m p^(-d s)), where
B = {ell} u {p = 1 mod ell}; its coefficient at u^d is m^omega(u) for
squarefree B-supported u.
"""

from __future__ import annotations

import json
import sys
from math import isqrt
from pathlib import Path

import numpy as np
from sympy import factorint, mobius

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import OVERFLOW_X, SWEEP_X, checkpoints  # noqa: E402

REF_PATH = Path(__file__).resolve().parent / "references.json"
BRUTE_LIMIT = 10 ** 5


def _in_b(p: int, ell: int) -> bool:
    return p == ell or p % ell == 1


def b_weight(n: int, ell: int, m: int) -> int:
    """m^omega(n) if n is squarefree and B-supported, else 0 (by factorint)."""
    f = factorint(n)
    if any(e > 1 or not _in_b(p, ell) for p, e in f.items()):
        return 0
    return m ** len(f)


def brute_prefix(ell: int, m: int, points: list[int]) -> dict[int, int]:
    out, total, nxt = {}, 0, 0
    points = sorted(points)
    for n in range(1, points[-1] + 1):
        total += b_weight(n, ell, m)
        while nxt < len(points) and points[nxt] == n:
            out[n] = total
            nxt += 1
    return out


def omega_prefix(ell: int, points: list[int], ms: list[int],
                 segment: int = 1 << 20) -> dict[int, dict[int, int]]:
    """{m: {x: sum_{n <= x} m^omega(n)}} over squarefree B-supported n, from
    the counts N_k(x) = #{n <= x : omega(n) = k}."""
    points = sorted(set(points))
    limit = points[-1]
    root = isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    primes = [int(p) for p in np.nonzero(small)[0]]
    carried: list[int] = []          # N_k up to the previous segment
    at: dict[int, list[int]] = {}
    nxt = 0
    for lo in range(1, limit + 1, segment):
        hi = min(lo + segment - 1, limit)
        rem = np.arange(lo, hi + 1, dtype=np.int64)
        omega = np.zeros(hi - lo + 1, dtype=np.int8)
        bad = np.zeros(hi - lo + 1, dtype=bool)
        for p in primes:
            first = (-lo) % p
            if first > hi - lo:
                continue
            if _in_b(p, ell):
                omega[first::p] += 1
                rem[first::p] //= p
                sq = (-lo) % (p * p)
                if sq <= hi - lo:
                    bad[sq::p * p] = True
            else:
                bad[first::p] = True
        big = rem > 1                 # one prime factor above the root
        bad |= big & (rem != ell) & (rem % ell != 1)
        omega[big] += 1
        kmax = int(omega.max()) + 1
        while len(carried) < kmax:
            carried.append(0)
        good_omega = np.where(bad, -1, omega)
        if nxt < len(points) and points[nxt] <= hi:
            cums = [np.cumsum(good_omega == k, dtype=np.int64)
                    for k in range(kmax)]
            while nxt < len(points) and points[nxt] <= hi:
                q = points[nxt]
                at[q] = [carried[k] + (int(cums[k][q - lo]) if k < kmax
                                       else 0) for k in range(len(carried))]
                nxt += 1
        counts = np.bincount(good_omega[good_omega >= 0], minlength=kmax)
        for k in range(kmax):
            carried[k] += int(counts[k])
    return {m: {x: sum(m ** k * c for k, c in enumerate(at[x]))
                for x in points} for m in ms}


def two_factor_sum(x: int) -> int:
    """S(x) of 3:1:2,5:2:3: sum over b in B5 of 3^omega(b) * S_{3:1:2}(x/b^2)."""
    outer = {}
    for b in range(1, isqrt(x) + 1):
        w = b_weight(b, 5, 3)
        if w:
            outer[b] = w
    queries = [x // (b * b) for b in outer]
    inner = omega_prefix(3, queries, [2])[2]
    return sum(w * inner[x // (b * b)] for b, w in outer.items())


def quadratic_counts(limit: int) -> dict[int, int]:
    """Fundamental discriminants |d| <= x:  Q(x;1) - 1 + Q(x;3) + Q(x/4;1)
    + 2 Q(x/4;2) + Q(x/4;3), with Q(y;a) the squarefree n <= y, n = a mod 4."""
    mus = [(d, int(mobius(d))) for d in range(1, isqrt(limit) + 1, 2)]

    def q(y: int, a: int) -> int:
        total = 0
        for d, mu in mus:
            if mu and d * d <= y:
                top = y // (d * d)   # odd d: k d^2 = a mod 4 iff k = a mod 4
                if top >= a:
                    total += mu * ((top - a) // 4 + 1)
        return total

    return {x: q(x, 1) - 1 + q(x, 3) + q(x // 4, 1) + 2 * q(x // 4, 2)
            + q(x // 4, 3) for x in checkpoints(limit)}


def cyclic3_counts(limit: int) -> dict[int, int]:
    """Cyclic cubic fields: conductor f = 9^e * distinct p = 1 mod 3, e in
    {0, 1}, with 2^(t-1) fields for t prime factors; disc = f^2."""
    discs = []
    for f in range(2, isqrt(limit) + 1):
        fac = factorint(f)
        if all((p % 3 == 1 and e == 1) or (p == 3 and e == 2)
               for p, e in fac.items()):
            discs += [f * f] * 2 ** (len(fac) - 1)
    return {x: sum(1 for d in discs if d <= x) for x in checkpoints(limit)}


def _kernel(n: int) -> int:
    """Signed squarefree kernel."""
    out = -1 if n < 0 else 1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            out *= p
    return out


def _fund(m: int) -> int:
    return m if m % 4 == 1 else 4 * m


def v4_count(x: int) -> int:
    """Biquadratic fields with |d1 d2 d3| <= x.  With |d1| <= |d2| <= |d3|
    and |d1| >= 3, the two smallest discriminants are at most sqrt(x/3)."""
    reach = isqrt(x // 3)
    discs = sorted({_fund(s * m) for m in range(1, reach + 1)
                    for s in (1, -1)
                    if s * m != 1 and all(e == 1 for e in
                                          factorint(m).values())
                    and abs(_fund(s * m)) <= reach})
    fields = set()
    for i, d1 in enumerate(discs):
        for d2 in discs[i + 1:]:
            d3 = _fund(_kernel(d1 * d2))
            if abs(d1 * d2 * d3) <= x:
                fields.add(frozenset((d1, d2, d3)))
    return len(fields)


def build() -> dict:
    brute_points = [x for x in checkpoints(SWEEP_X) if x <= BRUTE_LIMIT]
    brute_points.append(BRUTE_LIMIT)
    sieve = omega_prefix(3, checkpoints(SWEEP_X) + [BRUTE_LIMIT], [4])[4]
    brute = brute_prefix(3, 4, brute_points)
    for x in brute_points:
        if brute[x] != sieve[x]:
            raise SystemExit(f"brute force and sieve disagree at {x}")
    overflow = brute_prefix(3, 100000, [OVERFLOW_X])[OVERFLOW_X]
    return {
        "dseries 3:1:4 brute force": {str(x): brute[x] for x in brute_points},
        "dseries 3:1:4 sieve": {str(x): sieve[x]
                                for x in checkpoints(SWEEP_X)},
        "dseries 3:1:2,5:2:3 final": two_factor_sum(SWEEP_X),
        "dseries 3:1:100000 final": overflow,
        "count quadratic": {str(x): c for x, c in
                            quadratic_counts(10 ** 8).items()},
        "count cyclic3": {str(x): c for x, c in
                          cyclic3_counts(10 ** 10).items()},
        "count v4 fields": v4_count(10 ** 6),
    }


def main() -> int:
    REF_PATH.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {REF_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
