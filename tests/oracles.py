"""Reference implementations the tests check the library against.

Each is the plain, slow way to the same answer: coefficients of an Euler
factor by its own sieve, the factorization identities expanded term by
term, radicals by factoring, and ell-ranks read off the built quotient
group G/G'.
"""

from __future__ import annotations

from math import comb, prod

import numpy as np

from nilcount.dirichlet import FactorSpec, _omega_sieve, prime_sieve
from nilcount.errors import NotPrime, PropertyViolated
from nilcount.intmath import iroot, is_prime, prime_factors, valuation
from nilcount.permcore import PermGroup, quotient_with_map


def radical(n: int) -> int:
    """The product of the distinct primes dividing n != 0."""
    return prod(prime_factors(abs(n)))


def quotient_rank(G: PermGroup, ell: int) -> int:
    """ell-rank of G/[G,G], counted on the quotient group itself: the index
    of the ell-th powers in G/G' is ell^rank."""
    if not is_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    Q = quotient_with_map(G, G.table.commutator)[0]
    powers = {Q.table.power(q, ell) for q in range(Q.order)}
    rank, rest = valuation(Q.order // len(powers), ell)
    if rest != 1:
        raise PropertyViolated(f"ell-power index expected, got residue {rest}")
    return rank


def coefficient_sieve(spec: FactorSpec, limit: int) -> np.ndarray:
    """c[n] = m^omega(n) for squarefree n supported on B, else 0, n <= limit.

    An int64 array while m^omega fits, else an array of Python ints.
    """
    omega = _omega_sieve(spec, limit)
    # index -1 (not counted) picks the trailing 0
    weights = [spec.m ** k for k in range(int(omega.max()) + 1)] + [0]
    return np.array(weights)[omega]


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
    poly = _local_factor(m)

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


def _local_factor(m: int) -> list[int]:
    """The coefficients of (1 + m t)(1 - t)^m, constant term first."""
    poly = [0] * (m + 2)
    for j in range(m + 1):
        c = comb(m, j) * (-1) ** j
        poly[j] += c
        poly[j + 1] += m * c
    return poly


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
    reach = iroot(n_terms, d)
    lhs = [0] * (n_terms + 1)
    for n, k in enumerate(_omega_sieve(spec, reach).tolist()):
        if k >= 0:
            lhs[n ** d] = m ** k

    rhs = [0] * (n_terms + 1)
    rhs[1] = 1
    w = _local_factor(m)
    # (1 - t)^{-m}; p^d >= 2, so t^j with j > log2(n_terms) never reaches n_terms
    neg_binom = [comb(j + m - 1, m - 1)
                 for j in range(n_terms.bit_length() + 1)]

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

    # at every p in B the g factor, then g0 at p = ell and the split-prime
    # zeta part (1 - p^{-ds})^{-m} at p = 1 mod ell: the same local factor
    for p in np.nonzero(prime_sieve(reach))[0].tolist():
        if p == ell or p % ell == 1:
            rhs = mul_local(mul_local(rhs, p, w), p, neg_binom)

    return lhs[1:] == rhs[1:]
