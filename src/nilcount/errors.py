"""Shared exception types, and every size limit: `LIMITS` by name, and
`require`, the one check and the only code that raises BudgetExceeded."""


class NilcountError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(NilcountError):
    """Permutations of different degrees were combined."""


class NotNormal(NilcountError):
    """A quotient was requested by a non-normal subgroup."""


class NotPrime(NilcountError):
    """A prime argument was composite."""


class TrivialGroup(NilcountError):
    """An invariant of a nontrivial group was requested for the trivial one."""


class NotTransitive(NilcountError):
    """A transitive permutation group was required."""


class NotNilpotent(NilcountError):
    """A nilpotent group was required."""


class PropertyViolated(NilcountError):
    """A structural property that should be impossible to break was broken."""


class InvalidChain(NilcountError):
    """A subgroup chain is not a central refinement with prime steps."""


class QuotientMismatch(NilcountError):
    """Two extensions do not share the same quotient group."""


class NotAction(NilcountError):
    """A claimed group action fails the homomorphism or automorphism law."""


class VerificationFailed(NilcountError):
    """An explicit construction contradicts a verified structural claim."""


class BudgetExceeded(NilcountError):
    """An input exceeds one of the size limits in LIMITS."""


LIMITS: dict[str, int] = {
    "group order": 4096,  # every group: its table has 2^24 entries
    "enumeration order": 128,  # enumerate_refinements' default cap
    "listed chains": 1 << 20,  # chains enumerate_refinements lists
    "search nodes": 1 << 16,  # subgroups optimize_d's search expands
    "sieve entries": 1 << 27,  # the largest array a sieve or count makes
    "sweep entries": 1 << 30,  # integers the segmented prefix-sum sweep passes
    "tuple entries": 2_000_000,  # support of multi_factor_sum's non-pivots
    "biquadratic discriminant": 1_000_000,  # |disc| bound of enumerate_v4
    "listed fields": 1 << 21,  # fields `count --out` lists
}


def require(name: str, value: int, what: str | None = None,
            limit: int | None = None) -> None:
    """Refuse `value` above `limit` (default LIMITS[name]); the message
    names it `what` (default `name`)."""
    if limit is None:
        limit = LIMITS[name]
    if value > limit:
        raise BudgetExceeded(f"{what or name} {value} exceeds {limit}")


class InsufficientData(NilcountError):
    """Not enough checkpoints to estimate asymptotic slopes."""


class UnknownTheorem(NilcountError):
    """An unknown verification suite id was requested."""


class UnsupportedModulus(NilcountError):
    """Base-field cyclotomic data does not cover the requested modulus."""
