"""Decide whether two wreath products generate the same variety of groups.

For passive groups of one variety and active abelian groups of one
finite exponent whose primes all divide the passive exponent, the two
wreath products generate the same variety exactly when the p-components
of the active groups are equivalent at every prime.  When they are not,
a separation witness names a product variety (nilpotent of bounded
class by a Burnside exponent) containing one wreath product but not
the other.
"""

from __future__ import annotations

import collections
import enum
from dataclasses import dataclass
from typing import Optional

from .cardinal import Cardinal, ZERO
from .groupspec import (
    AbelianGroupSpec,
    DomainError,
    PassiveGroupSpec,
    PrimaryFactor,
    _first_factors,
    divergence,
)
from .shield import NotNilpotentError, shield_class, wreath_exponent

__all__ = [
    "Verdict",
    "Violation",
    "DecisionInput",
    "PrimeVerdict",
    "SeparatingVariety",
    "SeparationWitness",
    "Fingerprint",
    "Decision",
    "EquivalentComponentsError",
    "check_hypotheses",
    "decide_equal",
    "separation_witness",
    "fingerprint",
]

# Passive pairs whose variety equality is an established fact the caller
# need not assert; everything else requires the explicit flag.
PASSIVE_VARIETY_WHITELIST = frozenset({frozenset({"D4", "Q8"})})


class EquivalentComponentsError(DomainError):
    """The p-components are equivalent, so no separation witness exists."""


class Verdict(str, enum.Enum):
    EQUAL = "equal"
    UNEQUAL = "unequal"
    NOT_APPLICABLE = "not_applicable"


class Violation(collections.namedtuple("Violation", "code detail")):
    """One failed hypothesis of the decision.

    ``code`` names the hypothesis, ``detail`` says how it failed, and
    ``fatal`` says whether it leaves the decision undecidable.  The one
    nonfatal violation, ``active_exponent_mismatch``, forces the verdict
    to unequal instead.
    """

    __slots__ = ()

    @property
    def fatal(self) -> bool:
        return self.code != "active_exponent_mismatch"


class DecisionInput(collections.namedtuple(
        "DecisionInput", "a1 a2 b1 b2 assert_passive_var_equal", defaults=(False,))):
    """Two wreath products ``a1 wr b1`` and ``a2 wr b2`` to compare.

    ``assert_passive_var_equal`` is the caller's promise that the passive
    groups generate the same variety; it is not checkable from the
    profiles alone and is required unless the passive specs are
    identical or whitelisted.
    """

    __slots__ = ()


class PrimeVerdict(collections.namedtuple("PrimeVerdict", "p divergence")):
    """The divergence of the p-components at ``p``: None when equivalent."""

    __slots__ = ()

    @property
    def equivalent(self) -> bool:
        return self.divergence is None


class SeparatingVariety(collections.namedtuple("SeparatingVariety",
                                                "nilpotency_class burnside_exponent")):
    """Nilpotent-of-class-``nilpotency_class``-by-Burnside-of-exponent product."""

    __slots__ = ()

    def render(self) -> str:
        return f"N_{self.nilpotency_class} B_{self.burnside_exponent}"


@dataclass(frozen=True)
class SeparationWitness:
    """Certificate that the two varieties differ at prime ``p``.

    The active p-components diverge at index ``t`` with larger cyclic
    power ``w`` there.  Truncating either group at ``t`` (an infinite
    multiplicity at ``t`` stands in for one more copy than the other
    side) and passing to the ``p**(w-1)``-th power subgroups gives two
    finite active groups whose wreath products with the passive p-part
    have the classes ``class_b1 > class_b2``.  The side written first is
    the one with the larger reduced class; ``larger_input`` records which
    argument (1 or 2) that was.  ``A wr B`` of the smaller side lies in
    ``separating`` while the larger side's does not.

    ``scope`` is ``"whole"`` when the passive and both active groups are
    ``p``-groups, and the claim is about the wreath products; otherwise it
    is ``"reduced"``, about the reduced products ``A_p wr Bi'`` only.
    """

    p: int
    t: int
    w: int
    class_b1: int
    class_b2: int
    larger_input: int
    scope: str

    @property
    def separating(self) -> SeparatingVariety:
        return SeparatingVariety(self.class_b2, self.p ** (self.w - 1))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "w": self.w,
            "class_b1": self.class_b1,
            "class_b2": self.class_b2,
            "separating": {
                "class": self.separating.nilpotency_class,
                "burnside_exponent": self.separating.burnside_exponent,
            },
        }


@dataclass(frozen=True)
class Fingerprint:
    """Invariants of one wreath product that need not separate varieties."""

    exponent: int
    nilpotency_class: Optional[int]
    solubility_bound: Optional[int]

    @property
    def nilpotent(self) -> bool:
        return self.nilpotency_class is not None

    def to_json_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "nilpotent": self.nilpotent,
            "class": self.nilpotency_class,
            "solubility_bound": self.solubility_bound,
        }


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    hypotheses: tuple[Violation, ...]
    per_prime: tuple[PrimeVerdict, ...]
    witness: Optional[SeparationWitness]
    fingerprints: tuple[Fingerprint, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "hypotheses": [v.detail for v in self.hypotheses],
            "per_prime": [
                {
                    "p": pv.p,
                    "equivalent": pv.equivalent,
                    "t": pv.divergence.t if pv.divergence else None,
                    "w": pv.divergence.w if pv.divergence else None,
                }
                for pv in self.per_prime
            ],
            "witness": self.witness.to_json_dict() if self.witness else None,
            "fingerprints": [fp.to_json_dict() for fp in self.fingerprints],
        }


# ---------------------------------------------------------------------------
# hypotheses


def _factored(prime_powers) -> str:
    """An exponent as its prime-power product, ``2^2 * 3``, from each
    prime's ``(p, k)``: no longer than the input that spells it, which its
    decimal digits can far exceed."""
    return " * ".join(f"{p}^{k}" if k > 1 else str(p) for p, k in prime_powers)


def check_hypotheses(inp: DecisionInput) -> list[Violation]:
    """All hypothesis violations (empty = ok); see :class:`Violation`."""
    violations = []
    if inp.b1.is_trivial():
        violations.append(Violation("trivial_active", "trivial group: B1"))
    if inp.b2.is_trivial():
        violations.append(Violation("trivial_active", "trivial group: B2"))
    if violations:
        return violations
    m1, m2 = inp.a1.exponent(), inp.a2.exponent()
    if m1 != m2:
        e1, e2 = (_factored((q.prime, q.s(1)) for q in a.parts) for a in (inp.a1, inp.a2))
        violations.append(Violation(
            "passive_exponent_mismatch",
            f"passive exponent mismatch: exp(A1)={e1}, exp(A2)={e2}"))
    n1, n2 = inp.b1.exponent(), inp.b2.exponent()
    if n1 != n2:
        e1, e2 = (_factored((f.prime, f.power) for f in _first_factors(b.factors))
                  for b in (inp.b1, inp.b2))
        violations.append(Violation(
            "active_exponent_mismatch",
            f"active exponent mismatch: exp(B1)={e1}, exp(B2)={e2}"))
    for p in sorted(set(inp.b1.primes()) | set(inp.b2.primes())):
        if m1 % p != 0 or m2 % p != 0:
            violations.append(Violation(
                "prime_not_dividing_passive",
                f"prime {p} of the active exponent does not divide the passive exponent"))
    if not inp.assert_passive_var_equal and inp.a1 != inp.a2:
        labels = frozenset({inp.a1.label, inp.a2.label})
        if labels not in PASSIVE_VARIETY_WHITELIST:
            violations.append(Violation(
                "passive_variety_not_asserted",
                "passive variety equality not asserted: A1 and A2 differ and are "
                "not a whitelisted pair"))
    return violations


# ---------------------------------------------------------------------------
# the decision


def decide_equal(inp: DecisionInput) -> Decision:
    """The full decision: equal iff the p-components are equivalent at
    every prime of the active exponent.

    A fatal hypothesis violation yields ``not_applicable``; otherwise an
    active exponent mismatch short-circuits to unequal (the generated
    varieties then have distinct exponents).  When unequal with matching
    exponents, the witness is :func:`separation_witness`'s at the smallest
    failing prime.  Equal varieties share their class and their derived
    length, so when every prime is equivalent but the classes differ, or
    the solubility bounds where both are known, the passive varieties
    differ: ``not_applicable``, for ``passive_variety_refuted``.
    """
    violations = check_hypotheses(inp)
    fps = () if inp.b1.is_trivial() or inp.b2.is_trivial() else (
        fingerprint(inp.a1, inp.b1), fingerprint(inp.a2, inp.b2))
    if any(v.fatal for v in violations):
        return Decision(Verdict.NOT_APPLICABLE, tuple(violations), (), None, fps)
    if violations:  # only the nonfatal active exponent mismatch
        return Decision(Verdict.UNEQUAL, tuple(violations), (), None, fps)
    # from a list, not an iterator: see the tuple free lists in shield_params
    per = tuple([PrimeVerdict(p, divergence(inp.b1.p_component(p), inp.b2.p_component(p), p))
                 for p in inp.b1.primes()])
    witness = next((separation_witness(inp.a1, inp.b1, inp.b2, pv.p)
                    for pv in per if not pv.equivalent), None)
    # the exponents agree here, since exp(A wr B) = exp(A) exp(B); only a
    # false assertion of the passive hypothesis can part the classes or the
    # solubility bounds, of which None is unknown and parts nothing.  A
    # group lies in the variety of soluble groups of length k exactly when
    # its derived length is at most k, and the bound dl(A) + 1 is dl(G) for
    # G = A wr B: G/A^B = B is abelian, so G' lies in A^B and G^(n+1) in
    # (A^(n))^B; and for b != 1 in B, [a at x, b] is (a^-1 at x, a at xb),
    # so G' maps onto A at x and dl(G') >= dl(A)
    fp1, fp2 = fps
    known = None not in (fp1.solubility_bound, fp2.solubility_bound)
    differs = ("nilpotency class" if fp1.nilpotency_class != fp2.nilpotency_class
               else "solubility bound" if known and fp1.solubility_bound != fp2.solubility_bound
               else None)
    if witness is None and differs:
        return Decision(Verdict.NOT_APPLICABLE, (Violation(
            "passive_variety_refuted", "passive variety equality refuted: the "
            f"wreath products differ in {differs}, so A1 and A2 generate "
            "different varieties"),), (), None, fps)
    verdict = Verdict.EQUAL if witness is None else Verdict.UNEQUAL
    return Decision(verdict, (), per, witness, fps)


# ---------------------------------------------------------------------------
# separation witnesses


def _slot_copies(component: AbelianGroupSpec, t: int, w: int) -> Cardinal:
    """Multiplicity the component contributes at cyclic power ``w`` in
    position ``t``; zero when the position is missing or sits at a
    smaller power (the virtual missing factor)."""
    if len(component.factors) >= t and component.factors[t - 1].power == w:
        return component.factors[t - 1].copies
    return ZERO


def separation_witness(
    passive: PassiveGroupSpec,
    b1: AbelianGroupSpec,
    b2: AbelianGroupSpec,
    p: int,
) -> SeparationWitness:
    """The witness at ``p``, also :func:`decide_equal`'s, for non-equivalent
    p-components (:class:`EquivalentComponentsError` for equivalent ones).

    Everything from position ``t`` on except the ``w``-slot itself is
    dropped: those factors have smaller cyclic power and die in the
    ``p**(w-1)``-th power subgroup anyway, which also removes every
    infinite multiplicity, so both reduced groups are finite and the
    class formula applies.
    """
    comp1, comp2 = b1.p_component(p), b2.p_component(p)
    div = divergence(comp1, comp2, p)
    if div is None:
        raise EquivalentComponentsError(f"p-components are equivalent at p={p}; no witness exists")
    part = passive.part_for(p)
    if part is None:
        raise DomainError(f"prime {p} does not divide the passive exponent")
    t, w = div.t, div.w
    prefix = comp1.factors[: t - 1]  # == comp2.factors[: t - 1], all finite
    slot1 = _slot_copies(comp1, t, w)
    slot2 = _slot_copies(comp2, t, w)
    if slot1 == slot2:
        raise AssertionError("divergent components with identical slots")
    if slot2 < slot1:
        larger_input, big, small = 1, slot1, slot2
    else:
        larger_input, big, small = 2, slot2, slot1
    small_n = small.as_int()  # the smaller slot is finite in every case
    big_n = big.as_int() if not big.is_infinite else small_n + 1
    shift = p ** (w - 1)

    def w_slot(n: int) -> tuple[PrimaryFactor, ...]:
        # p was tested where the components were built, or by divergence
        copies = tuple.__new__(Cardinal, (False, n))
        return (tuple.__new__(PrimaryFactor, (p, w, copies)),) if n else ()

    # prefix plus slot is already in normal form: both sides' factors at
    # position t sit below the last prefix factor, so every prefix power
    # exceeds w, and a slot of no copies is left out
    reduced_big = AbelianGroupSpec(prefix + w_slot(big_n)).power(shift)
    reduced_small = AbelianGroupSpec(prefix + w_slot(small_n)).power(shift)
    a_p = tuple.__new__(PassiveGroupSpec, ((part,), None))
    class_big = shield_class(a_p, reduced_big)
    if reduced_small.is_trivial():
        # A wr 1 is A itself; its class bounds the small side from above
        class_small = part.nilpotency_class
    else:
        class_small = shield_class(a_p, reduced_small)
    # a p-component with as many factors as its group is the whole group
    whole = (passive.is_p_group() and len(comp1.factors) == len(b1.factors)
             and len(comp2.factors) == len(b2.factors))
    # the larger side's class is written first, as class_b1
    return SeparationWitness(p, t, w, class_big, class_small, larger_input,
                             "whole" if whole else "reduced")


# ---------------------------------------------------------------------------
# fingerprints


def fingerprint(passive: PassiveGroupSpec, active: AbelianGroupSpec) -> Fingerprint:
    """Exponent, nilpotency, class and solubility bound of one wreath product."""
    try:
        cls = shield_class(passive, active)
    except NotNilpotentError:
        cls = None
    dl = passive.derived_length
    return Fingerprint(
        exponent=wreath_exponent(passive, active),
        nilpotency_class=cls,
        solubility_bound=dl + 1 if dl is not None else None,
    )
