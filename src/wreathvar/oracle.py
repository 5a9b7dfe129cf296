"""Brute-force validation engine over explicitly enumerated finite groups.

Groups are element lists with rule-based multiplication and inversion;
subgroups are explicit element sets, built from generators.  The point of the module is
to recompute, by sheer enumeration, everything the symbolic modules
derive: lower central series, nilpotency classes, exponents, derived
lengths and the general K_p-series (including the commutator terms an
abelian group never exercises), so that the two routes can be compared
on desk-scale instances.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional, Sequence

from .groupspec import AbelianGroupSpec, PassiveAtom, PassiveGroupSpec, prime_divisors
from .shield import baumslag_nilpotent, kp_series, shield_class, wreath_exponent

__all__ = [
    "BudgetExceededError",
    "ConcreteGroup",
    "SubgroupChain",
    "VerifyReport",
    "DEFAULT_BUDGET",
    "concrete_cyclic",
    "concrete_product",
    "concrete_preset",
    "concrete_wreath",
    "concrete_abelian",
    "concrete_passive",
    "passive_order",
    "wreath_order",
    "skip_reason",
    "subgroup_generated",
    "normal_closure",
    "lower_central_series",
    "nilpotency_class",
    "derived_series",
    "derived_length_concrete",
    "exponent_concrete",
    "subgroup_exponent",
    "kp_series_concrete",
    "element_order_profile",
    "verify_shield",
]

DEFAULT_BUDGET = 200_000
_FULL_ASSOC_LIMIT = 24  # full associativity table below this order
_SPOT_TRIPLES = 200


class BudgetExceededError(ValueError):
    """The requested group would exceed the element budget."""


class ConcreteGroup:
    """A finite group as an element list plus multiplication/inverse rules."""

    def __init__(
        self,
        label: str,
        elements: Sequence,
        mul: Callable,
        inv: Callable,
        identity,
        generators: Sequence,
    ):
        self.label = label
        self.elements = tuple(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.generators = tuple(generators)
        self._exponent: Optional[int] = None
        self._check_axioms()

    @property
    def order(self) -> int:
        return len(self.elements)

    def _check_axioms(self) -> None:
        e = self.identity
        if e not in self.index:
            raise ValueError(f"{self.label}: identity not among the elements")
        for x in self.elements:
            if self.mul(e, x) != x or self.mul(x, e) != x:
                raise ValueError(f"{self.label}: identity fails on {x!r}")
            if self.mul(x, self.inv(x)) != e:
                raise ValueError(f"{self.label}: inverse fails on {x!r}")
        if self.order <= _FULL_ASSOC_LIMIT:
            triples = itertools.product(self.elements, repeat=3)
        else:
            rng = random.Random(0xC0FFEE)
            triples = (
                tuple(rng.choice(self.elements) for _ in range(3))
                for _ in range(_SPOT_TRIPLES)
            )
        for x, y, z in triples:
            if self.mul(self.mul(x, y), z) != self.mul(x, self.mul(y, z)):
                raise ValueError(f"{self.label}: associativity fails")

    def power(self, x, k: int):
        if k < 0:
            return self.power(self.inv(x), -k)
        acc, base = self.identity, x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_order(self, x) -> int:
        n, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            n += 1
        return n

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = subgroup_exponent(self, self.elements)
        return self._exponent

    def is_abelian(self) -> bool:
        return all(
            self.mul(g, h) == self.mul(h, g)
            for g in self.generators
            for h in self.generators
        )

    def __repr__(self) -> str:
        return f"ConcreteGroup({self.label!r}, order={self.order})"


@dataclass(frozen=True)
class SubgroupChain:
    """Descending chain of explicit element sets, first term the whole group."""

    terms: tuple[frozenset, ...]

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)

    def length(self) -> Optional[int]:
        """Steps down to the trivial group; None when the chain stops above it."""
        return len(self.terms) - 1 if len(self.terms[-1]) == 1 else None


# ---------------------------------------------------------------------------
# constructions


def _order_within(powers: Iterable[tuple[int, int]], cap: int) -> Optional[int]:
    """The product of ``base ** count`` over the pairs, or None above ``cap``.

    An integer bound comes first, ``base ** count >= 2 ** (count * k)``
    with ``k = base.bit_length() - 1``, so absurd counts are refused
    without ever forming the huge integer or converting it to a float.
    """
    powers = tuple(powers)
    if sum(count * (base.bit_length() - 1) for base, count in powers) > cap.bit_length():
        return None
    order = math.prod(base**count for base, count in powers)
    return order if order <= cap else None


def _abelian_powers(spec: AbelianGroupSpec) -> Iterable[tuple[int, int]]:
    return ((f.prime, f.power * f.copies.as_int()) for f in spec.factors)


def _check_budget(order: int, budget: int, what: str) -> None:
    if order > budget:
        raise BudgetExceededError(f"{what}: {order} elements exceed the budget {budget}")


def concrete_cyclic(n: int, budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    _check_budget(n, budget, f"C_{n}")
    return ConcreteGroup(
        label=f"C_{n}",
        elements=range(n),
        mul=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        identity=0,
        generators=(1,) if n > 1 else (),
    )


def concrete_product(groups: Sequence[ConcreteGroup], budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    order = math.prod(g.order for g in groups)
    label = " x ".join(g.label for g in groups) or "1"
    _check_budget(order, budget, label)
    muls = tuple(g.mul for g in groups)
    invs = tuple(g.inv for g in groups)
    identity = tuple(g.identity for g in groups)
    generators = [
        identity[:i] + (gen,) + identity[i + 1 :]
        for i, g in enumerate(groups)
        for gen in g.generators
    ]
    return ConcreteGroup(
        label=label,
        elements=itertools.product(*(g.elements for g in groups)),
        mul=lambda x, y: tuple(m(a, b) for m, a, b in zip(muls, x, y)),
        inv=lambda x: tuple(f(a) for f, a in zip(invs, x)),
        identity=identity,
        generators=generators,
    )


def concrete_preset(name: str) -> ConcreteGroup:
    """The two order-8 presets, realized from their presentations.

    Elements are pairs (i, j) standing for a^i b^j with a of order 4 and
    b acting by inversion; the quaternion twist adds the extra a^2 when
    two b's meet.
    """
    if name == "D4":
        twist = 0
    elif name == "Q8":
        twist = 2
    else:
        raise ValueError(f"unknown preset {name!r}")
    return ConcreteGroup(
        label=name,
        elements=itertools.product(range(4), range(2)),
        mul=lambda x, y: (
            (x[0] + (y[0] if x[1] == 0 else -y[0]) + twist * x[1] * y[1]) % 4,
            (x[1] + y[1]) % 2,
        ),
        inv=lambda x: ((-x[0]) % 4 if x[1] == 0 else (x[0] + twist) % 4, x[1]),
        identity=(0, 0),
        generators=((1, 0), (0, 1)),
    )


def wreath_order(a_order: int, b_order: int, cap: int) -> Optional[int]:
    """``a_order ** b_order * b_order``; None instead of a value above ``cap``."""
    return _order_within(((a_order, b_order), (b_order, 1)), cap)


def concrete_wreath(A: ConcreteGroup, B: ConcreteGroup, budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    """The wreath product of finite groups: pairs (f, b) with f a tuple of
    A-elements indexed by B's element list and b acting by translation."""
    label = f"{A.label} wr {B.label}"
    order = wreath_order(A.order, B.order, cap=budget)
    if order is None:
        raise BudgetExceededError(f"{label}: order exceeds the budget {budget}")
    nb = B.order
    amul, ainv = A.mul, A.inv
    bmul, binv = B.mul, B.inv
    # shift[b][k] = index of elements[k] * b in B's element list
    shift = {
        b: tuple(B.index[bmul(x, b)] for x in B.elements) for b in B.elements
    }

    def mul(x, y):
        f1, b1 = x
        f2, b2 = y
        s = shift[b1]
        return (tuple(amul(f1[k], f2[s[k]]) for k in range(nb)), bmul(b1, b2))

    def inv(x):
        f, b = x
        bi = binv(b)
        s = shift[bi]
        return (tuple(ainv(f[s[k]]) for k in range(nb)), bi)

    trivial_f = (A.identity,) * nb
    e_at = B.index[B.identity]
    generators = [
        (trivial_f[:e_at] + (g,) + trivial_f[e_at + 1 :], B.identity)
        for g in A.generators
    ] + [(trivial_f, g) for g in B.generators]
    return ConcreteGroup(
        label=label,
        elements=(
            (f, b)
            for f in itertools.product(A.elements, repeat=nb)
            for b in B.elements
        ),
        mul=mul,
        inv=inv,
        identity=(trivial_f, B.identity),
        generators=generators,
    )


def concrete_abelian(spec: AbelianGroupSpec, budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    """Realize a finite abelian spec as a product of cyclic groups."""
    if not spec.is_finite():
        raise ValueError(f"cannot enumerate the infinite group {spec}")
    # order check before expanding multiplicities into factor lists
    if _order_within(_abelian_powers(spec), budget) is None:
        raise BudgetExceededError(f"{spec.render()}: order exceeds the budget {budget}")
    factors = []
    for f in spec.factors:
        factors.extend([f.cyclic_order] * f.copies.as_int())
    group = concrete_product([concrete_cyclic(n, budget) for n in factors], budget)
    group.label = spec.render()
    return group


def passive_order(atoms: Iterable[PassiveAtom], cap: int) -> Optional[int]:
    """Order of the group a passive expression denotes, or None above ``cap``.

    Infinite and inline-profile factors have no enumerable order and raise.
    """
    powers = []
    for atom in atoms:
        if atom[0] == "preset":
            powers.append((8, 1))
        elif atom[0] == "cyclic":
            _, p, u, copies = atom
            if copies.is_infinite:
                raise ValueError("cannot enumerate infinitely many cyclic copies")
            powers.append((p, u * copies.as_int()))
        else:
            raise ValueError("an inline nilpotent(...) profile cannot be enumerated")
    return _order_within(powers, cap)


def skip_reason(atoms: Sequence[PassiveAtom], b_spec: AbelianGroupSpec,
                budget: int) -> Optional[str]:
    """Why ``A wr B`` cannot be enumerated within ``budget``, or None when it can."""
    if not b_spec.is_finite():
        return "active group is infinite"
    for atom in atoms:
        if atom[0] == "profile":
            return "inline profiles cannot be enumerated"
        if atom[0] == "cyclic" and atom[3].is_infinite:
            return "passive group is infinite"
    a_order = passive_order(atoms, budget)
    if a_order is None:
        return f"budget exceeded (passive group alone is larger than {budget})"
    # B alone is named only past twice the budget; up to there the
    # wreath line below names its exact order
    b_order = _order_within(_abelian_powers(b_spec), 2 * budget)
    if b_order is None:
        return f"budget exceeded (active group alone is larger than {budget})"
    if wreath_order(a_order, b_order, budget) is None:
        return f"budget exceeded ({a_order}^{b_order} * {b_order} elements)"
    return None


def concrete_passive(atoms: Iterable[PassiveAtom], budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    """Realize a passive expression; inline profiles have no realization."""
    atoms = tuple(atoms)
    if passive_order(atoms, cap=budget) is None:
        raise BudgetExceededError(f"passive group: order exceeds the budget {budget}")
    parts = []
    for atom in atoms:
        if atom[0] == "preset":
            parts.append(concrete_preset(atom[1]))
        else:
            _, p, u, copies = atom
            parts.extend([concrete_cyclic(p**u, budget)] * copies.as_int())
    if len(parts) == 1:
        return parts[0]
    return concrete_product(parts, budget)


# ---------------------------------------------------------------------------
# subgroup machinery
#
# Subgroups are grown from generators.  Adjoining a generator extends the
# subgroup by whole right cosets of the one it had (Dimino's algorithm;
# G. Butler, Fundamental Algorithms for Permutation Groups, LNCS 559,
# 1991), and a normal closure conjugates only the subgroup's generators.
# An element costs one product when it joins a subgroup, plus one per
# coset representative and generator; none is formed for every element
# of a term and every generator of the group.


class _Subgroup:
    """A subgroup being grown: its elements (identity first) and the
    generators adjoined so far, each of which enlarged it."""

    def __init__(self, G: ConcreteGroup):
        self.G = G
        self.elements = [G.identity]
        self.members = {G.identity}
        self.gens: list = []

    def adjoin(self, g) -> bool:
        """Extend to ``<self, g>``; False when ``g`` is already inside.

        The new subgroup is a union of right cosets ``H t`` of the old one,
        ``H``.  Since ``H t s = H (t s)``, one product per coset
        representative ``t`` and generator ``s`` finds every new coset.
        """
        if g in self.members:
            return False
        mul, members, elements = self.G.mul, self.members, self.elements
        rest = elements[1:]  # H without its identity
        self.gens.append(g)
        reps = []

        def add_coset(t):
            reps.append(t)
            coset = [t] + [mul(h, t) for h in rest]
            elements.extend(coset)
            members.update(coset)

        add_coset(g)
        for r in reps:  # grows while new cosets appear
            for s in self.gens:
                t = mul(r, s)
                if t not in members:
                    add_coset(t)
        return True

    def make_normal(self, conjugators: Sequence) -> None:
        """Close under conjugation by ``conjugators``, which generate the
        group to be normal in: conjugating the generators suffices, new
        ones included."""
        mul, inv = self.G.mul, self.G.inv
        pairs = [(inv(c), c) for c in conjugators]
        for s in self.gens:  # grows as conjugates are adjoined
            for ci, c in pairs:
                self.adjoin(mul(mul(ci, s), c))


def subgroup_generated(G: ConcreteGroup, gens: Iterable) -> frozenset:
    H = _Subgroup(G)
    for g in gens:
        H.adjoin(g)
    return frozenset(H.elements)


def normal_closure(G: ConcreteGroup, seeds: Iterable) -> frozenset:
    """Smallest normal subgroup containing the seeds."""
    N = _Subgroup(G)
    for s in seeds:
        N.adjoin(s)
    N.make_normal(G.generators)
    return frozenset(N.elements)


def _commutator(G: ConcreteGroup, x, y):
    return G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))


def lower_central_series(G: ConcreteGroup) -> SubgroupChain:
    """Commutator chain with the whole group first, stopping at the first
    trivial or stable term.

    Each term is carried by normal generators: if ``N`` is the normal
    closure of ``S`` and ``G = <X>``, then ``[N, G]`` is the normal closure
    of the ``[s, x]`` (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005).  Only the commutators that enlarge the next term
    as it is built are kept as its normal generators.
    """
    terms = [frozenset(G.elements)]
    normal_gens = list(G.generators)
    while len(terms[-1]) > 1:
        N = _Subgroup(G)
        normal_gens = [c for c in (_commutator(G, s, x)
                                   for s in normal_gens for x in G.generators)
                       if N.adjoin(c)]
        N.make_normal(G.generators)
        if len(N.elements) == len(terms[-1]):
            break
        terms.append(frozenset(N.elements))
    return SubgroupChain(tuple(terms))


def nilpotency_class(G: ConcreteGroup) -> Optional[int]:
    return lower_central_series(G).length()


def derived_series(G: ConcreteGroup) -> SubgroupChain:
    """Derived chain with the whole group first, stopping at the first
    trivial or stable term.

    If ``H = <T>``, then ``[H, H]`` is the normal closure in ``H`` of the
    ``[s, t]`` over pairs from ``T``; the generators it was built from
    generate it for the next step.
    """
    terms = [frozenset(G.elements)]
    gens = list(G.generators)
    while len(terms[-1]) > 1:
        D = _Subgroup(G)
        for s, t in itertools.combinations(gens, 2):
            D.adjoin(_commutator(G, s, t))
        D.make_normal(gens)
        if len(D.elements) == len(terms[-1]):
            break
        terms.append(frozenset(D.elements))
        gens = D.gens
    return SubgroupChain(tuple(terms))


def derived_length_concrete(G: ConcreteGroup) -> Optional[int]:
    return derived_series(G).length()


def subgroup_exponent(G: ConcreteGroup, H: Collection) -> int:
    """Exponent of the subgroup of ``G`` with the elements ``H``.

    For each prime ``q`` dividing ``|H|`` a ladder starts from the
    ``q``-parts of the elements (their powers to the ``q'``-part of
    ``|H|``) and raises each to the ``q``-th power, ``q - 1`` products
    apiece, until only the identity is left; the ``q``-part of the
    exponent is ``q`` to the number of rungs.
    """
    exponent = 1
    for q in prime_divisors(len(H)):
        m = len(H)
        while m % q == 0:
            m //= q
        level = H if m == 1 else {G.power(x, m) for x in H}
        while len(level) > 1:  # every rung holds the identity
            level = {functools.reduce(G.mul, (y,) * q) for y in level}
            exponent *= q
    return exponent


def exponent_concrete(G: ConcreteGroup) -> int:
    return G.exponent()


def kp_series_concrete(G: ConcreteGroup, p: int) -> SubgroupChain:
    """The general series: term ``i`` is generated by the ``p**j``-th powers
    of the ``r``-th lower central terms over all ``r * p**j >= i``.  For
    each ``r`` the least such ``j`` suffices because higher powers generate
    subgroups of lower ones."""
    q = G.order
    while q % p == 0:
        q //= p
    if q != 1:
        raise ValueError(f"{G.label} is not a {p}-group (order {G.order})")
    gammas = [t for t in lower_central_series(G).terms if len(t) > 1]
    if not gammas:
        return SubgroupChain((frozenset({G.identity}),))
    terms = []
    i = 1
    while True:
        gens = set()
        for r, gamma in enumerate(gammas, 1):
            j = 0
            while r * p**j < i:
                j += 1
            q = p**j
            gens.update(G.power(x, q) for x in gamma)
        K = subgroup_generated(G, gens)
        terms.append(K)
        if len(K) == 1:
            return SubgroupChain(tuple(terms))
        i += 1


def element_order_profile(G: ConcreteGroup) -> dict[int, int]:
    """How many elements have each order; a cheap isomorphism invariant."""
    profile: dict[int, int] = {}
    for x in G.elements:
        n = G.element_order(x)
        profile[n] = profile.get(n, 0) + 1
    return profile


# ---------------------------------------------------------------------------
# cross-validation of the symbolic route


@dataclass(frozen=True)
class VerifyReport:
    """Side-by-side symbolic and enumerated values for one wreath product."""

    label: str
    wreath_order: int
    shield_class: int
    oracle_class: Optional[int]
    spec_exponent: int
    oracle_exponent: int
    symbolic_chain_orders: tuple[int, ...]
    concrete_chain_orders: tuple[int, ...]

    @property
    def class_match(self) -> bool:
        return self.shield_class == self.oracle_class

    @property
    def exponent_match(self) -> bool:
        return self.spec_exponent == self.oracle_exponent

    @property
    def chain_match(self) -> bool:
        return self.symbolic_chain_orders == self.concrete_chain_orders

    @property
    def ok(self) -> bool:
        return self.class_match and self.exponent_match and self.chain_match

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "wreath_order": self.wreath_order,
            "shield_class": self.shield_class,
            "oracle_class": self.oracle_class,
            "class_match": self.class_match,
            "spec_exponent": self.spec_exponent,
            "oracle_exponent": self.oracle_exponent,
            "exponent_match": self.exponent_match,
            "symbolic_chain_orders": list(self.symbolic_chain_orders),
            "concrete_chain_orders": list(self.concrete_chain_orders),
            "chain_match": self.chain_match,
            "ok": self.ok,
        }


def _check_describes(spec_exponent: int, conc: ConcreteGroup, what: str) -> None:
    actual = conc.exponent()
    if actual != spec_exponent:
        raise ValueError(
            f"{what}: spec exponent {spec_exponent} but {conc.label} has exponent {actual}"
        )


def verify_shield(
    a_spec: PassiveGroupSpec,
    a_conc: ConcreteGroup,
    b_spec: AbelianGroupSpec,
    b_conc: ConcreteGroup,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Recompute class, exponent and K_p-chain of ``a wr b`` by enumeration
    and report them next to the symbolic values.

    Raises when the specs do not describe the concrete groups (that is a
    caller bug, not a disagreement between the two routes).
    """
    if not baumslag_nilpotent(a_spec, b_spec):
        raise ValueError("pair fails the nilpotency criterion; nothing to verify")
    _check_describes(a_spec.exponent(), a_conc, "passive group")
    _check_describes(b_spec.exponent(), b_conc, "active group")
    if not b_conc.is_abelian():
        raise ValueError(f"active group {b_conc.label} is not abelian")
    if b_spec.order() != b_conc.order:
        raise ValueError(
            f"active group: spec order {b_spec.order()} but {b_conc.label} has {b_conc.order}"
        )
    part = a_spec.parts[0]
    a_chain = lower_central_series(a_conc)
    if a_chain.length() != part.nilpotency_class:
        raise ValueError(f"passive group: profile class {part.nilpotency_class} "
                         f"does not match {a_conc.label}")
    for h in range(1, part.nilpotency_class + 1):
        gamma_exp = subgroup_exponent(a_conc, a_chain.terms[h - 1])
        if gamma_exp != part.prime ** part.s(h):
            raise ValueError(
                f"passive group: term {h} has exponent {gamma_exp}, "
                f"profile says {part.prime ** part.s(h)}"
            )
    p = part.prime
    wreath = concrete_wreath(a_conc, b_conc, budget)
    symbolic_chain = kp_series(b_spec, p)
    concrete_chain = kp_series_concrete(b_conc, p)
    return VerifyReport(
        label=wreath.label,
        wreath_order=wreath.order,
        shield_class=shield_class(a_spec, b_spec),
        oracle_class=nilpotency_class(wreath),
        spec_exponent=wreath_exponent(a_spec, b_spec),
        oracle_exponent=exponent_concrete(wreath),
        symbolic_chain_orders=tuple(symbolic_chain.term(i).order()
                                    for i in range(1, symbolic_chain.d + 2)),
        concrete_chain_orders=concrete_chain.orders(),
    )
