"""Brute-force validation engine over explicitly enumerated finite groups.

Cyclic groups, the presets and directly built groups are element lists
with rule-based multiplication and inversion, and their axioms are
checked element by element when they are built.  Products and wreath
products are assembled from such groups, whose axioms already hold, and
check only what their construction adds (see ``ConcreteGroup``).  Their
elements are permutations of at most 256 points, stored as ``bytes``
(``_byte_perms``): a wreath product acts on ``A x B``, a direct product
on the disjoint union of its factors.  A product is one
``bytes.translate``, and each of the two batches is one ``map`` of it:
a coset (``ConcreteGroup.right``, which also lists a wreath product
coset by coset of its base) or a rung of the exponent ladder raised to a
power (``ConcreteGroup.powers``, one padded table per element); other
groups chain ``mul``.  Past 256 points a wreath product's elements are
index vectors into its factors' element lists, multiplied by table
lookups, and a direct product's are tuples.  Subgroups are explicit
element sets, built from generators.  Every constructor checks the order
of its group against the element budget before it lists an element, by
the size rule of ``groupspec`` (``_product_within``), which
``skip_reason`` plans with too.  The point of the module is to recompute,
by sheer enumeration, everything the symbolic modules derive:
lower central series, nilpotency classes (from the sizes of the terms
alone, ``_central_terms``), exponents, derived lengths and
the general K_p-series (including the commutator terms an abelian group
never exercises), so that the two routes can be compared on desk-scale
instances.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from itertools import repeat
from operator import add, getitem, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .groupspec import (DEFAULT_BUDGET, AbelianGroupSpec, PassiveAtom, PassiveGroupSpec,
                        _product_within, prime_divisors)
from .shield import ShieldParams, baumslag_reason, shield_class, shield_params, wreath_exponent

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
    "verify_shield",
]

# every triple from the multiplication table up to this order: its n**2
# products are no more than the 4 * _SPOT_TRIPLES of the spot check
_FULL_ASSOC_LIMIT = 28
_SPOT_TRIPLES = 200
_MAX_POINTS = 256  # a permutation on more points has no bytes.translate


class BudgetExceededError(ValueError):
    """The requested group would exceed the element budget."""


class ConcreteGroup:
    """A finite group as an element list plus multiplication/inverse rules.

    A group built here has its axioms checked: the identity and inverse
    laws on every element, and associativity (``_check_associative``).
    Products and wreath products are built by ``_from_factors`` instead,
    from groups checked that way.  Their construction carries the factors'
    laws to every element, so only the assembled rules are checked there:
    the identity and inverse laws on the generators, and the same
    associativity check (and, in ``concrete_wreath``, the action).  Whether
    their elements are byte permutations (``_byte_perms``), index vectors
    or tuples, the same checks run.  The full check of such groups runs in
    the tests.

    Besides ``mul``, a group has two batched rules, ``right`` and
    ``powers``.  On byte permutations they are the group's own (see
    ``_byte_perms``); on any other group they chain ``mul``, read when
    they are called.
    """

    def __init__(
        self,
        label: str,
        elements: Sequence,
        mul: Callable,
        inv: Callable,
        identity,
        generators: Sequence,
    ):
        self._assign(label, elements, mul, inv, identity, generators)
        if identity not in self.elements:
            raise ValueError(f"{label}: identity not among the elements")
        self._check_laws(self.elements)
        self._check_associative()

    @classmethod
    def _from_factors(cls, label: str, elements: Iterable, identity, generators: Sequence,
                      mul: Callable, inv: Callable, right: Optional[Callable] = None,
                      powers: Optional[Callable] = None) -> "ConcreteGroup":
        """A group whose rules are assembled from already checked groups,
        with its own batched rules when ``right`` and ``powers`` are
        given."""
        group = cls.__new__(cls)
        group._assign(label, elements, mul, inv, identity, generators)
        if right is not None:
            group.right, group.powers = right, powers
        group._check_laws(group.generators)
        group._check_associative()
        return group

    def _assign(self, label, elements, mul, inv, identity, generators) -> None:
        self.label = label
        self.elements = tuple(elements)
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.generators = tuple(generators)

    @property
    def order(self) -> int:
        return len(self.elements)

    def _check_laws(self, xs: Iterable) -> None:
        """The identity and inverse laws on each of ``xs``."""
        e, mul, inv = self.identity, self.mul, self.inv
        for x in xs:
            if mul(e, x) != x or mul(x, e) != x:
                raise ValueError(f"{self.label}: identity fails on {x!r}")
            if mul(x, inv(x)) != e:
                raise ValueError(f"{self.label}: inverse fails on {x!r}")

    def _spot_triples(self) -> Iterable[tuple]:
        """``_SPOT_TRIPLES`` triples of seeded draws, the same as
        ``Random(0xC0FFEE).choices(self.elements, k=3 * _SPOT_TRIPLES)``."""
        elements = self.elements
        draws = iter([elements[i] for i in _spot_indices(self.order, 3 * _SPOT_TRIPLES)])
        return zip(draws, draws, draws)

    def _check_associative(self) -> None:
        """Every triple, with closure, from the multiplication table up to
        ``_FULL_ASSOC_LIMIT`` elements; ``_SPOT_TRIPLES`` seeded triples
        above."""
        if self.order <= _FULL_ASSOC_LIMIT:
            self._check_table()
            return
        mul = self.mul
        for x, y, z in self._spot_triples():
            if mul(mul(x, y), z) != mul(x, mul(y, z)):
                raise ValueError(f"{self.label}: associativity fails")

    def _check_table(self) -> None:
        """Closure and associativity on every triple, read off the
        multiplication table: ``rows[x][y]`` is the index of ``x y``, so
        ``rows[x y]`` lists the ``(x y) z`` and ``rows[y]`` translated
        through ``rows[x]`` the ``x (y z)``, for every ``z`` at once."""
        elements, mul = self.elements, self.mul
        index = {x: i for i, x in enumerate(elements)}
        try:
            rows = [bytes([index[mul(x, y)] for y in elements]) for x in elements]
        except KeyError:
            raise ValueError(f"{self.label}: closure fails, a product leaves the "
                             "elements") from None
        pad = bytes(256 - len(rows))
        for row_x in rows:
            if [rows[xy] for xy in row_x] != list(map(bytes.translate, rows, repeat(row_x + pad))):
                raise ValueError(f"{self.label}: associativity fails")

    def right(self, xs: Iterable, t) -> Iterator:
        """The products ``x t`` of each of ``xs`` with ``t``."""
        return map(self.mul, xs, repeat(t))

    def powers(self, xs: Collection, k: int) -> Iterable:
        """The powers ``x ** k``, ``k >= 1``, of each of ``xs``: ``k - 1``
        chained maps of ``mul``, each of which iterates ``xs`` again."""
        ys = xs
        for _ in range(k - 1):
            ys = map(self.mul, ys, xs)
        return ys

    def power(self, x, k: int):
        """``x ** k`` by squaring from the top bit down, in
        ``floor(log2 k) + popcount(k) - 1`` products for ``k >= 1``."""
        if k < 0:
            return self.power(self.inv(x), -k)
        if k == 0:
            return self.identity
        mul, acc = self.mul, x
        for bit in bin(k)[3:]:
            acc = mul(acc, acc)
            if bit == "1":
                acc = mul(acc, x)
        return acc

    def element_order(self, x) -> int:
        n, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.mul(g, h) == self.mul(h, g)
            for g in self.generators
            for h in self.generators
        )

    def __repr__(self) -> str:
        return f"ConcreteGroup({self.label!r}, order={self.order})"


@functools.lru_cache(maxsize=64)
def _spot_indices(n: int, k: int) -> tuple[int, ...]:
    """The indices that ``Random(0xC0FFEE).choices(range(n), k=k)`` draws:
    ``int`` floors a non-negative float.  Every group of order ``n`` draws
    the same, so they are drawn once."""
    draws = itertools.islice(iter(random.Random(0xC0FFEE).random, None), k)
    return tuple(map(int, map(float(n).__mul__, draws)))


class SubgroupChain(collections.namedtuple("SubgroupChain", "terms")):
    """Descending chain of explicit element sets, first term the whole group."""

    __slots__ = ()

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)

    def length(self) -> Optional[int]:
        """Steps down to the trivial group; None when the chain stops above it."""
        return len(self.terms) - 1 if len(self.terms[-1]) == 1 else None


# ---------------------------------------------------------------------------
# constructions


def _factor_powers(factors: Iterable) -> Iterator[tuple[int, int]]:
    """``(base, count)`` for each of ``factors``, a preset's name or a
    ``PrimaryFactor``, whose order is ``base ** count``.  An inline profile
    (None) or an infinite factor has no enumerable order: the
    ``ValueError`` raised names it in the words of :func:`skip_reason`."""
    for f in factors:
        if isinstance(f, str):  # a preset, of order 8
            yield 8, 1
        elif f is None:
            raise ValueError("inline profiles cannot be enumerated")
        elif f.copies.is_infinite:
            raise ValueError("passive group is infinite")
        else:
            yield f.prime, f.power * f.copies.as_int()


def concrete_cyclic(n: int, budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if _product_within(((n, 1),), budget) is None:
        raise BudgetExceededError(f"C_{n}: {n} elements exceed the budget {budget}")
    return ConcreteGroup(
        label=f"C_{n}",
        elements=range(n),
        mul=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        identity=0,
        generators=(1,) if n > 1 else (),
    )


def _byte_perms(n: int) -> tuple[Callable, ...]:
    """The product, inverse and batched rules (``right`` and ``powers`` of
    ``ConcreteGroup``) of permutations of ``n <= _MAX_POINTS`` points
    stored as ``bytes``, ``x[i]`` the image of point ``i``.

    ``x y`` (``x`` first) sends ``i`` to ``y[x[i]]``: one
    ``bytes.translate`` through ``y``, padded to a full table.  A batch is
    one ``map`` of ``bytes.translate``, with no Python call per product;
    the tables are padded by ``operator.add``, since mapping the slot
    wrapper ``bytes.__add__`` is slower.  ``powers`` pads each element
    once and translates through that table ``k - 1`` times; the ``tee``
    copies of the tables are drawn in lockstep, one element at a time, so
    no list of them is held.
    """
    pad, points = bytes(256 - n), bytes(range(n))

    def mul(x, y):
        return x.translate(y + pad)

    def inv(x):
        return bytes.maketrans(x, points)[:n]

    def right(xs, t):
        return map(bytes.translate, xs, repeat(t + pad))

    def powers(xs, k):
        ys = xs
        for tables in itertools.tee(map(add, xs, repeat(pad)), k - 1):
            ys = map(bytes.translate, ys, tables)
        return ys

    return mul, inv, right, powers


def _placed(rows: Sequence[Sequence[int]], offset: int) -> list[bytes]:
    """Index tables as blocks of a byte permutation, moved to the points
    ``offset, offset + 1, ...``."""
    return [bytes([offset + i for i in row]) for row in rows]


def concrete_product(groups: Sequence[ConcreteGroup], budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    """The direct product of finite groups.

    Up to ``_MAX_POINTS`` points in all, an element is the permutation it
    induces on the disjoint union of the factors' elements, each factor
    acting on its own by right multiplication (:func:`_product_on_points`);
    past that, it is the tuple of its coordinates
    (:func:`_product_on_tuples`).
    """
    label = " x ".join(g.label for g in groups) or "1"
    if _product_within([(g.order, 1) for g in groups], budget) is None:
        raise BudgetExceededError(f"{label}: {math.prod(g.order for g in groups)} elements "
                                  f"exceed the budget {budget}")
    points = sum(g.order for g in groups)
    build = _product_on_points if points <= _MAX_POINTS else _product_on_tuples
    return ConcreteGroup._from_factors(label, *build(groups))


def _product_on_points(groups: Sequence[ConcreteGroup]) -> tuple:
    """A direct product's elements, identity, generators and rules as byte
    permutations: the block of each coordinate's right multiplication on
    its factor's points, joined."""
    indexes, rows, offset = [], [], 0
    for g in groups:
        index, right, _ = _tables(g)
        indexes.append(index)
        rows.append(_placed(right, offset))
        offset += g.order
    trivial = [r[index[g.identity]] for r, index, g in zip(rows, indexes, groups)]
    generators = [
        b"".join([*trivial[:i], rows[i][indexes[i][gen]], *trivial[i + 1:]])
        for i, g in enumerate(groups)
        for gen in g.generators
    ]
    return (map(b"".join, itertools.product(*rows)), b"".join(trivial), generators,
            *_byte_perms(offset))


def _product_on_tuples(groups: Sequence[ConcreteGroup]) -> tuple:
    """A direct product's elements, identity, generators and rules as
    tuples, multiplied coordinate-wise by the factors' rules."""
    muls = tuple(g.mul for g in groups)
    invs = tuple(g.inv for g in groups)
    identity = tuple(g.identity for g in groups)
    generators = [
        identity[:i] + (gen,) + identity[i + 1 :]
        for i, g in enumerate(groups)
        for gen in g.generators
    ]
    return (itertools.product(*(g.elements for g in groups)), identity, generators,
            lambda x, y: tuple(m(a, b) for m, a, b in zip(muls, x, y)),
            lambda x: tuple(f(a) for f, a in zip(invs, x)))


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
    return _product_within(((a_order, b_order), (b_order, 1)), cap)


def _tables(G: ConcreteGroup) -> tuple[dict, list[tuple[int, ...]], list[int]]:
    """``G`` on indices into ``G.elements``: each element's index, the
    right multiplications (row ``k`` maps ``i`` to the index of
    ``elements[i] * elements[k]``) and the inverses."""
    elements, mul = G.elements, G.mul
    index = {x: i for i, x in enumerate(elements)}
    right = [tuple([index[mul(x, y)] for x in elements]) for y in elements]
    return index, right, [index[G.inv(x)] for x in elements]


def concrete_wreath(A: ConcreteGroup, B: ConcreteGroup, budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    """The wreath product of finite groups, ``B`` acting on ``|B|``
    copies of ``A`` by right translation.

    Up to ``_MAX_POINTS`` points, an element ``(f, b)`` is the permutation
    ``(a, k) -> (a f(k), k b)`` of ``A x B`` (:func:`_wreath_on_points`);
    past that, it is an index vector (:func:`_wreath_on_indices`).
    ``A wr 1`` has ``A``'s elements and rules under the wreath's label,
    since ``A`` alone may have far more than ``_MAX_POINTS`` elements and
    ``|A|^2`` table entries.

    ``B``'s rule is checked to be a translation action on its generators:
    with ``A`` and ``B`` checked when built, that and the generator laws
    and associativity check of ``ConcreteGroup._from_factors`` are the
    wreath product's axiom check.
    """
    label = f"{A.label} wr {B.label}"
    if wreath_order(A.order, B.order, cap=budget) is None:
        raise BudgetExceededError(f"{label}: order exceeds the budget {budget}")
    nb = B.order
    b_tables = b_index, shift, _ = _tables(B)  # shift[b][k]: index of elements[k] * elements[b]
    if shift[b_index[B.identity]] != tuple(range(nb)):
        raise ValueError(f"{label}: the identity of {B.label} moves a point")
    for g in B.generators:
        s_g = shift[b_index[g]]
        if any(shift[s_g[b]] != tuple(map(s_g.__getitem__, shift[b])) for b in range(nb)):
            raise ValueError(f"{label}: {B.label} does not act by translation")
    if nb == 1:
        return ConcreteGroup._from_factors(label, A.elements, A.identity, A.generators,
                                           A.mul, A.inv, A.right, A.powers)
    build = _wreath_on_points if A.order * nb <= _MAX_POINTS else _wreath_on_indices
    return ConcreteGroup._from_factors(label, *build(A, B, b_tables))


def _wreath_on_points(A: ConcreteGroup, B: ConcreteGroup, b_tables: tuple) -> tuple:
    """``A wr B``'s elements, identity, generators and rules as byte
    permutations of the ``|A| |B|`` points ``k |A| + a``, standing for
    ``(A.elements[a], B.elements[k])``, given ``_tables(B)``.

    ``(f, b)`` maps the block of ``k``'s points onto the block of
    ``k b``'s by the right multiplication by ``f(k)``, so the base, the
    elements with active coordinate ``1``, are the joins of one placed row
    of ``A``'s table per block.  The elements with active coordinate ``b``
    are the coset of the base by ``(1, b)``, one batch ``right``: they are
    listed coset by coset, in the order of ``B.elements``.
    """
    na = A.order
    a_index, a_right, _ = _tables(A)
    placed = [_placed(a_right, c * na) for c in range(B.order)]
    blocks = [[placed[c] for c in s] for s in b_tables[1]]  # blocks[j][k][i]

    def element(vector, j):
        return b"".join(map(getitem, blocks[j], vector))

    mul, inv, right, powers = _byte_perms(na * B.order)
    e_b, trivial = b_tables[0][B.identity], [a_index[A.identity]] * B.order
    base = list(map(b"".join, itertools.product(*blocks[e_b])))
    elements = itertools.chain.from_iterable(
        base if j == e_b else right(base, element(trivial, j)) for j in range(B.order))
    return (elements, *_wreath_generators(A, B, a_index, b_tables[0], element),
            mul, inv, right, powers)


def _wreath_on_indices(A: ConcreteGroup, B: ConcreteGroup, b_tables: tuple) -> tuple:
    """``A wr B``'s elements, identity, generators and rules on index
    vectors, given ``_tables(B)`` with ``|B| >= 2``.

    An element ``(i_0, ..., i_{n-1}, j)``, with ``n = |B|``, is the pair
    ``(f, b)`` with ``f(B.elements[k]) = A.elements[i_k]`` and
    ``b = B.elements[j]``.  Both factors' products are tabulated, and a
    product is one tuple built from table lookups.
    """
    na, nb = A.order, B.order
    b_index, shift, b_inv = b_tables
    a_index, a_right, a_inv = _tables(A)
    take = [itemgetter(*s) for s in shift]  # take[b](y): y's coordinates translated by b

    def mul(x, y):
        b = x[nb]
        return (*map(getitem, map(a_right.__getitem__, take[b](y)), x), shift[y[nb]][b])

    def inv(x):
        b = b_inv[x[nb]]
        return (*map(a_inv.__getitem__, take[b](x)), b)

    return (itertools.product(*[range(na)] * nb, range(nb)),
            *_wreath_generators(A, B, a_index, b_index, lambda vector, j: (*vector, j)),
            mul, inv)


def _wreath_generators(A: ConcreteGroup, B: ConcreteGroup, a_index: dict, b_index: dict,
                       element: Callable) -> tuple:
    """The identity and generators of ``A wr B``, where ``element(vector,
    j)`` writes ``(f, B.elements[j])`` with ``f(B.elements[k]) =
    A.elements[vector[k]]``: ``A``'s generators at ``B``'s identity, then
    ``B``'s."""
    e_b = b_index[B.identity]
    trivial = [a_index[A.identity]] * B.order
    generators = [element([*trivial[:e_b], a_index[g], *trivial[e_b + 1:]], e_b)
                  for g in A.generators]
    generators += [element(trivial, b_index[g]) for g in B.generators]
    return element(trivial, e_b), generators


def concrete_abelian(spec: AbelianGroupSpec, budget: int = DEFAULT_BUDGET) -> ConcreteGroup:
    """Realize a finite abelian spec as a product of cyclic groups, or as
    the cyclic group itself when it has one cyclic factor."""
    if not spec.is_finite():
        raise ValueError(f"cannot enumerate the infinite group {spec}")
    # order check before expanding multiplicities into factor lists
    if _product_within(_factor_powers(spec.factors), budget) is None:
        raise BudgetExceededError(f"{spec.render()}: order exceeds the budget {budget}")
    group = _realized(spec.factors, budget)
    group.label = spec.render()
    return group


def _realized(factors: Iterable, budget: int) -> ConcreteGroup:
    """The direct product of ``factors``, each a preset's name or a finite
    ``PrimaryFactor``.  A single group is returned as built: it was
    checked in full, and a product of one factor would check it again."""
    parts = []
    for f in factors:
        if isinstance(f, str):
            parts.append(concrete_preset(f))
        else:
            parts.extend([concrete_cyclic(f.cyclic_order, budget)] * f.copies.as_int())
    return parts[0] if len(parts) == 1 else concrete_product(parts, budget)


def passive_order(atoms: Iterable[PassiveAtom], cap: int) -> Optional[int]:
    """Order of the group a passive expression denotes, or None above
    ``cap``.  Every factor is read before any is multiplied, so the first
    with no enumerable order is named (:func:`_factor_powers`) even past
    the cap."""
    return _product_within(list(_factor_powers(atom.group for atom in atoms)), cap)


def skip_reason(atoms: Sequence[PassiveAtom], b_spec: AbelianGroupSpec,
                budget: int) -> Optional[str]:
    """Why ``A wr B`` cannot be enumerated within ``budget``, or None when it can."""
    if not b_spec.is_finite():
        return "active group is infinite"
    try:
        a_order = passive_order(atoms, budget)
    except ValueError as err:
        return str(err)
    if a_order is None:
        return f"budget exceeded (passive group alone is larger than {budget})"
    # B alone is named only past twice the budget; up to there the
    # wreath line below names its exact order
    b_order = _product_within(_factor_powers(b_spec.factors), 2 * budget)
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
    return _realized((atom.group for atom in atoms), budget)


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
    generators adjoined so far, each of which enlarged it.  It grows by
    whole right cosets, each formed by one batch ``G.right``."""

    def __init__(self, G: ConcreteGroup):
        self.G = G
        self.elements = [G.identity]
        self.members = {G.identity}
        self.gens: list = []

    def adjoin(self, g) -> bool:
        """Extend to ``<self, g>``; False when ``g`` is already inside.

        The new subgroup is a union of right cosets ``H t`` of the old one,
        ``H``.  Since ``H t s = H (t s)``, one product per coset
        representative ``t`` and generator ``s`` finds every new coset, and
        each coset is one batch ``G.right``.
        """
        if g in self.members:
            return False
        mul, right = self.G.mul, self.G.right
        members, elements = self.members, self.elements
        rest = elements[1:]  # H without its identity
        self.gens.append(g)
        reps = []

        def add_coset(t):
            reps.append(t)
            coset = [t, *right(rest, t)]
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


def _central_terms(G: ConcreteGroup) -> Iterator[list]:
    """The lower central terms after ``G``, each as the element list of its
    ``_Subgroup``, up to the first trivial one, or up to the last before
    the series stalls.

    Each term is carried by normal generators: if ``N`` is the normal
    closure of ``S`` and ``G = <X>``, then ``[N, G]`` is the normal closure
    of the ``[s, x]`` (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005).  Only the commutators that enlarge the next term
    as it is built are kept as its normal generators.
    """
    size, normal_gens = G.order, list(G.generators)
    while size > 1:
        N = _Subgroup(G)
        normal_gens = [c for c in (_commutator(G, s, x)
                                   for s in normal_gens for x in G.generators)
                       if N.adjoin(c)]
        N.make_normal(G.generators)
        if len(N.elements) == size:
            return
        yield N.elements
        size = len(N.elements)


def lower_central_series(G: ConcreteGroup) -> SubgroupChain:
    """Commutator chain with the whole group first, stopping at the first
    trivial or stable term (see ``_central_terms``)."""
    return SubgroupChain((frozenset(G.elements), *map(frozenset, _central_terms(G))))


def nilpotency_class(G: ConcreteGroup) -> Optional[int]:
    """``lower_central_series(G).length()``, read off the terms' sizes: no
    term, ``G`` included, is frozen into a set."""
    c, size = 0, G.order
    for c, term in enumerate(_central_terms(G), 1):
        size = len(term)
    return c if size == 1 else None


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
    ``|H|``) and raises the whole rung to the ``q``-th power, one batch
    ``G.powers`` over it, until only the identity is left; the ``q``-part
    of the exponent is ``q`` to the number of rungs.
    """
    exponent, powers = 1, G.powers
    for q in prime_divisors(len(H)):
        m = len(H)
        while m % q == 0:
            m //= q
        level = H if m == 1 else {G.power(x, m) for x in H}
        while len(level) > 1:  # every rung holds the identity
            level = set(powers(level, q))  # its passes over level share one order
            exponent *= q
    return exponent


def exponent_concrete(G: ConcreteGroup) -> int:
    return subgroup_exponent(G, G.elements)


def kp_series_concrete(G: ConcreteGroup, p: int) -> SubgroupChain:
    """The general series: term ``i`` is generated by the ``p**j``-th powers
    of the ``r``-th lower central terms over all ``r * p**j >= i``.  For
    each ``r`` the least such ``j`` suffices because higher powers generate
    subgroups of lower ones, and a term whose least ``j`` are those of the
    one before it is that term again."""
    q = G.order
    while q % p == 0:
        q //= p
    if q != 1:
        raise ValueError(f"{G.label} is not a {p}-group (order {G.order})")
    gammas = [t for t in lower_central_series(G).terms if len(t) > 1]
    if not gammas:
        return SubgroupChain((frozenset({G.identity}),))
    terms = []
    i, last = 1, None
    while True:
        js = []
        for r in range(1, len(gammas) + 1):
            j = 0
            while r * p**j < i:
                j += 1
            js.append(j)
        if js == last:
            K = terms[-1]
        else:
            K = subgroup_generated(G, {G.power(x, p**j) for j, gamma in zip(js, gammas)
                                       for x in gamma})
        terms.append(K)
        if len(K) == 1:
            return SubgroupChain(tuple(terms))
        i, last = i + 1, js


# ---------------------------------------------------------------------------
# cross-validation of the symbolic route


class VerifyReport(collections.namedtuple(
        "VerifyReport", "label wreath_order shield_class oracle_class spec_exponent "
        "oracle_exponent symbolic_chain_orders concrete_chain_orders")):
    """Side-by-side symbolic and enumerated values for one wreath product."""

    __slots__ = ()

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


def _symbolic_chain_orders(params: ShieldParams) -> tuple[int, ...]:
    """``|K_1| .. |K_{d+1}|`` of ``B`` from Shield's steps alone: ``K_i`` is
    ``B^(p^j)`` for the least ``j`` with ``p^j >= i``, and ``|B^(p^j)| =
    p^(steps[j] + ... + steps[u-1])``, the suffix sums, ``j = 0..u``."""
    p, d = params.p, params.d
    orders = [p**s for s in itertools.accumulate(reversed(params.steps), initial=0)][::-1]
    chain = [orders[0]]  # i = 1, j = 0
    for j in range(1, len(orders)):  # p^(j-1) < i <= p^j, and i <= d + 1
        chain += [orders[j]] * (min(p**j, d + 1) - p ** (j - 1))
    return tuple(chain)


def _check_describes(spec_exponent: int, conc: ConcreteGroup, what: str) -> None:
    actual = subgroup_exponent(conc, conc.elements)
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
    if baumslag_reason(a_spec, b_spec) is not None:
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
    # term 1 is a_conc itself, whose exponent _check_describes compared
    for h in range(2, part.nilpotency_class + 1):
        gamma_exp = subgroup_exponent(a_conc, a_chain.terms[h - 1])
        if gamma_exp != part.prime ** part.s(h):
            raise ValueError(
                f"passive group: term {h} has exponent {gamma_exp}, "
                f"profile says {part.prime ** part.s(h)}"
            )
    p = part.prime
    wreath = concrete_wreath(a_conc, b_conc, budget)
    return VerifyReport(
        label=wreath.label,
        wreath_order=wreath.order,
        shield_class=shield_class(a_spec, b_spec),
        oracle_class=nilpotency_class(wreath),
        spec_exponent=wreath_exponent(a_spec, b_spec),
        oracle_exponent=exponent_concrete(wreath),
        symbolic_chain_orders=_symbolic_chain_orders(shield_params(b_spec, p)),
        concrete_chain_orders=kp_series_concrete(b_conc, p).orders(),
    )
