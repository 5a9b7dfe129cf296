"""Seeded input generators.

Every generator draws from a ``random.Random`` it is handed and returns
the strings the program receives together with the facts the checker
needs.  Those facts come from how the input was built (which prime was
altered, which passive profile was chosen), never from the code under
test.

Groups are kept in a small representation of their own, independent of
``wreathvar``: a cardinal is ``(infinite, value)`` (``(False, n)`` for
``n`` copies, ``(True, k)`` for ``aleph_k``), a p-component is a tuple of
``(power, cardinal)`` with distinct powers in descending order, and a
group maps each prime to its non-empty component.  Tuple order on
cardinals is the library's order: every finite value below every aleph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# ---------------------------------------------------------------------------
# numbers


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_PRIMES = tuple(n for n in range(2, 100) if _is_probable_prime(n))


def prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn from ``[lo, hi)``: the first one at or after a random start."""
    n = rng.randrange(lo, hi)
    while not _is_probable_prime(n):
        n += 1
    return n


def max_power(p: int, d_cap: int) -> int:
    """Largest ``u`` with ``p**(u-1) <= d_cap``: caps the K_p-chain length."""
    u = 1
    while p**u <= d_cap:
        u += 1
    return u


# ---------------------------------------------------------------------------
# groups


def fin(n: int) -> tuple[bool, int]:
    return (False, n)


def aleph(k: int) -> tuple[bool, int]:
    return (True, k)


def render_card(card) -> str:
    return f"aleph_{card[1]}" if card[0] else str(card[1])


def render_factor(p: int, u: int, card) -> str:
    """The library's canonical spelling of one normalized factor."""
    base = f"C_{p}" if u == 1 else f"C_{{{p}^{u}}}"
    if card == fin(1):
        return base
    if card[0]:
        return f"{base}^{{{render_card(card)}}}"
    return f"{base}^{card[1]}"


def render_group(group: dict) -> str:
    """Canonical normal form: primes ascending, powers descending."""
    if not group:
        return "1"
    return " * ".join(
        render_factor(p, u, card) for p in sorted(group) for u, card in group[p]
    )


def group_exponent(group: dict) -> int:
    out = 1
    for p, comp in group.items():
        out *= p ** comp[0][0]
    return out


def _split_card(rng: random.Random, card):
    """Two cardinals summing to ``card``, or None when it cannot split."""
    if card[0]:
        if rng.random() < 0.5:
            return card, fin(rng.randint(1, 9))
        return card, aleph(rng.randint(0, card[1]))
    if card[1] < 2:
        return None
    k = rng.randint(1, card[1] - 1)
    return fin(k), fin(card[1] - k)


def _spell_term(rng: random.Random, p: int, u: int, card, index: int) -> str:
    """One cyclic term in one of its equivalent spellings: drawn at random,
    except that large bases take their spellings in turn, because the
    spellings of a large base differ in parsing cost."""
    q = p**u
    forms = [f"C_{{{p}^{u}}}"]
    if u == 1:
        forms += [f"C_{p}", f"C_{{{p}}}"]
    elif q < 10**6:
        forms += [f"C_{q}", f"C_{{{q}}}"]
    base = forms[index % len(forms)] if q >= 10**6 else rng.choice(forms)
    if card == fin(1):
        return base if rng.random() < 0.7 else base + "^1"
    if card[0]:
        if card[1] == 0 and rng.random() < 0.3:
            return base + "^{aleph}"
        return base + f"^{{aleph_{card[1]}}}"
    return base + (f"^{card[1]}" if rng.random() < 0.5 else f"^{{{card[1]}}}")


def spell_group(rng: random.Random, group: dict, n_terms: int) -> str:
    """A shuffled product of at least ``n_terms`` cyclic terms (when the
    multiplicities allow it) that normalizes to ``group``."""
    terms = [(p, u, card) for p, comp in group.items() for u, card in comp]
    attempts = 0
    while len(terms) < n_terms and attempts < 20 * n_terms:
        attempts += 1
        i = rng.randrange(len(terms))
        p, u, card = terms[i]
        parts = _split_card(rng, card)
        if parts is None:
            continue
        terms[i] = (p, u, parts[0])
        terms.append((p, u, parts[1]))
    rng.shuffle(terms)
    return " * ".join(_spell_term(rng, p, u, card, i) for i, (p, u, card) in enumerate(terms))


def first_infinite(comp) -> Optional[int]:
    for i, (_, card) in enumerate(comp):
        if card[0]:
            return i
    return None


def random_component(rng: random.Random, umax: int, top: Optional[int] = None,
                     inf_prob: float = 0.3):
    """A p-component with powers drawn up to ``umax`` (top power ``top`` if given)."""
    top = top if top is not None else rng.randint(1, umax)
    lower = list(range(1, top))
    k = rng.randint(0, len(lower))
    powers = [top] + sorted(rng.sample(lower, k), reverse=True)
    return tuple(
        (u, aleph(rng.randint(0, 2)) if rng.random() < inf_prob else fin(rng.randint(1, 60)))
        for u in powers
    )


def allowed_alteration(rng: random.Random, comp):
    """An equivalent component: everything at and after the first infinite
    factor may change except that factor's cyclic power."""
    k = first_infinite(comp)
    if k is None:
        return comp
    u_k = comp[k][0]
    tail_powers = sorted(rng.sample(range(1, u_k), rng.randint(0, u_k - 1)), reverse=True)
    tail = tuple(
        (u, aleph(rng.randint(0, 2)) if rng.random() < 0.3 else fin(rng.randint(1, 60)))
        for u in tail_powers
    )
    return comp[:k] + ((u_k, aleph(rng.randint(0, 2))),) + tail


def forbidden_alteration(rng: random.Random, comp):
    """A non-equivalent component with the same top power."""
    k = first_infinite(comp)
    head = len(comp) if k is None else k
    options = []
    if head:
        options.append("copies")
    if k is not None:
        options.append("finite")
    used = {u for u, _ in comp}
    ceiling = comp[0][0]
    floor = comp[k][0] if k is not None else 0
    free = [u for u in range(floor + 1, ceiling) if u not in used]
    if free:
        options.append("insert")
    choice = rng.choice(options)
    if choice == "copies":
        i = rng.randrange(head)
        u, (_, n) = comp[i]
        n2 = n + rng.choice([-1, 1]) * rng.randint(1, 20)
        if n2 < 1:
            n2 = n + rng.randint(1, 20)
        return comp[:i] + ((u, fin(n2)),) + comp[i + 1:]
    if choice == "finite":
        return comp[:k] + ((comp[k][0], fin(rng.randint(1, 60))),) + comp[k + 1:]
    u = rng.choice(free)
    return tuple(sorted(comp + ((u, fin(rng.randint(1, 60))),), key=lambda f: -f[0]))


def exponent_alteration(rng: random.Random, comp, umax: int):
    """A component with a different top power."""
    top = comp[0][0]
    if top < umax and (len(comp) == 1 or rng.random() < 0.5):
        return ((rng.randint(top + 1, umax), fin(rng.randint(1, 60))),) + comp
    if len(comp) >= 2:
        return comp[1:]
    return ((top - 1, comp[0][1]),)


# ---------------------------------------------------------------------------
# passive groups


@dataclass(frozen=True)
class PassiveAtom:
    """One factor of a passive expression with the profile it contributes."""

    text: str
    prime: int
    s: tuple[int, ...]  # s(h): exponent of the h-th lower central term, as a power of p
    dl: Optional[int]  # derived length, None when the expression does not give it


def preset(name: str) -> PassiveAtom:
    return PassiveAtom(name, 2, (2, 1), 2)


def cyclic_atom(rng: random.Random, p: int, k: int) -> PassiveAtom:
    base = f"C_{p}" if k == 1 else f"C_{{{p}^{k}}}"
    copies = rng.choice(["", "", "^2", "^3"])
    return PassiveAtom(base + copies, p, (k,), 1)


def profile_atom(rng: random.Random, p: int) -> PassiveAtom:
    length = rng.randint(1, 4)
    s = sorted((rng.randint(1, 4) for _ in range(length)), reverse=True)
    dl = rng.choice([None, rng.randint(1, 3)])
    body = f"p={p}, s=[{', '.join(map(str, s))}]"
    if dl is not None:
        body += f", dl={dl}"
    return PassiveAtom(f"nilpotent({body})", p, tuple(s), dl)


def random_atom(rng: random.Random, p: int, profiles: bool = False) -> PassiveAtom:
    if profiles and rng.random() < 0.3:
        return profile_atom(rng, p)
    if p == 2 and rng.random() < 0.5:
        return preset(rng.choice(["D4", "Q8"]))
    return cyclic_atom(rng, p, rng.randint(1, 3))


def spell_passive(rng: random.Random, atoms) -> str:
    atoms = list(atoms)
    rng.shuffle(atoms)
    return " * ".join(a.text for a in atoms)


def passive_exponent(atoms) -> int:
    out = 1
    for a in atoms:
        out *= a.prime ** a.s[0]
    return out


def passive_dl(atoms) -> Optional[int]:
    dls = [a.dl for a in atoms]
    return None if any(dl is None for dl in dls) else max(dls)
