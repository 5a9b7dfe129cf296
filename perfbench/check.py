"""Expected values, computed by the benchmark itself, and output checkers.

Nothing here calls ``wreathvar``: the checkers read the program's answer
only through attribute and key names and compare it with values derived
from the generator's own representation (see ``gen``).  Each checker
returns None when the answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

from typing import Optional

from gen import fin


def plog_power(comp, j: int) -> int:
    """log_p of the order of ``B**(p**j)`` for a finite p-component ``B``."""
    return sum(max(u - j, 0) * card[1] for u, card in comp)


def closed_params(p: int, comp) -> tuple[int, int, int, dict]:
    """``(d, a, b, e)`` of a finite p-component from the closed form

    ``a = 1 + (p-1) * sum_j p^j (plog B^{p^j} - plog B^{p^{j+1}})``:
    the K_p-series only steps at indices ``s = p^j``, so ``e`` is zero
    everywhere else and is returned as ``{p^j: e(p^j)}``.
    """
    top = comp[0][0]
    e = {p**j: plog_power(comp, j) - plog_power(comp, j + 1) for j in range(top)}
    a = 1 + (p - 1) * sum(s * es for s, es in e.items())
    d = p ** (top - 1)
    return d, a, (p - 1) * d, e


def closed_class(p: int, s: tuple[int, ...], comp) -> int:
    """Shield's class ``max_h a*h + (s(h)-1)*b`` of ``A wr B``; the class of
    ``A`` itself when ``B`` is trivial."""
    if not comp:
        return len(s)
    _, a, b, _ = closed_params(p, comp)
    return max(a * h + (s_h - 1) * b for h, s_h in enumerate(s, 1))


def equivalent(c1, c2) -> bool:
    """The per-prime equivalence relation on p-components, from its definition."""
    k1 = next((i for i, (_, c) in enumerate(c1) if c[0]), None)
    k2 = next((i for i, (_, c) in enumerate(c2) if c[0]), None)
    if k1 is None and k2 is None:
        return c1 == c2
    if k1 != k2:
        return False
    return c1[:k1] == c2[:k2] and c1[k1][0] == c2[k2][0]


def divergence(c1, c2) -> tuple[int, int]:
    """``(t, w)``: the first position (1-based) that is not a coinciding finite
    factor, and the larger cyclic power present there."""
    i = 0
    while i < len(c1) and i < len(c2) and c1[i] == c2[i] and not c1[i][1][0]:
        i += 1
    powers = [c[i][0] for c in (c1, c2) if i < len(c)]
    return i + 1, max(powers)


def expected_witness(p: int, s: tuple[int, ...], c1, c2) -> dict:
    """The separation witness for non-equivalent p-components ``c1``, ``c2``.

    Both sides are cut to the common prefix plus the slot at ``(t, w)``
    (an infinite slot counts as one copy more than the finite one), then
    raised to the ``p**(w-1)``-th power, which leaves finite groups whose
    classes the closed form gives.
    """
    t, w = divergence(c1, c2)
    slots = [c[t - 1][1] if len(c) >= t and c[t - 1][0] == w else fin(0) for c in (c1, c2)]
    larger = 1 if slots[1] < slots[0] else 2
    big, small = (slots[0], slots[1]) if larger == 1 else (slots[1], slots[0])
    small_n = small[1]
    big_n = small_n + 1 if big[0] else big[1]

    def reduced(n: int):
        comp = [(u - (w - 1), c) for u, c in c1[: t - 1]]
        if n:
            comp.append((1, fin(n)))
        return comp

    return {
        "p": p,
        "t": t,
        "w": w,
        "class_b1": closed_class(p, s, reduced(big_n)),
        "class_b2": closed_class(p, s, reduced(small_n)),
        "burnside_exponent": p ** (w - 1),
        "larger_input": larger,
    }


# ---------------------------------------------------------------------------
# checkers


def check_witness(got, want: dict) -> Optional[str]:
    """``got`` is a ``SeparationWitness``."""
    if got is None:
        return "no witness"
    sep = got.separating
    if not got.class_b1 > got.class_b2 == sep.nilpotency_class:
        return (f"witness classes {got.class_b1} > {got.class_b2} == "
                f"{sep.nilpotency_class} do not hold")
    found = {
        "p": got.p, "t": got.t, "w": got.w, "class_b1": got.class_b1,
        "class_b2": got.class_b2, "burnside_exponent": sep.burnside_exponent,
        "larger_input": got.larger_input,
    }
    if found != want:
        return f"witness {found} != expected {want}"
    return None


def check_fingerprint(fp, want: dict) -> Optional[str]:
    found = {"exponent": fp.exponent, "nilpotent": fp.nilpotent,
             "class": fp.nilpotency_class, "solubility_bound": fp.solubility_bound}
    if found != want:
        return f"fingerprint {found} != expected {want}"
    return None


def check_decision(decision, want: dict) -> Optional[str]:
    """``want`` holds the verdict, the per-prime equivalences, the expected
    divergences, the witness (or None) and the two fingerprints."""
    verdict = decision.verdict.value
    if verdict != want["verdict"]:
        return f"verdict {verdict} != expected {want['verdict']}"
    per = [(pv.p, pv.equivalent, (pv.divergence.t, pv.divergence.w) if pv.divergence else None)
           for pv in decision.per_prime]
    if per != want["per_prime"]:
        return f"per-prime {per} != expected {want['per_prime']}"
    if want["witness"] is None:
        if decision.witness is not None:
            return "unexpected witness"
    else:
        err = check_witness(decision.witness, want["witness"])
        if err:
            return err
    if len(decision.fingerprints) != len(want["fingerprints"]):
        return "wrong number of fingerprints"
    for fp, fp_want in zip(decision.fingerprints, want["fingerprints"]):
        err = check_fingerprint(fp, fp_want)
        if err:
            return err
    return None


def check_classify(result, want: dict) -> Optional[str]:
    """``result`` is ``(fingerprint, chain, params)`` as the classify verb
    computes them."""
    fp, chain, params = result
    err = check_fingerprint(fp, want["fingerprint"])
    if err:
        return err
    d, a, b, e = want["params"]
    if (params.d, params.a, params.b) != (d, a, b):
        return f"params (d, a, b) = {(params.d, params.a, params.b)} != expected {(d, a, b)}"
    if len(params.e) != d or any(params.e[s - 1] != es for s, es in e.items()) \
            or sum(params.e) != sum(e.values()):
        return "params.e does not match the closed form"
    # by what the chain means, not how it is stored: its last nontrivial
    # index, and a trivial last term
    if chain.d != d or not chain.terms[-1].is_trivial():
        return f"chain has d = {chain.d}, expected {d} and a trivial last term"
    return None


def check_report(report, want_class: int) -> Optional[str]:
    """An oracle ``VerifyReport``: it must agree with itself and with the closed form."""
    if not report.ok:
        return f"oracle report not ok: {report}"
    if report.oracle_class != want_class:
        return f"oracle class {report.oracle_class} != closed form {want_class}"
    return None
