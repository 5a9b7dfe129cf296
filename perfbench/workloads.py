"""The four workloads: how each op is generated, run, traced and checked.

An op is one user request.  Ops come in rounds: one round holds one op
from every stratum of the workload, in a seeded order, so any whole
number of rounds has exactly the same mix of sizes and kinds.  A timed
run repeats a pool of whole rounds; a traced run covers whole rounds.

A traced op runs the same function as an untraced one, inside
``instrument``: the package's own functions listed in ``TRACED`` then
open spans wherever they are called from, and the runner asserts that
the traced answer equals the untraced one.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from wreathvar import groupspec, oracle, shield, variety
from wreathvar.oracle import VerifyReport
from wreathvar.variety import Decision, DecisionInput, SeparationWitness

import check
import gen
from gen import fin


@dataclass(frozen=True)
class Op:
    kind: str  # decide, witness, classify, verify or cli
    inputs: tuple  # exactly what the program receives
    want: object  # what the checker expects
    stratum: str


# ---------------------------------------------------------------------------
# expectations shared by several generators


def fingerprint_want(atoms, group: dict) -> dict:
    primes = {a.prime for a in atoms}
    finite = all(not c[0] for comp in group.values() for _, c in comp)
    nilpotent = len(primes) == 1 and set(group) == primes and finite
    dl = gen.passive_dl(atoms)
    cls = None
    if nilpotent:
        (p,) = primes
        cls = check.closed_class(p, _atom_at(atoms, p).s, group[p])
    return {
        "exponent": gen.passive_exponent(atoms) * gen.group_exponent(group),
        "nilpotent": nilpotent,
        "class": cls,
        "solubility_bound": None if dl is None else dl + 1,
    }


def _atom_at(atoms, p: int):
    return next(a for a in atoms if a.prime == p)


def decision_want(verdict: str, atoms1, atoms2, g1: dict, g2: dict) -> dict:
    compared = verdict == "equal" or (
        verdict == "unequal" and gen.group_exponent(g1) == gen.group_exponent(g2))
    per_prime, witness = [], None
    if compared:
        for p in sorted(g1):
            eq = check.equivalent(g1[p], g2[p])
            per_prime.append((p, eq, None if eq else check.divergence(g1[p], g2[p])))
        failing = [p for p, eq, _ in per_prime if not eq]
        if failing:
            p = failing[0]
            witness = check.expected_witness(p, _atom_at(atoms1, p).s, g1[p], g2[p])
    return {
        "verdict": verdict,
        "per_prime": per_prime,
        "witness": witness,
        "fingerprints": [fingerprint_want(atoms1, g1), fingerprint_want(atoms2, g2)],
    }


def passive_mismatch(rng: random.Random, atoms):
    """A second passive that breaks a decision hypothesis."""
    atoms = list(atoms)
    i = rng.randrange(len(atoms))
    a = atoms[i]
    options = ["power", "drop"]
    if a.text in ("D4", "Q8"):
        options.append("swap")
    choice = rng.choice(options)
    if choice == "drop":
        return atoms[:i] + atoms[i + 1:]
    if choice == "swap":
        atoms[i] = gen.preset("Q8" if a.text == "D4" else "D4")
        return atoms
    k = rng.choice([k for k in (1, 2, 3) if k != a.s[0]])
    atoms[i] = gen.cyclic_atom(rng, a.prime, k)
    return atoms


# ---------------------------------------------------------------------------
# symbolic-wide


WIDE_TERMS = (20, 50, 100, 150, 200, 250, 300)  # odd count: the median op falls inside a class
WIDE_KINDS = ("allowed", "forbidden", "exponent", "passive", "witness")
WIDE_D_CAP = 100  # d = p**(u-1) stays below this, so witnesses build short chains


def wide_pair(rng: random.Random, kind: str, n_terms: int, n_primes=(2, 6)):
    """Two active groups over 2-6 primes built so that ``kind`` fixes the
    verdict.  A draw whose multiplicities are too small to spell both
    groups in ``n_terms`` terms is drawn again, so the stratum fixes the
    input's size."""
    for _ in range(100):
        pair = _draw_wide_pair(rng, kind, n_terms, n_primes)
        if all(b.count(" * ") + 1 >= n_terms for b in pair[0][2:]):
            break
    return pair


def _draw_wide_pair(rng: random.Random, kind: str, n_terms: int, n_primes):
    primes = sorted(rng.sample(gen.SMALL_PRIMES, rng.randint(*n_primes)))
    umax = {p: gen.max_power(p, WIDE_D_CAP) for p in primes}
    g1 = {p: gen.random_component(rng, umax[p]) for p in primes}
    g2 = {p: gen.allowed_alteration(rng, c) for p, c in g1.items()}
    atoms1 = [gen.random_atom(rng, p) for p in primes]
    atoms2 = atoms1
    verdict = "equal"
    if kind in ("forbidden", "witness"):
        for p in rng.sample(primes, rng.randint(1, 2)):
            g2[p] = gen.forbidden_alteration(rng, g1[p])
        verdict = "unequal"
    elif kind == "exponent":
        p = rng.choice(primes)
        g2[p] = gen.exponent_alteration(rng, g1[p], umax[p])
        verdict = "unequal"
    elif kind == "passive":
        atoms2 = passive_mismatch(rng, atoms1)
        verdict = "not_applicable"
    strings = (gen.spell_passive(rng, atoms1), gen.spell_passive(rng, atoms2),
               gen.spell_group(rng, g1, n_terms), gen.spell_group(rng, g2, n_terms))
    return strings, verdict, atoms1, atoms2, g1, g2


def witness_op(strings, atoms1, g1, g2, stratum: str) -> Op:
    a1, _, b1, b2 = strings
    p = min(q for q in g1 if not check.equivalent(g1[q], g2[q]))
    want = check.expected_witness(p, _atom_at(atoms1, p).s, g1[p], g2[p])
    return Op("witness", (a1, b1, b2, p), want, stratum)


def pair_op(rng: random.Random, kind: str, n_terms: int, stratum: str, n_primes=(2, 6)) -> Op:
    strings, verdict, atoms1, atoms2, g1, g2 = wide_pair(rng, kind, n_terms, n_primes)
    if kind == "witness":
        return witness_op(strings, atoms1, g1, g2, stratum)
    return Op("decide", strings, decision_want(verdict, atoms1, atoms2, g1, g2), stratum)


def wide_op(rng: random.Random, stratum) -> Op:
    kind, n_terms = stratum
    return pair_op(rng, kind, n_terms, f"{kind}/{n_terms}")


# ---------------------------------------------------------------------------
# symbolic-deep


# (p, top power): the K_p-chain has d + 1 = p**(top-1) + 1 terms, 2^8 .. 2^17
DEEP_CHAINS = ((2, 9), (2, 12), (2, 15), (2, 18), (3, 6), (3, 9), (3, 11),
               (5, 5), (5, 7), (5, 8), (7, 4), (7, 6), (7, 7))
# decimal digits of a prime base with top power 1 (d = 1): parsing dominates
DEEP_BIG_DIGITS = (7, 9, 10)
DEEP_KINDS = ("classify", "decide-equal", "decide-unequal", "witness")
# beyond MAX_CHAIN = 10**6 terms: known to raise in kp_series at the seed
BEYOND_CHAIN = ((2, 22), (3, 14))
DEEP_TERMS = 4


def deep_component(rng: random.Random, top: int):
    """Factors at powers top, about top/2 and 1: the shape, and so the cost,
    is fixed by the stratum; only the multiplicities are drawn."""
    n_max = 50 if top > 1 else 1000
    powers = sorted({top, (top + 1) // 2, 1}, reverse=True)
    return tuple((u, fin(rng.randint(2, n_max))) for u in powers)


def deep_prime(rng: random.Random, base) -> tuple[int, int]:
    if base[0] == "big":
        low = 10 ** (base[1] - 1)
        return gen.prime_in(rng, 9 * low, 10 * low), 1
    return base


def deep_op(rng: random.Random, stratum) -> Op:
    kind, base = stratum
    p, top = deep_prime(rng, base)
    name = f"{kind}/{base[0]}^{base[1]}" if base[0] != "big" else f"{kind}/big{base[1]}"
    atom = gen.cyclic_atom(rng, p, 1) if top == 1 else gen.random_atom(rng, p, profiles=True)
    comp = deep_component(rng, top)
    if kind == "classify":
        group = {p: comp}
        want = {"fingerprint": fingerprint_want([atom], group),
                "params": check.closed_params(p, comp)}
        return Op("classify", (atom.text, gen.spell_group(rng, group, DEEP_TERMS)), want, name)
    comp2 = comp
    if kind != "decide-equal":
        # the lowest factor differs, so the witness keeps the full chain length
        (u, (_, n)) = comp[-1]
        comp2 = comp[:-1] + ((u, fin(n + rng.randint(1, 20))),)
    g1, g2 = {p: comp}, {p: comp2}
    strings = (atom.text, atom.text, gen.spell_group(rng, g1, DEEP_TERMS),
               gen.spell_group(rng, g2, DEEP_TERMS))
    if kind == "witness":
        return witness_op(strings, [atom], g1, g2, name)
    verdict = "equal" if kind == "decide-equal" else "unequal"
    return Op("decide", strings, decision_want(verdict, [atom], [atom], g1, g2), name)


# ---------------------------------------------------------------------------
# oracle-sweep: the nilpotent pairs of the sweep lists with at most 20 000 elements


SWEEP_PASSIVES = (  # text, prime, s(h), order
    ("C_2", 2, (1,), 2), ("C_{2^2}", 2, (2,), 4), ("C_{2^3}", 2, (3,), 8),
    ("D4", 2, (2, 1), 8), ("Q8", 2, (2, 1), 8), ("C_3", 3, (1,), 3),
    ("C_{3^2}", 3, (2,), 9), ("C_3 * C_3", 3, (1,), 9), ("C_5", 5, (1,), 5),
)
SWEEP_ACTIVES = {  # text, component
    2: (("C_2", ((1, fin(1)),)), ("C_{2^2}", ((2, fin(1)),)), ("C_{2^3}", ((3, fin(1)),)),
        ("C_2^2", ((1, fin(2)),)), ("C_{2^2} * C_2", ((2, fin(1)), (1, fin(1)))),
        ("C_2^3", ((1, fin(3)),))),
    3: (("C_3", ((1, fin(1)),)), ("C_{3^2}", ((2, fin(1)),)), ("C_3^2", ((1, fin(2)),))),
    5: (("C_5", ((1, fin(1)),)),),
}
SWEEP_CAP = 20_000


def sweep_pairs() -> list[tuple]:
    pairs = []
    for a_text, p, s, a_order in SWEEP_PASSIVES:
        for b_text, comp in SWEEP_ACTIVES[p]:
            b_order = p ** check.plog_power(comp, 0)
            order = a_order**b_order * b_order
            if order <= SWEEP_CAP:
                pairs.append((a_text, b_text, p, s, comp, order))
    return pairs


# The workload runs the pairs of at most ORACLE_CAP elements (8 to 2 187).
# The seven larger ones take about 2 s each; in a 25-s run they got two or
# five samples each, and their best varied with the host's speed by 22%.
ORACLE_CAP = 2_500


def oracle_pairs() -> list[tuple]:
    return [pair for pair in sweep_pairs() if pair[5] <= ORACLE_CAP]


def sweep_op(rng: random.Random, stratum) -> Op:
    a_text, b_text, p, s, comp, order = stratum
    return Op("verify", (a_text, b_text), check.closed_class(p, s, comp), f"verify/{order}")


# ---------------------------------------------------------------------------
# cli-verbs


CLI_VERBS = ("parse", "classify", "decide", "witness", "oracle-verify")
CLI_TINY_PAIRS = [pair for pair in sweep_pairs() if pair[5] <= 128]
# One stratum in ten also verifies this 2 048-element pair.  A run has
# about 150 ops, so its p95 falls inside that one slower class rather than
# on the noisy tail of process start-up.
CLI_MEDIUM_PAIR = next(pair for pair in sweep_pairs() if pair[:2] == ("C_2", "C_{2^3}"))
_EXIT = {"equal": 0, "unequal": 1, "not_applicable": 3}


def cli_op(rng: random.Random, stratum) -> Op:
    verb, as_json = stratum
    flag = ["--json"] if as_json else []
    name = f"{verb}/{'json' if as_json else 'text'}"
    if verb == "parse":
        primes = sorted(rng.sample(gen.SMALL_PRIMES[:6], rng.randint(1, 3)))
        group = {p: gen.random_component(rng, gen.max_power(p, 64)) for p in primes}
        expect = {"normalized": gen.render_group(group), "exponent": gen.group_exponent(group)}
        argv = (*flag, "parse", gen.spell_group(rng, group, 8))
    elif verb == "classify":
        p = rng.choice((2, 3, 5))
        top = rng.randint(1, gen.max_power(p, 64))
        atom = gen.random_atom(rng, p, profiles=True)
        comp = gen.random_component(rng, top, top=top, inf_prob=0.0)
        group = {p: comp}
        d, a, b, _ = check.closed_params(p, comp)
        expect = {"fingerprint": fingerprint_want([atom], group), "params": (d, a, b)}
        argv = ("classify", *flag, "--passive", atom.text, "--active", gen.spell_group(rng, group, 4))
    elif verb == "decide":
        inner = pair_op(rng, rng.choice(WIDE_KINDS[:4]), 8, name, n_primes=(2, 3))
        a1, a2, b1, b2 = inner.inputs
        expect = inner.want
        argv = (*flag, "decide", "--a1", a1, "--a2", a2, "--b1", b1, "--b2", b2)
    elif verb == "witness":
        inner = pair_op(rng, "witness", 8, name, n_primes=(2, 3))
        a1, b1, b2, p = inner.inputs
        expect = inner.want
        argv = ("witness", *flag, "--a1", a1, "--a2", a1, "--b1", b1, "--b2", b2, "--prime", str(p))
    else:
        lines = rng.sample(CLI_TINY_PAIRS, 1 if as_json else 2)
        if as_json:
            lines.append(CLI_MEDIUM_PAIR)
        expect = {"manifest": "".join(f"{a} Wr {b}\n" for a, b, *_ in lines),
                  "classes": [check.closed_class(p, s, comp) for _, _, p, s, comp, _ in lines]}
        argv = ("oracle-verify", *flag, "--manifest", "{manifest}")
    return Op("cli", argv, {"verb": verb, "json": as_json, "expect": expect}, name)


# ---------------------------------------------------------------------------
# running and tracing one op
#
# The run functions reach the package through its module attributes, so
# that under ``instrument`` the traced run calls the same code through
# the spanned wrappers.


def run_decide(inputs) -> Decision:
    a1, a2, b1, b2 = inputs
    return variety.decide_equal(DecisionInput(
        groupspec.parse_passive(a1), groupspec.parse_passive(a2),
        groupspec.parse_abelian(b1), groupspec.parse_abelian(b2)))


def run_witness(inputs) -> SeparationWitness:
    a1, b1, b2, p = inputs
    return variety.separation_witness(groupspec.parse_passive(a1), groupspec.parse_abelian(b1),
                                      groupspec.parse_abelian(b2), p)


def run_classify(inputs):
    passive, active = groupspec.parse_passive(inputs[0]), groupspec.parse_abelian(inputs[1])
    p = passive.parts[0].prime
    return (variety.fingerprint(passive, active), shield.kp_series(active, p),
            shield.shield_params(active, p))


def run_verify(inputs) -> VerifyReport:
    atoms = groupspec.passive_atoms(inputs[0])
    a_spec, b_spec = groupspec.parse_passive(inputs[0]), groupspec.parse_abelian(inputs[1])
    return oracle.verify_shield(a_spec, oracle.concrete_passive(atoms),
                                b_spec, oracle.concrete_abelian(b_spec))


def _count_wreath(tr, group) -> None:
    """Counts the wreath product's elements, and every ``mul`` on it from here on."""
    tr.count("oracle.elements", group.order)
    mul = group.mul

    def counted_mul(x, y):
        tr.counters["oracle.mul_calls"] += 1
        return mul(x, y)

    group.mul = counted_mul


# (module, function, span, hook(tracer, result)): what a traced op records
TRACED = (
    (groupspec, "parse_abelian", "groupspec.parse",
     lambda tr, spec: tr.count("groupspec.factors_parsed", len(spec.factors))),
    (groupspec, "parse_passive", "groupspec.parse", None),
    (groupspec, "passive_atoms", "groupspec.parse", None),
    (groupspec, "prime_divisors", "groupspec.primes", None),
    (groupspec, "equivalent_p", "groupspec.equivalence", None),
    (groupspec, "divergence", "groupspec.equivalence", None),
    (shield, "kp_series", "shield.kp_series",
     lambda tr, chain: tr.count("shield.chain_terms", len(chain.terms))),
    (shield, "shield_params", "shield.params", None),
    (shield, "shield_class", "shield.class", None),
    (variety, "check_hypotheses", "variety.hypotheses", None),
    (variety, "fingerprint", "variety.fingerprint", None),
    (variety, "separation_witness", "variety.witness", None),
    (variety, "decide_equal", "variety.decide",
     lambda tr, decision: tr.count("variety.verdict_" + decision.verdict.value)),
    (oracle, "concrete_passive", "oracle.construct", None),
    (oracle, "concrete_abelian", "oracle.construct", None),
    (oracle, "concrete_wreath", "oracle.construct", _count_wreath),
    (oracle, "lower_central_series", "oracle.lcs",
     lambda tr, chain: tr.count("oracle.lcs_terms", len(chain.terms))),
    (oracle, "exponent_concrete", "oracle.exponent", None),
    (oracle, "kp_series_concrete", "oracle.kp_concrete", None),
    (oracle, "verify_shield", "oracle.verify", None),
)
_TARGETS = {getattr(mod, fn): (span, hook) for mod, fn, span, hook in TRACED}


def instrument(tr):
    """A block in which the package's calls to the ``TRACED`` functions,
    from any of its modules, open spans in ``tr``."""
    modules = [m for name, m in sys.modules.items()
               if name == "wreathvar" or name.startswith("wreathvar.")]
    return tr.instrument(modules, _TARGETS)


# -- cli ----------------------------------------------------------------------


@dataclass
class CliRunner:
    """Runs ``python -m wreathvar.cli`` children, one at a time."""

    env: dict
    manifest_path: str
    timeout: float = 60.0

    def argv(self, op: Op) -> list[str]:
        return [sys.executable, "-m", "wreathvar.cli",
                *(a.replace("{manifest}", self.manifest_path) for a in op.inputs)]

    def prepare(self, op: Op) -> None:
        """Writes the op's manifest; done before the op is timed."""
        if op.want["verb"] == "oracle-verify":
            with open(self.manifest_path, "w", encoding="utf-8") as fh:
                fh.write(op.want["expect"]["manifest"])

    def run(self, op: Op) -> subprocess.CompletedProcess:
        return subprocess.run(self.argv(op), env=self.env, capture_output=True, text=True,
                              timeout=self.timeout, check=False)


def check_cli(proc, want: dict) -> Optional[str]:
    verb, as_json, want = want["verb"], want["json"], want["expect"]
    out = proc.stdout
    code = {"decide": _EXIT.get(want.get("verdict")), "witness": 1}.get(verb, 0)
    if proc.returncode != code:
        return f"exit {proc.returncode} != expected {code}: {proc.stderr.strip()[-200:]}"
    if as_json:
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return _check_cli_json(verb, doc, want)
    return _check_cli_text(verb, out, want)


def _witness_json(w: dict) -> dict:
    return {"p": w["p"], "t": w["t"], "w": w["w"], "class_b1": w["class_b1"],
            "class_b2": w["class_b2"],
            "separating": {"class": w["class_b2"], "burnside_exponent": w["burnside_exponent"]}}


def _check_cli_json(verb: str, doc: dict, want) -> Optional[str]:
    if verb == "parse":
        got = {"normalized": doc["normalized"], "exponent": doc["exponent"]}
    elif verb == "classify":
        params = doc["params"]
        got = {"fingerprint": doc["fingerprint"], "params": (params["d"], params["a"], params["b"])}
    elif verb == "decide":
        per = [(e["p"], e["equivalent"], None if e["t"] is None else (e["t"], e["w"]))
               for e in doc["per_prime"]]
        got = {"verdict": doc["verdict"], "per_prime": per, "witness": doc["witness"],
               "fingerprints": doc["fingerprints"]}
        want = dict(want, witness=None if want["witness"] is None else _witness_json(want["witness"]))
    elif verb == "witness":
        got, want = doc["witness"], _witness_json(want)
    else:
        got = {"mismatches": doc["mismatches"],
               "classes": [e["report"]["oracle_class"] for e in doc["lines"] if e["status"] == "ok"]}
        want = {"mismatches": 0, "classes": want["classes"]}
    if got != want:
        return f"{verb}: {got} != expected {want}"
    return None


def _check_cli_text(verb: str, out: str, want) -> Optional[str]:
    if verb == "parse":
        expect = [f"normalized: {want['normalized']}"]
    elif verb == "classify":
        expect = [f"nilpotency class: {want['fingerprint']['class']}"]
    elif verb == "decide":
        expect = [f"verdict: {want['verdict']}"]
    elif verb == "witness":
        small = 2 if want["larger_input"] == 1 else 1
        expect = [f"reduced classes: {want['class_b1']} (side B{want['larger_input']}) "
                  f"> {want['class_b2']} (side B{small})"]
    else:
        n = len(want["classes"])
        expect = [f"0 mismatch(es) in {n} line(s)"] + [f": ok (class {c} vs {c}," for c in want["classes"]]
    missing = [e for e in expect if e not in out]
    if missing:
        return f"{verb}: output lacks {missing[0]!r}"
    return None


# ---------------------------------------------------------------------------
# the workloads


def _decide_key(d: Decision):
    return d.to_json_dict(), d.witness.larger_input if d.witness else None


def _classify_key(result):
    fp, chain, params = result
    return fp, chain.d, chain.terms[0], chain.terms[-1], params


KINDS = {  # run, check, comparable form of the answer
    "decide": (run_decide, check.check_decision, _decide_key),
    "witness": (run_witness, check.check_witness, lambda w: w),
    "classify": (run_classify, check.check_classify, _classify_key),
    "verify": (run_verify, check.check_report, lambda r: r),
}


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    make_op: Callable
    trace_rounds_per_s: float  # rounds a traced run covers per second of --seconds
    pool_rounds: int  # rounds in the pool that a timed run passes over again and again

    def rounds(self, seed: int):
        """Endless rounds of ops; the same seed gives the same ops."""
        rng = random.Random(f"{self.name}:{seed}")
        strata = list(self.strata)
        while True:
            rng.shuffle(strata)
            yield [self.make_op(rng, s) for s in strata]

    def pool(self, seed: int) -> list:
        """The first ``pool_rounds`` rounds, as one list."""
        rounds = self.rounds(seed)
        return [op for _ in range(self.pool_rounds) for op in next(rounds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("symbolic-wide", tuple((k, n) for k in WIDE_KINDS for n in WIDE_TERMS),
                 wide_op, 2.0, 6),
        Workload("symbolic-deep", tuple((k, b) for k in DEEP_KINDS
                                        for b in DEEP_CHAINS + tuple(("big", n) for n in DEEP_BIG_DIGITS)),
                 deep_op, 0.08, 1),
        Workload("oracle-sweep", tuple(oracle_pairs()), sweep_op, 0.2, 1),
        Workload("cli-verbs", tuple((v, j) for v in CLI_VERBS for j in (False, True)), cli_op,
                 0.3, 1),
    )
}

# symbolic-deep classify ops whose chain is longer than MAX_CHAIN: they raise
# at the seed, so no workload runs them; the benchmark's tests do
KNOWN_FAILURES = tuple(("classify", base) for base in BEYOND_CHAIN)
