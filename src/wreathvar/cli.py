"""Command line front end.

Verbs: ``parse`` (normalize an abelian group expression and print its
invariants), ``classify`` (K_p-series, one run per cyclic factor, class
parameters and fingerprint of one wreath product), ``decide`` (same-variety
decision for two wreath products, with witnesses), ``witness`` (the separation witness
at one prime), ``oracle-verify`` (batch cross-check of the symbolic
route against enumeration).  Every verb accepts ``--json``.  One expression
argument of ``parse``, ``classify``, ``decide`` or ``witness``, or the
manifest of ``oracle-verify``, may be ``-``: it is read from standard
input, so it is not held to the operating system's limit on the length of
one argument (128 KiB on Linux).  A leading byte order mark is dropped.

Exit codes: 0 equal/success, 1 unequal, 2 parse error or unreadable
input, 3 hypothesis failure or other refusal of the input (a
``DomainError``), 4 oracle mismatch, 5 internal error (any other
exception, a plain ``ValueError`` included; reported on one line).

Numbers are printed exactly.  The parser bounds each literal, each cyclic
order and each expression's exponent to as many digits as Python converts
by default; every number derived from them has at most about twice as
many, so the verbs run with that conversion bound lifted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from typing import Optional

from .groupspec import (
    DEFAULT_BUDGET,
    DomainError,
    ParseError,
    equivalent,
    parse_abelian,
    parse_passive,
    passive_atoms,
    passive_spec,
)
from .shield import baumslag_reason, shield_params
from .variety import (
    Decision,
    DecisionInput,
    EquivalentComponentsError,
    SeparationWitness,
    Verdict,
    check_hypotheses,
    decide_equal,
    fingerprint,
    separation_witness,
)

EXIT_EQUAL = 0
EXIT_UNEQUAL = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


@contextlib.contextmanager
def _exact_ints():
    """A block in which ints of any length convert to strings."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # Python < 3.11 has no bound
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _read(source: str) -> str:
    """The text of the file ``source``, or of standard input for ``-``,
    without a leading byte order mark."""
    if source == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    with open(source, encoding="utf-8-sig") as fh:
        return fh.read()


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _parse_error(err: ParseError) -> int:
    print(f"error: {err.message}", file=sys.stderr)
    print(err.caret(), file=sys.stderr)
    return EXIT_PARSE


# ---------------------------------------------------------------------------
# parse


def _mult_json(copies):
    return copies.render() if copies.is_infinite else copies.as_int()


def run_parse(args, as_json: bool) -> int:
    spec = parse_abelian(args.expr)
    primes = [
        {
            "p": p,
            "factors": [
                {"u": f.power, "mult": _mult_json(f.copies)}
                for f in spec.p_component(p).factors
            ],
        }
        for p in spec.primes()
    ]
    if as_json:
        _emit_json(
            {
                "expression": args.expr,
                "normalized": spec.render(),
                "trivial": spec.is_trivial(),
                "exponent": spec.exponent(),
                "primes": primes,
            }
        )
        return EXIT_EQUAL
    if spec.is_trivial():
        print("trivial group")
        return EXIT_EQUAL
    print(f"normalized: {spec.render()}")
    print(f"exponent:   {spec.exponent()}")
    for entry in primes:
        print(f"p = {entry['p']}:")
        for i, f in enumerate(entry["factors"], 1):
            print(f"  u_{i} = {f['u']:<3} mult = {f['mult']}")
    return EXIT_EQUAL


# ---------------------------------------------------------------------------
# classify


def run_classify(args, as_json: bool) -> int:
    passive = parse_passive(args.passive)
    active = parse_abelian(args.active)
    fp = fingerprint(passive, active)
    params = reason = None
    if fp.nilpotent:
        params = shield_params(active, passive.parts[0].prime)
    else:
        reason = baumslag_reason(passive, active)
    if as_json:
        _emit_json(
            {
                "passive": passive.render(),
                "active": active.render(),
                "fingerprint": fp.to_json_dict(),
                "params": None if params is None else {
                    "p": params.p, "d": params.d, "a": params.a, "b": params.b},
                "chain": None if params is None else [
                    {"u": f.power, "mult": f.copies.value} for f in active.factors],
                "reason": reason,
            }
        )
        return EXIT_EQUAL
    print(f"passive: {passive.render()} (exponent {passive.exponent()}, "
          f"class {passive.nilpotency_class})")
    print(f"active:  {active.render()} (exponent {active.exponent()})")
    if fp.nilpotent:
        p = params.p
        factors = " * ".join(
            f"C_{{{p}^({f.power}-j)}}" + ("" if f.copies.value == 1 else f"^{f.copies.value}")
            + f" (j < {f.power})" for f in active.factors)
        # e(p^j) sums the multiplicities of the factors of power above j;
        # each is printed once, with its range, and never a sum of them
        steps = " + ".join(f"{f.copies.value} (j < {f.power})" for f in active.factors)
        print(f"K_{p}-series, K_i = B^({p}^j) for the least j with {p}^j >= i: "
              f"B^({p}^j) = {factors}")
        print(f"d = {params.d}, e({p}^j) = {steps}, a = {params.a}, b = {params.b}")
        print(f"s(h) = {list(passive.parts[0].gamma_exponents)}")
        print(f"nilpotency class: {fp.nilpotency_class}")
    else:
        print(f"not nilpotent (Baumslag: {reason})")
    print(f"wreath exponent: {fp.exponent}")
    if fp.solubility_bound is not None:
        print(f"solubility bound: {fp.solubility_bound}")
    return EXIT_EQUAL


# ---------------------------------------------------------------------------
# decide / witness


def _decision_input(args) -> DecisionInput:
    return DecisionInput(
        a1=parse_passive(args.a1),
        a2=parse_passive(args.a2),
        b1=parse_abelian(args.b1),
        b2=parse_abelian(args.b2),
        assert_passive_var_equal=args.assert_var_equal,
    )


def _print_witness_text(w: SeparationWitness) -> None:
    small, large = (2, 1) if w.larger_input == 1 else (1, 2)
    print(f"witness at p = {w.p}: divergence t = {w.t}, w = {w.w}")
    print(f"  reduced classes: {w.class_b1} (side B{large}) > {w.class_b2} (side B{small})")
    if w.scope == "whole":
        contains = f"the B{small} wreath product, not the B{large} one"
    else:
        contains = f"A_{w.p} wr B{small}', not A_{w.p} wr B{large}' (the reduced products)"
    print(f"  separating variety {w.separating.render()}: contains {contains}")


def _print_decision_text(decision: Decision) -> None:
    if decision.hypotheses:
        for v in decision.hypotheses:
            print(f"hypothesis: {v.detail}")
    else:
        print("hypotheses: ok")
    for pv in decision.per_prime:
        if pv.equivalent:
            print(f"p = {pv.p}: equivalent")
        else:
            print(f"p = {pv.p}: NOT equivalent (t = {pv.divergence.t}, "
                  f"w = {pv.divergence.w})")
    print(f"verdict: {decision.verdict.value}")
    if decision.witness is not None:
        _print_witness_text(decision.witness)
    for i, fp in enumerate(decision.fingerprints, 1):
        cls = fp.nilpotency_class if fp.nilpotent else "-"
        sol = fp.solubility_bound if fp.solubility_bound is not None else "-"
        print(f"fingerprint {i}: exponent {fp.exponent}, "
              f"nilpotent {str(fp.nilpotent).lower()}, class {cls}, "
              f"solubility bound {sol}")


_VERDICT_EXIT = {
    Verdict.EQUAL: EXIT_EQUAL,
    Verdict.UNEQUAL: EXIT_UNEQUAL,
    Verdict.NOT_APPLICABLE: EXIT_HYPOTHESIS,
}


def run_decide(args, as_json: bool) -> int:
    decision = decide_equal(_decision_input(args))
    if as_json:
        doc = decision.to_json_dict()
        if (w := decision.witness) is not None:  # beside "witness", whose keys are fixed
            doc.update(larger_input=w.larger_input, scope=w.scope)
        _emit_json(doc)
    else:
        _print_decision_text(decision)
    return _VERDICT_EXIT[decision.verdict]


def run_witness(args, as_json: bool) -> int:
    inp = _decision_input(args)
    p = args.prime
    fatal = [v for v in check_hypotheses(inp) if v.fatal]
    if fatal:
        for v in fatal:
            print(f"hypothesis: {v.detail}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    try:
        witness = separation_witness(inp.a1, inp.b1, inp.b2, p)
    except EquivalentComponentsError:
        if as_json:
            _emit_json({"p": p, "equivalent": True, "witness": None})
        else:
            print(f"p = {p}: equivalent; no witness exists")
        return EXIT_EQUAL
    if as_json:
        _emit_json({"p": p, "equivalent": False, "witness": witness.to_json_dict(),
                    "larger_input": witness.larger_input, "scope": witness.scope})
    else:
        print(f"p = {p}: NOT equivalent")
        _print_witness_text(witness)
    return EXIT_UNEQUAL


# ---------------------------------------------------------------------------
# oracle-verify


def _manifest_lines(source: str) -> list[tuple[int, str]]:
    out = []
    # newlines are read as in a file, whatever the source
    for lineno, raw in enumerate(io.StringIO(_read(source), newline=None), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _split_wreath_line(line: str) -> tuple[str, str, int]:
    """The passive and active expressions of a manifest line, and the
    column at which the active one starts (the passive one starts at 0)."""
    for sep in (" Wr ", " wr "):
        if sep in line:
            left, right = line.split(sep, 1)
            return left.strip(), right.strip(), len(line) - len(right.lstrip())
    raise DomainError("expected '<passive> Wr <active>'")


def run_oracle_verify(args, as_json: bool) -> int:
    """Check each manifest line by enumeration; a parse error points at its column there."""
    from . import oracle  # loaded by this verb only

    manifest, budget = args.manifest, args.budget
    if budget < 1:
        print("error: budget must be positive", file=sys.stderr)
        return EXIT_PARSE
    results = []
    mismatches = 0
    for lineno, line in _manifest_lines(manifest):
        start = 0  # the column of the line where the expression being read begins
        try:
            passive_expr, active_expr, active_at = _split_wreath_line(line)
            atoms = passive_atoms(passive_expr)
            a_spec = passive_spec(atoms, passive_expr)
            start = active_at
            b_spec = parse_abelian(active_expr)
        except DomainError as err:
            caret = ""
            if isinstance(err, ParseError):
                err = ParseError(err.message, start + err.pos, line)
                caret = "\n" + err.caret()
            print(f"{manifest}:{lineno}: error: {err}{caret}", file=sys.stderr)
            return EXIT_PARSE
        entry: dict = {"line": line}
        if (skip := oracle.skip_reason(atoms, a_spec, b_spec, budget)) is not None:
            entry.update(status="skipped", reason=skip)
        else:
            a_conc = oracle.concrete_passive(atoms, budget)
            b_conc = oracle.concrete_abelian(b_spec, budget)
            report = oracle.verify_shield(a_spec, a_conc, b_spec, b_conc, budget)
            entry.update(status="ok" if report.ok else "mismatch",
                         report=report.to_json_dict())
            if not report.ok:
                mismatches += 1
        results.append(entry)
    if as_json:
        _emit_json({"manifest": manifest, "budget": budget,
                    "mismatches": mismatches, "lines": results})
    else:
        for entry in results:
            if entry["status"] == "skipped":
                print(f"{entry['line']}: skipped ({entry['reason']})")
            else:
                r = entry["report"]
                print(f"{entry['line']}: {entry['status']} "
                      f"(class {r['shield_class']} vs {r['oracle_class']}, "
                      f"exponent {r['spec_exponent']} vs {r['oracle_exponent']}, "
                      f"chain {r['symbolic_chain_orders']} vs {r['concrete_chain_orders']})")
        print(f"{mismatches} mismatch(es) in {len(results)} line(s)")
    return EXIT_ORACLE if mismatches else EXIT_EQUAL


# ---------------------------------------------------------------------------
# demo


def _demo_decide(a1: str, a2: str, b1: str, b2: str) -> None:
    print("--- decide")
    print(f"    A1 = {a1}   A2 = {a2}")
    print(f"    B1 = {b1}   B2 = {b2}")
    main(["decide", "--a1", a1, "--a2", a2, "--b1", b1, "--b2", b2])
    print()


def run_demo() -> int:
    """The worked examples.  Each verb shown runs through :func:`main`, so
    its output is the verb's own."""
    print("=== primary decomposition and its invariants")
    example = "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}"
    main(["parse", example])
    print()

    print("=== allowed and forbidden alterations")
    base = parse_abelian(example)
    altered = parse_abelian(
        "C_{3^5}^6 * C_{3^3}^{aleph_1} * C_{3^2}^9 * C_3^{aleph_0} * C_{5^3}^4 * C_{5^2}"
    )
    print(f"altering everything at and after the first infinite 3-factor: "
          f"equivalent = {equivalent(base, altered)}")
    for broken in (
        "C_{3^5}^7 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}",
        "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^5 * C_{5^2}",
        "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}^2",
    ):
        print(f"altering a protected factor: equivalent = "
              f"{equivalent(base, parse_abelian(broken))}")
    print()

    print("=== equal classes, distinct varieties (cyclic passive group)")
    for active in ("C_{3^2}^2", "C_{3^2} * C_3^4"):
        print(f"-- classify C_3 wr {active}")
        main(["classify", "--passive", "C_3", "--active", active])
    _demo_decide("C_3", "C_3", "C_{3^2}^2", "C_{3^2} * C_3^4")

    print("=== equal classes, distinct varieties (D4 and Q8 passives)")
    for passive, active in (("D4", "C_{2^2}^3 * C_2"), ("Q8", "C_{2^2} * C_2^7")):
        print(f"-- classify {passive} wr {active}")
        main(["classify", "--passive", passive, "--active", active])
    _demo_decide("D4", "Q8", "C_{2^2}^3 * C_2", "C_{2^2} * C_2^7")

    print("=== infinite active groups: non-nilpotent but still separable")
    _demo_decide("D4", "Q8", "C_{2^2}^3 * C_2^{aleph_0}", "C_{2^2} * C_2^{aleph_0}")

    print("=== a multi-prime pair decided prime by prime")
    passive = "D4 * Q8 * C_3 * C_5 * C_7^{aleph_1}"
    _demo_decide(
        passive, passive,
        "C_{2^5}^3 * C_{2^4}^{aleph_1} * C_2^8 * C_3^{aleph_1} * C_7^8",
        "C_{2^5}^3 * C_{2^4}^{aleph_0} * C_{2^3}^2 * C_2^9 * C_3^{aleph_0} * C_7^9",
    )
    return EXIT_EQUAL


# ---------------------------------------------------------------------------
# argument parsing


# the arguments that hold an expression, per verb
_EXPRESSION_ARGS = {
    "parse": ("expr",),
    "classify": ("passive", "active"),
    "decide": ("a1", "a2", "b1", "b2"),
    "witness": ("a1", "a2", "b1", "b2"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-verb --json from being reset by the subparser default
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON")
    ap = argparse.ArgumentParser(
        prog="wreathvar",
        description="Wreath products and the varieties they generate.",
        parents=[common],
    )
    ap.add_argument("--demo", action="store_true",
                    help="run the worked examples and exit")
    sub = ap.add_subparsers(dest="verb")

    p_parse = sub.add_parser("parse", parents=[common],
                             help="normalize an abelian group expression")
    p_parse.add_argument("expr", help="the expression, or - to read it from standard input")
    p_parse.set_defaults(run=run_parse)

    for name, helptext, run in (
        ("classify", "class parameters of one wreath product", run_classify),
        ("decide", "decide whether two wreath products generate the same variety", run_decide),
        ("witness", "separation witness at one prime", run_witness),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.set_defaults(run=run)
        for arg in _EXPRESSION_ARGS[name]:
            p.add_argument(f"--{arg}", required=True)
        if name != "classify":
            p.add_argument("--assert-var-equal", action="store_true",
                           dest="assert_var_equal",
                           help="assert that the passive groups generate the same variety")
        if name == "witness":
            p.add_argument("--prime", type=int, required=True)

    p_verify = sub.add_parser("oracle-verify", parents=[common],
                              help="cross-check the class formula by enumeration")
    p_verify.add_argument("--manifest", required=True, help="a file, or - for standard input")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.set_defaults(run=run_oracle_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    as_json = getattr(args, "json", False)
    if args.demo:
        return run_demo()
    if args.verb is None:
        ap.print_help()
        return EXIT_PARSE
    from_stdin = [name for name in _EXPRESSION_ARGS.get(args.verb, ())
                  if getattr(args, name) == "-"]
    if len(from_stdin) > 1:
        ap.error("at most one expression may be read from standard input ('-')")
    with _exact_ints():
        try:
            for name in from_stdin:
                setattr(args, name, _read("-").strip())
            return args.run(args, as_json)
        except ParseError as err:
            return _parse_error(err)
        except (OSError, UnicodeDecodeError) as err:  # unreadable input
            print(f"error: {err}", file=sys.stderr)
            return EXIT_PARSE
        except DomainError as err:  # a refusal of the input
            print(f"error: {err}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        except Exception as err:  # a fault of the program, not of the input
            print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
            return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
