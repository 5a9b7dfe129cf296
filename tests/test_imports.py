"""The import graph and the public surface.

The oracle is loaded only when it is used: each check of that runs in a
fresh ``python -S`` process with only ``src`` on the path, so no module is
loaded before the one under test.  Each public name is declared once, in
its module's ``__all__`` or, for the oracle, in ``wreathvar._ORACLE_NAMES``,
and each verb's expression arguments once, in ``cli._EXPRESSION_ARGS``.
"""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# what ``from wreathvar import *`` bound when the package imported the oracle
# eagerly, with ``baumslag_reason`` in place of ``baumslag_nilpotent``, and
# ``DomainError``, the base class of the library's refusals
STAR_NAMES = set("""
    AbelianGroupSpec BudgetExceededError Cardinal ConcreteGroup DEFAULT_BUDGET Decision
    DecisionInput DivergenceReport DomainError EquivalentComponentsError Fingerprint KpChain
    NotNilpotentError ParseError PassiveGroupSpec PassivePrimePart PrimaryFactor PrimeVerdict
    SeparatingVariety SeparationWitness ShieldParams SubgroupChain TRIVIAL Verdict VerifyReport
    Violation baumslag_reason cardinal check_hypotheses concrete_abelian concrete_cyclic
    concrete_passive concrete_preset concrete_product concrete_wreath decide_equal
    derived_length_concrete divergence equivalent equivalent_p exponent_concrete fingerprint
    groupspec kp_series kp_series_concrete lower_central_series nilpotency_class
    normal_closure normalize oracle parse_abelian parse_passive passive_atoms passive_spec
    prime_divisors separation_witness shield shield_class shield_params subgroup_generated
    variety verify_shield wreath_exponent
""".split())


def run_bare(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_symbolic_layer_and_the_cli_load_without_the_oracle():
    out = run_bare("-c", "import sys, wreathvar, wreathvar.cli\n"
                         "print(sorted(m for m in sys.modules if m.startswith('wreathvar')))\n"
                         "print(wreathvar.cli.build_parser().parse_args(\n"
                         "    ['oracle-verify', '--manifest', 'm']).budget)\n"
                         "print('wreathvar.oracle' in sys.modules)")
    modules, budget, loaded = out.splitlines()
    assert "wreathvar.oracle" not in modules
    assert budget == "200000"
    assert loaded == "False"


def test_oracle_names_are_read_from_the_oracle_on_first_use():
    out = run_bare("-c", "import sys, wreathvar\n"
                         "from wreathvar import ConcreteGroup, verify_shield\n"
                         "import wreathvar.oracle as oracle\n"
                         "print(ConcreteGroup is oracle.ConcreteGroup is wreathvar.ConcreteGroup,\n"
                         "      verify_shield is oracle.verify_shield,\n"
                         "      wreathvar.oracle is oracle,\n"
                         "      wreathvar.DEFAULT_BUDGET == oracle.DEFAULT_BUDGET)\n"
                         "try:\n"
                         "    wreathvar.no_such_name\n"
                         "except AttributeError as err:\n"
                         "    print(err)")
    same, missing = out.splitlines()
    assert same == "True True True True"
    assert missing == "module 'wreathvar' has no attribute 'no_such_name'"


def test_star_import_binds_the_same_names():
    out = run_bare("-c", "ns = {}\n"
                         "exec('from wreathvar import *', ns)\n"
                         "print(' '.join(sorted(set(ns) - {'__builtins__'})))")
    assert set(out.split()) == STAR_NAMES


def test_oracle_verify_loads_the_oracle_and_runs(tmp_path):
    (tmp_path / "m.txt").write_text("D4 Wr C_2\nC_2 Wr C_3\n", encoding="utf-8")
    out = run_bare("-m", "wreathvar.cli", "oracle-verify", "--manifest", "m.txt", cwd=tmp_path)
    assert out.splitlines() == [
        "D4 Wr C_2: ok (class 4 vs 4, exponent 8 vs 8, chain [2, 1] vs [2, 1])",
        "C_2 Wr C_3: skipped (not nilpotent (active group is not a 2-group))",
        "0 mismatch(es) in 2 line(s)",
    ]


MODULES = ("groupspec", "shield", "variety", "oracle")


def test_every_declared_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"wreathvar.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_the_oracle_declares_its_names_in_the_package():
    import wreathvar
    import wreathvar.oracle

    assert wreathvar.oracle.__all__ == sorted(wreathvar._ORACLE_NAMES)


def test_the_package_exports_exactly_the_modules_declarations():
    ns = {}
    exec("from wreathvar import *", ns)
    declared = {attr for name in MODULES
                for attr in importlib.import_module(f"wreathvar.{name}").__all__}
    modules = {"cardinal", "groupspec", "shield", "variety", "oracle"}
    assert set(ns) - {"__builtins__"} == declared | modules | {"Cardinal"}


# the required arguments of a verb that hold no expression
NOT_EXPRESSIONS = {"prime", "manifest"}


def test_each_verb_requires_exactly_its_expression_arguments():
    from wreathvar import cli

    ap = cli.build_parser()
    verbs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(cli._EXPRESSION_ARGS) <= set(verbs)
    for verb, parser in verbs.items():
        required = [a.dest for a in parser._actions
                    if a.required and a.dest not in NOT_EXPRESSIONS]
        assert required == list(cli._EXPRESSION_ARGS.get(verb, ())), verb
