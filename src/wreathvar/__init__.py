"""Wreath products and the varieties of groups they generate.

Symbolic layer: primary decompositions of abelian groups of finite
exponent (with infinite multiplicities as alephs), nilpotent passive
profiles, the per-prime equivalence relation deciding variety equality
of wreath products, Shield's nilpotency class formula over the
K_p-series, and separation witnesses.  Oracle layer: the same
quantities recomputed over explicitly enumerated finite groups.
"""

from .cardinal import Cardinal
from .groupspec import (
    AbelianGroupSpec,
    DivergenceReport,
    ParseError,
    PassiveGroupSpec,
    PassivePrimePart,
    PrimaryFactor,
    TRIVIAL,
    divergence,
    equivalent,
    equivalent_p,
    normalize,
    parse_abelian,
    parse_passive,
    passive_atoms,
    passive_spec,
    prime_divisors,
)
from .shield import (
    KpChain,
    NotNilpotentError,
    ShieldParams,
    baumslag_nilpotent,
    kp_series,
    shield_class,
    shield_params,
    wreath_exponent,
)
from .variety import (
    Decision,
    DecisionInput,
    EquivalentComponentsError,
    Fingerprint,
    PrimeVerdict,
    SeparatingVariety,
    SeparationWitness,
    Verdict,
    Violation,
    check_hypotheses,
    decide_equal,
    fingerprint,
    separation_witness,
)
from .oracle import (
    BudgetExceededError,
    ConcreteGroup,
    DEFAULT_BUDGET,
    SubgroupChain,
    VerifyReport,
    concrete_abelian,
    concrete_cyclic,
    concrete_passive,
    concrete_preset,
    concrete_product,
    concrete_wreath,
    derived_length_concrete,
    exponent_concrete,
    kp_series_concrete,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    subgroup_generated,
    verify_shield,
)

__version__ = "0.1.0"
