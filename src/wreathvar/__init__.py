"""Wreath products and the varieties of groups they generate.

Symbolic layer: primary decompositions of abelian groups of finite
exponent (with infinite multiplicities as alephs), nilpotent passive
profiles, the per-prime equivalence relation deciding variety equality
of wreath products, Shield's nilpotency class formula over the
K_p-series, and separation witnesses.  Oracle layer: the same
quantities recomputed over explicitly enumerated finite groups.

Each public name is declared once: in the ``__all__`` of its module,
which is exactly what the package takes from that module, or, for the
oracle, in ``_ORACLE_NAMES`` below, which is ``wreathvar.oracle``'s
``__all__``.  The oracle layer is loaded on first use: its names are
looked up in ``wreathvar.oracle`` when one of them is first read from
the package (PEP 562), so a symbolic answer does not pay for importing
it.  A name outside these lists (``groupspec.is_prime``, say) is still
importable from its module by name.
"""

from . import cardinal, groupspec, shield, variety
from .cardinal import Cardinal
from .groupspec import *
from .shield import *
from .variety import *

# the names read from wreathvar.oracle when first used
_ORACLE_NAMES = frozenset({
    "BudgetExceededError",
    "ConcreteGroup",
    "SubgroupChain",
    "VerifyReport",
    "concrete_abelian",
    "concrete_cyclic",
    "concrete_passive",
    "concrete_preset",
    "concrete_product",
    "concrete_wreath",
    "derived_length_concrete",
    "exponent_concrete",
    "kp_series_concrete",
    "lower_central_series",
    "nilpotency_class",
    "normal_closure",
    "subgroup_generated",
    "verify_shield",
})


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        from importlib import import_module

        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# what ``from wreathvar import *`` binds: every public name, the oracle's too
__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + [*_ORACLE_NAMES, "oracle"])

__version__ = "0.1.0"
