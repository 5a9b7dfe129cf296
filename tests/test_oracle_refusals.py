"""A group with no enumerable order is a refusal of the input: the oracle
raises a ``DomainError``, in the words ``skip_reason`` gives for it."""

import pytest

from wreathvar import (
    DomainError,
    concrete_abelian,
    concrete_passive,
    oracle,
    parse_abelian,
    parse_passive,
    passive_atoms,
)


@pytest.mark.parametrize("passive, reason", [
    ("nilpotent(p=2, s=[1])", "inline profiles cannot be enumerated"),
    ("C_3^{aleph_0}", "passive group is infinite"),
])
def test_an_unenumerable_passive_group_is_refused_in_the_words_of_skip_reason(passive, reason):
    atoms = passive_atoms(passive)
    assert oracle.skip_reason(atoms, parse_passive(passive), parse_abelian("C_2"), 100) == reason
    with pytest.raises(DomainError) as refusal:
        concrete_passive(atoms)
    assert (type(refusal.value), str(refusal.value)) == (DomainError, reason)


def test_an_infinite_active_group_is_refused_as_a_domain_error():
    with pytest.raises(DomainError) as refusal:
        concrete_abelian(parse_abelian("C_2^{aleph_0}"))
    assert (type(refusal.value), str(refusal.value)) == (
        DomainError, "cannot enumerate the infinite group C_2^{aleph_0}")
