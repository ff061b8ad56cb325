"""The package's exports are the modules' `__all__`, each name once."""

import types

import invmean
from invmean import averaging, digraph, errors, invariant, means, specfile

MODULES = (averaging, digraph, errors, invariant, means, specfile)


def test_all_is_the_concatenation_of_the_modules_lists():
    assert invmean.__all__ == [name for module in MODULES for name in module.__all__]


def test_no_duplicate_and_no_module():
    assert len(set(invmean.__all__)) == len(invmean.__all__)
    for name in invmean.__all__:
        assert not isinstance(getattr(invmean, name), types.ModuleType), name


def test_every_name_resolves_to_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(invmean, name) is getattr(module, name), name


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from invmean import *", namespace)
    bound = {name for name in namespace if name != "__builtins__"}
    assert bound == set(invmean.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def test_internal_helpers_stay_internal():
    # only the package itself uses these
    assert not {"sweep", "KIND_ALIASES", "check_count"} & set(invmean.__all__)
    assert "InitialClass" in invmean.__all__


def test_test_oracles_are_not_exported():
    # the solver of F = phi(K(.)) is the oracle of acceptance criterion 10,
    # kept in tests/, and nothing in the package calls it
    assert not hasattr(invmean, "solve_invariant_equation")
    assert not hasattr(invariant, "solve_invariant_equation")
