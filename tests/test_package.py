import importlib
import pkgutil
import subprocess
import sys

import pytest

import hodgekit

ALL = [
    "AbelianProfile",
    "Candidate",
    "ClassificationOutcome",
    "EndomorphismDescriptor",
    "ExceptionalCase",
    "GroupExpr",
    "HodgeProfile",
    "SubfieldDescriptor",
    "Violation",
    "classify",
    "exclude_sl2_product",
    "group_dim",
    "group_rank",
    "hodge_status",
    "is_exceptional",
    "lefschetz_group",
    "murty_equal",
    "profile_from_json",
    "profile_to_json",
    "realizable",
    "su_constraint",
    "table3",
    "validate_profile",
]

HOMES = {
    "core": "EndomorphismDescriptor GroupExpr HodgeProfile Violation "
    "profile_from_json profile_to_json validate_profile",
    "realizability": "ExceptionalCase is_exceptional realizable",
    "lefschetz": "group_dim group_rank lefschetz_group",
    "classifier": "Candidate ClassificationOutcome SubfieldDescriptor classify "
    "exclude_sl2_product su_constraint table3",
    "consequences": "AbelianProfile hodge_status murty_equal",
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names.split()}


def test_all_is_pinned():
    assert hodgekit.__all__ == ALL
    assert sorted(HOME_OF) == ALL


@pytest.mark.parametrize("name", ALL)
def test_each_name_is_its_home_submodule_object(name):
    home = importlib.import_module(f"hodgekit.{HOME_OF[name]}")
    assert getattr(hodgekit, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hodgekit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hodgekit.no_such_name
    assert not hasattr(hodgekit, "no_such_name")


def test_dir_lists_every_public_name():
    assert set(ALL) <= set(dir(hodgekit))


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hodgekit.__path__))


def test_submodules_are_every_module_file():
    assert SUBMODULES == [
        "classifier",
        "cli",
        "cmtools",
        "consequences",
        "core",
        "intlinalg",
        "lefschetz",
        "numth",
        "realizability",
        "rootsys",
    ]


def test_each_submodule_resolves_after_a_bare_import():
    # In a fresh interpreter, so no earlier import has bound the submodules.
    child = (
        "import sys, hodgekit\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(hodgekit, name) is sys.modules['hodgekit.' + name], name\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(SUBMODULES) <= set(dir(hodgekit))
