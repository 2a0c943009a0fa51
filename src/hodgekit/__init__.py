"""Exact classification toolkit for Hodge groups of simple polarizable
rational Hodge structures of extreme bidegree (half-dimension n on each
side), organized around the endomorphism-algebra profile.

Importing the package imports none of its modules: each public name and
each submodule (``hodgekit.core``) resolves on first use by importing the
submodule that defines it, which Python then binds on the package."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "core": (
        "EndomorphismDescriptor",
        "GroupExpr",
        "HodgeProfile",
        "Violation",
        "profile_from_json",
        "profile_to_json",
        "validate_profile",
    ),
    "realizability": ("ExceptionalCase", "is_exceptional", "realizable"),
    "lefschetz": ("group_dim", "group_rank", "lefschetz_group"),
    "classifier": (
        "Candidate",
        "ClassificationOutcome",
        "SubfieldDescriptor",
        "classify",
        "exclude_sl2_product",
        "su_constraint",
        "table3",
    ),
    "consequences": ("AbelianProfile", "hodge_status", "murty_equal"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli", "cmtools", "intlinalg", "numth", "rootsys")

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | _HOME_OF.keys() | set(_SUBMODULES))
