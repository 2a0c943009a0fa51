"""The one universe of ``classify`` inputs that the tier-1 sweeps read.

``inputs()`` yields, in a fixed order, every shape-valid profile with
n <= 64 at weights 1 and 2 (every Albert type, degree split and q, with
``disc_one`` None, False and True on types I-III, the types whose catalog
entries read it, and the type IV ``trace_lists``), each with every
subfield inventory of its [L:Q] (``inventories``).  ``classify_all``
classifies each input once; the session fixture in ``conftest.py`` holds
that pass.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Union

from hodgekit.classifier import ClassificationOutcome, SubfieldDescriptor, classify
from hodgekit.core import EndomorphismDescriptor, HodgeProfile

WEIGHTS = (1, 2)
# every multiset of trace pairs is listed where a shape has at most this
# many, C(7, 2): so is every list at n <= 11
FULL_MULTISETS = 21


class Verdict(NamedTuple):
    profile: HodgeProfile
    subfields: Optional[tuple[SubfieldDescriptor, ...]]
    outcome: Union[ClassificationOutcome, ValueError]  # or classify's refusal


def shapes(n: int):
    """(Albert type, [L:Q], [F:Q], q) of every shape valid at n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    yield from (("I", d, d, 1) for d in divisors)
    for t in ("II", "III"):
        yield from ((t, 4 * f, f, 2) for f in divisors if (2 * n) % (4 * f) == 0)
    for g in divisors:
        for q in range(1, math.isqrt(n // g) + 1):
            if (n // g) % (q * q) == 0:
                yield "IV", 2 * g * q * q, g, q


def trace_lists(deg_L: int, g: int, s: int) -> list:
    """None, then lists of g pairs summing to s = mq: every multiset at
    [L:Q] = 2 and where there are few, else the classify_sweep benchmark's."""
    if deg_L == 2 or math.comb(s + g, g) <= FULL_MULTISETS:
        pairs = [(a, s - a) for a in range(s + 1)]
        return [None, *itertools.combinations_with_replacement(pairs, g)]
    lists = [((s, 0),) * g, ((s // 2, s - s // 2),) * g]
    lists.append(tuple((s, 0) if i % 2 == 0 else (0, s) for i in range(g)))
    if s >= 2:
        lists.append(((1, s - 1),) * g)
    return [None, *dict.fromkeys(lists)]


def inventories(deg_L: int) -> list:
    """None, empty, one field of each even degree dividing [L:Q] with each
    balance flag (and each Galois flag at degree 2, the one degree whose
    flag ``classify`` reads), then four pairs of fields in both orders: two
    balanced quadratic fields, of which the first decides the Galois flag
    read; an unbalanced quadratic field beside a balanced one; and a
    quadratic field beside the whole field, with opposite balance."""
    E = SubfieldDescriptor
    out = [None, ()]
    for deg_E in (e for e in range(2, deg_L + 1, 2) if deg_L % e == 0):
        galois = (None, True, False) if deg_E == 2 else (None,)
        out += [(E(deg_E, b, flag),) for b in (True, False) for flag in galois]
    pairs = [
        (E(2, True), E(2, True, True)),
        (E(2, False), E(2, True, True)),
        (E(2, True), E(deg_L, False)),
        (E(2, False), E(deg_L, True)),
    ]
    return out + list(dict.fromkeys(pair[::step] for pair in pairs for step in (1, -1)))


def prof(t, deg_L, deg_F, q, w, n, traces=None, disc=None):
    """One profile, written out by its numbers."""
    return HodgeProfile(w, n, EndomorphismDescriptor(t, deg_L, deg_F, q, traces, disc))


def profiles():
    for n, w in itertools.product(range(1, 65), WEIGHTS):
        for t, deg_L, deg_F, q in shapes(n):
            if t == "IV":
                for traces in trace_lists(deg_L, deg_F, (2 * n // deg_L) * q):
                    yield HodgeProfile(w, n, EndomorphismDescriptor(t, deg_L, deg_F, q, traces))
            else:
                for disc in (None, False, True):
                    endo = EndomorphismDescriptor(t, deg_L, deg_F, q, disc_one=disc)
                    yield HodgeProfile(w, n, endo)


def inputs():
    """(profile, subfields) of every universe input, in order."""
    by_degree = {}
    for profile in profiles():
        deg_L = profile.endo.deg_L
        if deg_L not in by_degree:
            by_degree[deg_L] = inventories(deg_L)
        yield from ((profile, subfields) for subfields in by_degree[deg_L])


def classify_all() -> list[Verdict]:
    """Each input's verdict, from one ``classify`` call per input."""
    verdicts = []
    for profile, subfields in inputs():
        try:
            outcome = classify(profile, subfields)
        except ValueError as exc:
            # the sweeps read the type and message; a traceback would keep
            # every refused call's frames alive
            outcome = exc.with_traceback(None)
        verdicts.append(Verdict(profile, subfields, outcome))
    return verdicts
