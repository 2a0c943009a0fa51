"""The CM engine against the classifier on the torus case.

For type IV with m = 1 ([L:Q] = 2n) the structure is one-dimensional over
the CM field L.  A CM type gives its Hodge structure, and its Hodge group
is a torus of dimension the reduced Kubota rank of the type (Kubota,
Trans. AMS 118 (1965); Ribet, Mém. SMF 2 (1980)); End = L exactly when
the type is primitive (Shimura and Taniyama).  So each primitive type on
a Galois model with 2g points gives a profile and a subfield inventory
whose verdict the rank checks, on a route that shares no code with the
classifier:

* the profile is (IV, [L:Q] = 2g, [F:Q] = g, q = 1) at n = g, with the
  trace (1, 0) or (0, 1) on each conjugate pair, by which of its two
  points lies in the type;
* each block system on which conjugation maps no block to itself is a CM
  subfield E, of degree the number of blocks.  The structure is balanced
  over E when the type meets every block in half its points, and L/Q is
  Galois when the model's group acts regularly.

A determined verdict then names one group, of rank the reduced rank, and
no candidate of any verdict ranks below it.
"""

from functools import lru_cache

import pytest

from hodgekit.classifier import DETERMINED, SubfieldDescriptor, classify
from hodgekit.cmtools import (
    GaloisModel,
    abelian_model,
    block_systems,
    cyclic_model,
    dihedral_model,
    enumerate_cm_types,
    is_primitive,
    kubota_rank,
)
from hodgekit.core import EndomorphismDescriptor, HodgeProfile
from hodgekit.lefschetz import group_rank

from oracles import group_of


def _cycle(k, points):
    """The permutation of k points that cycles ``points``."""
    perm = list(range(k))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return perm


def _times_klein(k, gens, r):
    """A group on k points, given by ``gens``, times (Z/2)^r acting
    regularly on 2^r points: the point a + k b is (a, b), and conjugation
    is the first factor of Z/2, which the generators' group omits."""
    size = k << r
    moves = [tuple(g[i % k] + i - i % k for i in range(size)) for g in gens]
    flips = [
        tuple(i % k + k * ((i // k) ^ (1 << j)) for i in range(size)) for j in range(r)
    ]
    return GaloisModel(moves + flips[1:], flips[0], size)


S3 = [_cycle(3, [0, 1, 2]), _cycle(3, [0, 1])]
S4 = [_cycle(4, [0, 1, 2, 3]), _cycle(4, [0, 1])]
A4 = [_cycle(4, [0, 1, 2]), _cycle(4, [1, 2, 3])]
S5 = [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1])]

# every model with 2g <= 20 points of ROADMAP item 10: cyclic, dihedral,
# eight abelian shapes, and six whose group is not regular or does not
# hold conjugation among its generators' group
MODELS = {
    **{f"cyclic:{2 * g}": cyclic_model(2 * g) for g in range(1, 11)},
    **{f"dihedral:{g}": dihedral_model(g) for g in (2, 4, 6, 8, 10)},
    **{
        "abelian:" + ",".join(map(str, dims)): abelian_model(dims)
        for dims in (
            [2, 2], [2, 4], [2, 6], [2, 8], [4, 4], [2, 2, 2], [2, 2, 4], [2, 2, 2, 2]
        )
    },
    "S3xZ2": _times_klein(3, S3, 1),
    "S4xZ2": _times_klein(4, S4, 1),
    "A4xZ2": _times_klein(4, A4, 1),
    "S3xZ2xZ2": _times_klein(3, S3, 2),
    "S5xZ2xZ2": _times_klein(5, S5, 2),
    "Z6xZ2 iota outside": _times_klein(6, [_cycle(6, [0, 1, 2, 3, 4, 5])], 1),
}


@lru_cache(maxsize=None)
def _verdicts(name):
    """(type, reduced Kubota rank, verdict) for each primitive type of the
    model, at odd and at even weight."""
    model = MODELS[name]
    g = model.g
    group = group_of(model)
    galois = len(group) == model.size
    # the CM subfields: block systems on which conjugation fixes no block
    fields = [
        blocks
        for blocks in block_systems(model)
        if all(model.conj[min(block)] not in block for block in blocks)
    ]
    # primitivity and rank are invariant under the group: one engine call
    # per orbit of types
    known = {}
    out = []
    for theta in enumerate_cm_types(model):
        t = theta.theta
        if t not in known:
            value = is_primitive(model, theta), kubota_rank(model, theta)[1]
            known.update((frozenset(sigma[x] for x in t), value) for sigma in group)
        primitive, reduced = known[t]
        if not primitive:
            continue
        traces = [(1, 0) if i in t else (0, 1) for i, _ in model.conjugate_pairs()]
        endo = EndomorphismDescriptor("IV", 2 * g, g, 1, cm_traces=traces)
        inventory = [
            SubfieldDescriptor(
                len(blocks), all(2 * len(b & t) == len(b) for b in blocks), galois
            )
            for blocks in fields
        ]
        for weight in (1, 2):
            verdict = classify(HodgeProfile(weight, g, endo), inventory)
            out.append((theta, reduced, verdict))
    return out


@pytest.mark.parametrize("name", list(MODELS))
def test_the_torus_verdict_agrees_with_the_kubota_rank(name):
    for theta, reduced, verdict in _verdicts(name):
        ranks = [group_rank(c.group) for c in verdict.candidates]
        where = (theta.sorted(), reduced, verdict.applied_rule, ranks)
        if verdict.status == DETERMINED:
            assert ranks == [reduced], where
        assert min(ranks) >= reduced, where


def test_the_sweep_meets_every_rule_that_determines_a_torus():
    """Not vacuous: determined verdicts come from each special n, with the
    reduced rank g (Hg = Lef) and g - 1 (Hg = SU_{L/E}), on regular models
    and on others."""
    seen = set()
    for name, model in MODELS.items():
        galois = len(group_of(model)) == model.size
        for _, reduced, verdict in _verdicts(name):
            if verdict.status == DETERMINED:
                seen.add((verdict.applied_rule, model.g - reduced, galois))
    assert seen == {
        ("n=1", 0, True),
        ("n=prime", 0, True),
        ("n=prime", 0, False),
        ("n=4", 0, True),
        ("n=4", 0, False),
        ("n=4", 1, False),
        ("n=2p", 1, True),
    }
