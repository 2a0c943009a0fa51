import random

import pytest

from hodgekit.cmtools import (
    CMType,
    GaloisModel,
    InvalidModelError,
    abelian_model,
    block_systems,
    check_cm_type,
    compose,
    cyclic_model,
    dihedral_model,
    enumerate_cm_types,
    inverse,
    is_primitive,
    kubota_rank,
    parse_cycles,
    quotient_model,
    tankeev_scan,
)

from oracles import fraction_rank


def translate_matrix(model, theta, reduced=False):
    rows = []
    for perm in model.elements:
        image = {perm[x] for x in theta.theta}
        indicator = [1 if i in image else 0 for i in range(model.size)]
        if reduced:
            indicator = [2 * v - 1 for v in indicator]
        rows.append(indicator)
    return rows


def oracle_ranks(model, theta):
    raw = fraction_rank(translate_matrix(model, theta))
    red = fraction_rank(translate_matrix(model, theta, reduced=True))
    return raw, red


def test_z2_model():
    model = cyclic_model(2)
    types = enumerate_cm_types(model)
    assert [t.sorted() for t in types] == [(0,), (1,)]
    for t in types:
        assert kubota_rank(model, t) == (2, 1)
        assert is_primitive(model, t)


def test_z6_examples():
    model = cyclic_model(6)
    assert len(enumerate_cm_types(model)) == 8
    induced = CMType(frozenset({0, 2, 4}))
    primitive = CMType(frozenset({0, 1, 2}))
    assert kubota_rank(model, induced) == (2, 1)
    assert not is_primitive(model, induced)
    assert kubota_rank(model, primitive) == (4, 3)
    assert is_primitive(model, primitive)


def test_klein_model_types():
    model = abelian_model([2, 2])
    assert len(enumerate_cm_types(model)) == 4


def test_rank_matches_rational_oracle():
    for model in [cyclic_model(2), cyclic_model(6), abelian_model([2, 2]), cyclic_model(8)]:
        for theta in enumerate_cm_types(model):
            assert kubota_rank(model, theta) == oracle_ranks(model, theta)


def test_conjugate_type_has_same_ranks():
    model = cyclic_model(6)
    for theta in enumerate_cm_types(model):
        flipped = CMType(frozenset(model.conj[x] for x in theta.theta))
        assert kubota_rank(model, theta) == kubota_rank(model, flipped)


def test_rank_bounds():
    model = cyclic_model(10)
    for theta in enumerate_cm_types(model):
        raw, reduced = kubota_rank(model, theta)
        assert reduced <= raw <= model.size
        assert reduced <= model.g


def test_relabeling_invariance():
    # conjugating the whole model by a permutation commuting with nothing
    # in particular, i.e. an arbitrary relabeling, preserves the ranks
    rng = random.Random(11)
    model = cyclic_model(6)
    for _ in range(5):
        relabel = list(range(6))
        rng.shuffle(relabel)
        relabel = tuple(relabel)
        inv = inverse(relabel)
        gens = tuple(
            compose(relabel, compose(g, inv)) for g in model.generators
        )
        conj = compose(relabel, compose(model.conj, inv))
        relabeled = GaloisModel(generators=gens, conj=conj, size=6)
        for theta in enumerate_cm_types(model):
            image = CMType(frozenset(relabel[x] for x in theta.theta))
            assert kubota_rank(model, theta) == kubota_rank(relabeled, image)
            assert is_primitive(model, theta) == is_primitive(relabeled, image)


def test_induced_rank_equals_quotient_rank():
    model = cyclic_model(6)
    blocks = next(s for s in block_systems(model) if len(s[0]) == 3)
    quotient, lookup = quotient_model(model, blocks)
    theta = CMType(frozenset({0, 2, 4}))  # a union of blocks
    down = CMType(frozenset(lookup[x] for x in theta.theta))
    assert kubota_rank(model, theta)[1] == kubota_rank(quotient, down)[1]


def test_block_systems_of_z6():
    model = cyclic_model(6)
    systems = block_systems(model)
    sizes = sorted(len(s[0]) for s in systems)
    assert sizes == [2, 3]


def test_z2_has_no_proper_blocks():
    assert block_systems(cyclic_model(2)) == []


def test_scan_z6():
    report = tankeev_scan(cyclic_model(6))
    assert report.total == 8
    assert report.non_primitive_count == 2
    assert report.primitive_count == 6
    assert report.p == 3 and report.bound == 5
    for entry in report.entries:
        if not entry.primitive:
            assert entry.reduced == 1


def test_scan_z2_not_applicable():
    report = tankeev_scan(cyclic_model(2))
    assert report.p is None and report.bound is None
    assert all(e.raw_meets_bound is None for e in report.entries)


def test_scan_z10_counts():
    report = tankeev_scan(cyclic_model(10))
    assert report.total == 32
    assert report.primitive_count + report.non_primitive_count == 32
    assert report.p == 5
    data = report.to_json()
    assert data["total"] == 32


def test_reduced_rank_calibration():
    # the torus of an imaginary quadratic field is one-dimensional, and a
    # primitive type on the cyclic degree-6 model has reduced rank 3
    model = cyclic_model(2)
    assert kubota_rank(model, CMType(frozenset({0})))[1] == 1
    model6 = cyclic_model(6)
    assert any(
        kubota_rank(model6, t)[1] == 3
        for t in enumerate_cm_types(model6)
        if is_primitive(model6, t)
    )


def test_model_validation():
    with pytest.raises(InvalidModelError):
        cyclic_model(5)
    # conjugation with a fixed point
    with pytest.raises(InvalidModelError):
        GaloisModel(
            generators=(tuple((i + 1) % 4 for i in range(4)),),
            conj=(0, 1, 3, 2),
            size=4,
        )
    # non-central conjugation in a symmetric-group action
    s3_gens = (parse_cycles("(0 1 2)(3 4 5)", 6),)
    with pytest.raises(InvalidModelError):
        GaloisModel(generators=s3_gens, conj=parse_cycles("(0 1)(2 4)(3 5)", 6), size=6)


def test_cm_type_validation():
    model = cyclic_model(6)
    with pytest.raises(InvalidModelError):
        check_cm_type(model, CMType(frozenset({0, 1})))
    with pytest.raises(InvalidModelError):
        check_cm_type(model, CMType(frozenset({0, 3, 1})))


def test_dihedral_model_shape():
    model = dihedral_model(4)
    assert model.size == 8 and model.order == 8
    types = enumerate_cm_types(model)
    assert len(types) == 16
    raw, reduced = kubota_rank(model, types[0])
    assert reduced <= raw


def test_parse_cycles():
    assert parse_cycles("(0 3)(1 4)(2 5)", 6) == (3, 4, 5, 0, 1, 2)
    assert parse_cycles("id", 3) == (0, 1, 2)
    assert parse_cycles("(0,1)", 2) == (1, 0)
    with pytest.raises(ValueError):
        parse_cycles("(0 1", 2)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 0)", 3)
