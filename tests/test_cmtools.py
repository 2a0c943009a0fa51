import random

import pytest

from hodgekit import cmtools
from hodgekit.cmtools import (
    MAX_DEGREE,
    SCAN_MAX_G,
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
    translate_lattice,
)
from hodgekit.intlinalg import integer_rank

from oracles import is_union_of_blocks, kubota_ranks, subgroup_block_systems


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
            assert kubota_rank(model, theta) == kubota_ranks(model, theta)


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


def test_block_systems_canonical_order():
    # within a size, systems are ordered by their sorted blocks
    systems = block_systems(abelian_model([2, 2, 2]))
    keys = [(len(s[0]), [sorted(b) for b in s]) for s in systems]
    assert keys == sorted(keys)
    assert [len(s[0]) for s in systems] == [2] * 7 + [4] * 7
    for s in systems:
        assert list(s) == sorted(s, key=min)


def _perms_model(size, gens, iota):
    return GaloisModel(
        generators=tuple(parse_cycles(g, size) for g in gens),
        conj=parse_cycles(iota, size),
        size=size,
    )


def _oracle_models():
    models = {f"cyclic:{n}": cyclic_model(n) for n in range(2, 17, 2)}
    models.update({f"dihedral:{n}": dihedral_model(n) for n in (2, 4, 6)})
    for dims in ([2, 2], [2, 4], [2, 6], [3, 4], [2, 8], [4, 4], [2, 2, 2],
                 [2, 2, 4], [2, 2, 2, 2]):
        models["abelian:" + ",".join(map(str, dims))] = abelian_model(dims)
    # the order-2 element of the first factor as conjugation, not the default
    base = abelian_model([2, 4])
    models["abelian:2,4 iota=gen0"] = GaloisModel(
        generators=base.generators, conj=base.generators[0], size=base.size
    )
    # non-regular actions: a group on k points, doubled, conjugation swaps copies
    swap4 = "(0 4)(1 5)(2 6)(3 7)"
    models["S3xZ2"] = _perms_model(
        6, ["(0 1 2)(3 4 5)", "(0 1)(3 4)"], "(0 3)(1 4)(2 5)"
    )
    models["D4xZ2"] = _perms_model(8, ["(0 1 2 3)(4 5 6 7)", "(1 3)(5 7)"], swap4)
    models["A4xZ2"] = _perms_model(8, ["(0 1 2)(4 5 6)", "(1 2 3)(5 6 7)"], swap4)
    models["S4xZ2"] = _perms_model(8, ["(0 1 2 3)(4 5 6 7)", "(0 1)(4 5)"], swap4)
    # regular abelian actions that the character route must turn down:
    # Z6 x Z2 with conjugation outside the generators' group, and Z8 with
    # a redundant generator
    models["Z6xZ2 iota outside"] = _perms_model(
        12, ["(0 1 2 3 4 5)(6 7 8 9 10 11)"], "(0 6)(1 7)(2 8)(3 9)(4 10)(5 11)"
    )
    models["Z8 redundant"] = _perms_model(
        8, ["(0 1 2 3 4 5 6 7)", "(0 2 4 6)(1 3 5 7)"], swap4
    )
    return models


ORACLE_MODELS = _oracle_models()


def _per_type_scan(model, systems):
    """tankeev_scan's JSON rebuilt type by type: kubota_rank plus the
    subgroup-lattice primitivity, no orbit sharing."""
    g = model.g
    p = g if g > 2 and all(g % d for d in range(2, g)) else None
    bound = 2 * g - 1 if p else None
    entries = []
    for theta in enumerate_cm_types(model):
        raw, reduced = kubota_rank(model, theta)
        entries.append(
            {
                "theta": theta.to_json(),
                "raw": raw,
                "reduced": reduced,
                "primitive": not is_union_of_blocks(systems, theta.theta),
                "raw_meets_bound": raw >= bound if p else None,
                "reduced_meets_bound": reduced >= bound if p else None,
            }
        )
    primitive = sum(e["primitive"] for e in entries)
    return {
        "degree": model.size,
        "p": p,
        "bound": bound,
        "total": len(entries),
        "primitive": primitive,
        "non_primitive": len(entries) - primitive,
        "entries": entries,
    }


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_union_find_blocks_match_subgroup_oracle(name):
    model = ORACLE_MODELS[name]
    systems = subgroup_block_systems(model)
    assert set(block_systems(model)) == systems
    for theta in enumerate_cm_types(model):
        assert is_primitive(model, theta) == (
            not is_union_of_blocks(systems, theta.theta)
        )
    assert tankeev_scan(model).to_json() == _per_type_scan(model, systems)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_kubota_rank_matches_two_fraction_eliminations(name):
    model = ORACLE_MODELS[name]
    for theta in enumerate_cm_types(model):
        assert kubota_rank(model, theta) == kubota_ranks(model, theta), theta


def test_kubota_rank_by_characters_on_regular_abelian_models(monkeypatch):
    rng = random.Random(6)
    cases = []
    for model in (cyclic_model(64), abelian_model([2] * 6), abelian_model([8, 8])):
        pairs = model.conjugate_pairs()
        for theta in (
            CMType(frozenset(i for i, _ in pairs)),
            CMType(frozenset(p[rng.getrandbits(1)] for p in pairs)),
        ):
            raw = integer_rank(translate_lattice(model, theta))
            cases.append((model, theta, (raw, raw - 1)))

    def bareiss(rows):
        raise AssertionError("integer_rank ran")

    monkeypatch.setattr(cmtools, "integer_rank", bareiss)
    for model, theta, want in cases:
        assert kubota_rank(model, theta) == want
    for model in (
        dihedral_model(4),
        ORACLE_MODELS["S4xZ2"],
        ORACLE_MODELS["Z6xZ2 iota outside"],
    ):
        with pytest.raises(AssertionError, match="integer_rank ran"):
            kubota_rank(model, enumerate_cm_types(model)[0])


def test_scan_is_capped_before_enumerating():
    with pytest.raises(InvalidModelError, match=f"SCAN_MAX_G = {SCAN_MAX_G}"):
        tankeev_scan(cyclic_model(2 * SCAN_MAX_G + 2))


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
    with pytest.raises(InvalidModelError, match="0..5"):
        check_cm_type(model, CMType(frozenset({0, 1, 8})))


def test_models_refuse_a_degree_over_the_cap():
    over = MAX_DEGREE + 2
    for build in (
        lambda: cyclic_model(over),
        lambda: dihedral_model(MAX_DEGREE),
        lambda: abelian_model([MAX_DEGREE, 2]),
        lambda: parse_cycles("(0 1)", over),
        lambda: GaloisModel(generators=(), conj=(1, 0), size=over),
    ):
        with pytest.raises(InvalidModelError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            build()
    assert cyclic_model(MAX_DEGREE).order == MAX_DEGREE


def test_group_order_over_the_cap_is_refused(monkeypatch):
    # Z2 wr S5 on two copies of 5 points: order 2^5 * 5! = 3840
    gens = ["(0 1 2 3 4)(5 6 7 8 9)", "(0 1)(5 6)", "(0 5)"]
    iota = "(0 5)(1 6)(2 7)(3 8)(4 9)"
    monkeypatch.setattr(cmtools, "MAX_GROUP_ORDER", 3839, raising=True)
    with pytest.raises(InvalidModelError, match="MAX_GROUP_ORDER = 3839"):
        _perms_model(10, gens, iota)
    monkeypatch.setattr(cmtools, "MAX_GROUP_ORDER", 3840, raising=True)
    assert _perms_model(10, gens, iota).order == 3840


def test_non_central_conjugation_is_refused_before_the_closure(monkeypatch):
    def closure(*args):
        raise AssertionError("the group closure ran")

    monkeypatch.setattr(cmtools, "generate_group", closure)
    # the generators give the symmetric group on 10 points, 3,628,800 elements
    gens = (parse_cycles("(0 1 2 3 4 5 6 7 8 9)", 10), parse_cycles("(0 1)", 10))
    conj = parse_cycles("(0 5)(1 6)(2 7)(3 8)(4 9)", 10)
    with pytest.raises(InvalidModelError, match="central"):
        GaloisModel(generators=gens, conj=conj, size=10)


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
