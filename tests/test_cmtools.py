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
    is_primitive,
    kubota_rank,
    tankeev_scan,
    translate_lattice,
)
from hodgekit.cli import _cycles
from hodgekit.intlinalg import integer_rank, smith_normal_form

from oracles import (
    group_of,
    inverse,
    is_union_of_blocks,
    kubota_ranks,
    quotient_model,
    subgroup_block_systems,
    translate_ranks,
)


def _perm(text, size):
    """The permutation of ``size`` points in cycle notation, read as the
    CLI reads ``--iota``."""
    return _cycles(text, size, "--iota")


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
        generators=tuple(_perm(g, size) for g in gens),
        conj=_perm(iota, size),
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
    # Z4 x Z2 given by r and r^2: the generators commute and their orders
    # multiply to the degree, but they reach 4 of the 8 points
    models["Z4xZ2 gens (r, r^2)"] = _perms_model(
        8, ["(0 1 2 3)(4 5 6 7)", "(0 2)(1 3)(4 6)(5 7)"], swap4
    )
    models.update({f"dihedral:{n}": dihedral_model(n) for n in (8, 10)})
    # regular dihedral actions that the representation route must turn
    # down: conjugation the right multiplication by s, which is central but
    # outside G, and the generators listed as (s, r)
    rot, flip = dihedral_model(6).generators
    models["dihedral:6 iota right s"] = GaloisModel(
        generators=(rot, flip), conj=tuple((i + 6) % 12 for i in range(12)), size=12
    )
    models["dihedral:6 gens (s, r)"] = GaloisModel(
        generators=(flip, rot), conj=dihedral_model(6).conj, size=12
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
        want = not is_union_of_blocks(systems, theta.theta)
        assert is_primitive(model, theta) == want
        # union-find is live for models without a table: keep its oracle
        assert cmtools._is_induced(model, theta.theta) != want
        if model._kubota is not None:
            assert model._kubota(theta.theta)[1] == want
    assert tankeev_scan(model).to_json() == _per_type_scan(model, systems)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_kubota_rank_matches_two_fraction_eliminations(name):
    model = ORACLE_MODELS[name]
    for theta in enumerate_cm_types(model):
        assert kubota_rank(model, theta) == kubota_ranks(model, theta), theta


DIHEDRAL_FALLBACKS = ["dihedral:6 iota right s", "dihedral:6 gens (s, r)"]


def test_kubota_rank_by_tables_on_regular_abelian_and_dihedral_models(monkeypatch):
    rng = random.Random(6)
    cases = []
    for model in (
        cyclic_model(64),
        abelian_model([2] * 6),
        abelian_model([8, 8]),
        dihedral_model(4),
    ):
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
    for name in ["S4xZ2", "Z6xZ2 iota outside"] + DIHEDRAL_FALLBACKS:
        model = ORACLE_MODELS[name]
        with pytest.raises(AssertionError, match="integer_rank ran"):
            kubota_rank(model, enumerate_cm_types(model)[0])


def test_primitivity_by_tables_on_regular_abelian_and_dihedral_models(monkeypatch):
    regular = [
        cyclic_model(16),
        abelian_model([2, 6]),
        abelian_model([2, 2, 2]),
        dihedral_model(4),
    ]
    other = [
        ORACLE_MODELS[name] for name in ["S4xZ2", "Z6xZ2 iota outside"] + DIHEDRAL_FALLBACKS
    ]
    union_find = cmtools._block_labels
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return union_find(*args, **kwargs)

    monkeypatch.setattr(cmtools, "_block_labels", counted)
    for model in regular + other:
        is_primitive(model, enumerate_cm_types(model)[0])
        tankeev_scan(model)
        assert (model in calls) == (model in other), model
        assert (model._kubota is None) == (model in other), model


TABLELESS = [
    "S3xZ2", "D4xZ2", "A4xZ2", "S4xZ2", "Z6xZ2 iota outside", "Z8 redundant",
    "Z4xZ2 gens (r, r^2)",
]


@pytest.mark.parametrize("name", TABLELESS + DIHEDRAL_FALLBACKS)
def test_a_scan_without_a_table_walks_each_orbit_once(name, monkeypatch):
    """Bareiss reads its rows from the translates that mark the orbit, so
    a scan walks the translates of one type per orbit, once."""
    model = ORACLE_MODELS[name]
    assert model._kubota is None
    group = group_of(model)
    orbits = {
        min(tuple(sorted(p[x] for x in theta.theta)) for p in group)
        for theta in enumerate_cm_types(model)
    }
    walks = []
    translates = cmtools._translates

    def counted(model, mask):
        walks.append(mask)
        return translates(model, mask)

    monkeypatch.setattr(cmtools, "_translates", counted)
    tankeev_scan(model)
    assert len(walks) == len(orbits)


def _dihedral_types(n, rng):
    """Seeded CM types of dihedral_model(n), as (type, built induced): two
    random ones; two fixed by a reflection r^c s, the reflection part being
    the rotation part shifted by c; and, when n has an odd divisor m > 1,
    one fixed by the rotations <r^(n/m)> for the largest such m.  Point
    a + n*b is r^a s^b, paired with r^(a + n/2) s^b."""

    def half():
        return [a + n // 2 * rng.getrandbits(1) for a in range(n // 2)]

    parts = [(half(), half(), False) for _ in range(2)]
    for c in (0, rng.randrange(1, n)):
        rotations = half()
        parts.append((rotations, [(a + c) % n for a in rotations], True))
    odd = n // 2
    while odd % 2 == 0:
        odd //= 2
    if odd > 1:
        # <r^step> has odd order, so it misses r^(n/2); the residue a mod
        # step is paired with a + step/2
        step = n // odd

        def cosets():
            residues = [a + step // 2 * rng.getrandbits(1) for a in range(step // 2)]
            return [x + step * j for x in residues for j in range(odd)]

        parts.append((cosets(), cosets(), True))
    return [(CMType(frozenset(r) | {n + a for a in f}), built) for r, f, built in parts]


def test_dihedral_tables_match_bareiss_and_union_find(monkeypatch):
    """Seeded types, induced ones among them, on dihedral:n for even n from
    4 to 64, also relabelled: the table's answers are Bareiss's rank and
    union-find's primitivity, and they come with both of those patched to
    raise, in queries and in scans up to n = 14."""
    rng = random.Random(23)
    cases = []
    for n in range(4, 66, 2):
        model = dihedral_model(n)
        relabel = list(range(2 * n))
        rng.shuffle(relabel)
        inv = inverse(relabel)
        relabelled = GaloisModel(
            tuple(compose(relabel, compose(g, inv)) for g in model.generators),
            compose(relabel, compose(model.conj, inv)),
            2 * n,
        )
        for theta, built_induced in _dihedral_types(n, rng):
            raw = integer_rank(translate_lattice(model, theta))
            prim = not cmtools._is_induced(model, theta.theta)
            assert not (built_induced and prim), (n, theta)
            cases.append((model, theta, ((raw, raw - 1), prim)))
            image = CMType(frozenset(relabel[x] for x in theta.theta))
            cases.append((relabelled, image, ((raw, raw - 1), prim)))

    def refuse(*args):
        raise AssertionError("Bareiss or union-find ran")

    monkeypatch.setattr(cmtools, "integer_rank", refuse)
    monkeypatch.setattr(cmtools, "_block_labels", refuse)
    scans = {}
    for model, theta, (ranks, prim) in cases:
        assert model._kubota.func is cmtools._by_representations
        assert (kubota_rank(model, theta), is_primitive(model, theta)) == (ranks, prim)
        if model.g <= 14:
            if model not in scans:
                scans[model] = tankeev_scan(model).entries
            entry = next(e for e in scans[model] if e.theta == theta.sorted())
            assert (entry.raw, entry.reduced, entry.primitive) == (*ranks, prim)
    assert len(scans) == 2 * 6


# every shape of regular abelian model with g <= 8, factors non-decreasing
SMALL_ABELIAN_SHAPES = [[n] for n in range(2, 17, 2)] + [
    [2, 2], [2, 3], [2, 4], [2, 5], [2, 6], [3, 4], [2, 7], [2, 8], [4, 4],
    [2, 2, 2], [2, 2, 3], [2, 2, 4], [2, 2, 2, 2],
]


def test_primitivity_routes_agree_on_small_regular_abelian_models():
    """Characters and union-find, on every type of every regular abelian
    model with g <= 8 and every choice of conjugation (--iota)."""
    count = 0
    for dims in SMALL_ABELIAN_SHAPES:
        base = abelian_model(dims)
        identity = tuple(range(base.size))
        involutions = [
            p for p in group_of(base) if p != identity and compose(p, p) == identity
        ]
        for conj in sorted(involutions):
            model = GaloisModel(base.generators, conj, base.size)
            assert model._kubota.func is cmtools._by_characters, (dims, conj)
            for key in cmtools._half_systems(model):
                theta = frozenset(key)
                by_characters = model._kubota(theta)[1]
                assert by_characters != cmtools._is_induced(model, theta), (dims, conj, key)
                assert model._kubota(theta, rank=False) == (None, by_characters)
                count += 1
    assert count == 8466


def test_dihedral_primitivity_computes_no_rank(monkeypatch):
    """is_primitive on a dihedral table compares the two words of theta
    and leaves the correlation and the divisions by Phi_d to kubota_rank:
    every type of dihedral:n, n = 4, 6, 8, 10, against union-find."""
    cases = []
    for n in (4, 6, 8, 10):
        model = dihedral_model(n)
        for key in cmtools._half_systems(model):
            theta = CMType(key)
            cases.append((model, theta, not cmtools._is_induced(model, theta.theta)))

    def refuse(*args):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(cmtools, "_correlation", refuse)
    monkeypatch.setattr(cmtools, "_vanishes", refuse)
    for model, theta, want in cases:
        assert is_primitive(model, theta) == want, (model.g, theta)
    assert len(cases) == 2**4 + 2**6 + 2**8 + 2**10


def test_abelian_primitivity_stops_at_a_trivial_stabilizer(monkeypatch):
    """is_primitive stops reading the character table once the kernels of
    the odd orbits that do not vanish meet in the point 0.  On a type of
    Z2^4 where all 8 odd characters are nonzero (raw rank 9), kubota_rank
    divides by Phi_2 8 times and is_primitive 5 times."""
    model = abelian_model([2, 2, 2, 2])
    theta = CMType([0, 2, 4, 6, 8, 10, 12, 15])
    assert model._kubota is not None  # the table, built before counting
    calls = []
    divide = cmtools._poly_divmod
    monkeypatch.setattr(cmtools, "_poly_divmod", lambda *args: calls.append(1) or divide(*args))
    assert kubota_rank(model, theta) == (9, 8)
    assert len(calls) == 8
    calls.clear()
    assert is_primitive(model, theta)
    assert len(calls) == 5


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
    s3_gens = (_perm("(0 1 2)(3 4 5)", 6),)
    with pytest.raises(InvalidModelError):
        GaloisModel(generators=s3_gens, conj=_perm("(0 1)(2 4)(3 5)", 6), size=6)


def test_cm_type_validation():
    model = cyclic_model(6)
    with pytest.raises(InvalidModelError):
        check_cm_type(model, CMType(frozenset({0, 1})))
    with pytest.raises(InvalidModelError):
        check_cm_type(model, CMType(frozenset({0, 3, 1})))
    with pytest.raises(InvalidModelError, match="0..5"):
        check_cm_type(model, CMType(frozenset({0, 1, 8})))
    with pytest.raises(InvalidModelError, match="0..5"):
        check_cm_type(model, CMType(frozenset({-1, 1, 2})))


def test_models_refuse_a_degree_over_the_cap():
    over = MAX_DEGREE + 2
    for build in (
        lambda: cyclic_model(over),
        lambda: dihedral_model(MAX_DEGREE),
        lambda: abelian_model([MAX_DEGREE, 2]),
        lambda: GaloisModel(generators=(), conj=(1, 0), size=over),
    ):
        with pytest.raises(InvalidModelError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            build()
    assert cyclic_model(MAX_DEGREE).order == MAX_DEGREE


def test_orbit_over_the_cap_is_refused(monkeypatch):
    # Z2 wr S5 on two copies of 5 points: order 2^5 * 5! = 3840, and a
    # type's translates are all 2^5 half-systems
    gens = ["(0 1 2 3 4)(5 6 7 8 9)", "(0 1)(5 6)", "(0 5)"]
    iota = "(0 5)(1 6)(2 7)(3 8)(4 9)"
    theta = CMType(frozenset(range(5)))
    monkeypatch.setattr(cmtools, "MAX_ORBIT", 31, raising=True)
    model = _perms_model(10, gens, iota)
    for engine in (kubota_rank, translate_lattice):
        with pytest.raises(InvalidModelError, match="MAX_ORBIT = 31"):
            engine(model, theta)
    with pytest.raises(InvalidModelError, match="MAX_ORBIT = 31"):
        tankeev_scan(model)
    monkeypatch.setattr(cmtools, "MAX_ORBIT", 32, raising=True)
    assert len(translate_lattice(model, theta)) == 32
    # the group is an orbit too: the identity's under left multiplication
    monkeypatch.setattr(cmtools, "MAX_ORBIT", 3839, raising=True)
    with pytest.raises(InvalidModelError, match="MAX_ORBIT = 3839"):
        _perms_model(10, gens, iota).order
    monkeypatch.setattr(cmtools, "MAX_ORBIT", 3840, raising=True)
    assert _perms_model(10, gens, iota).order == 3840


def test_no_engine_reads_the_group():
    for name, shared in ORACLE_MODELS.items():
        model = GaloisModel(shared.generators, shared.conj, shared.size)
        assert "elements" not in vars(model), name
        theta = enumerate_cm_types(model)[-1]
        block_systems(model)
        tankeev_scan(model)
        translate_lattice(model, theta)
        kubota_rank(model, theta)
        is_primitive(model, theta)
        assert "elements" not in vars(model), name
    # non-central conjugation is refused from the generators: they give
    # the symmetric group on 10 points, 3,628,800 elements
    gens = (_perm("(0 1 2 3 4 5 6 7 8 9)", 10), _perm("(0 1)", 10))
    conj = _perm("(0 5)(1 6)(2 7)(3 8)(4 9)", 10)
    with pytest.raises(InvalidModelError, match="central"):
        GaloisModel(generators=gens, conj=conj, size=10)


def test_cyclic_model_is_the_shifted_cycle_at_every_even_size():
    for size in range(2, MAX_DEGREE + 1, 2):
        rot = tuple((i + 1) % size for i in range(size))
        conj = tuple((i + size // 2) % size for i in range(size))
        model = cyclic_model(size)
        assert model == GaloisModel(generators=(rot,), conj=conj, size=size)
    for size in (-2, 0, 1, 3, 5, 7, MAX_DEGREE - 1, MAX_DEGREE + 1):
        with pytest.raises(InvalidModelError):
            cyclic_model(size)


# Z2 x S9 on two copies of 9 points, conjugation the copy swap: 725,760
# elements, yet a type has at most 2 * C(9, 4) = 252 translates
Z2_S9 = ["(0 1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16 17)", "(0 1)(9 10)"]
Z2_S9_IOTA = "".join(f"({i} {i + 9})" for i in range(9))


def _frozenset_orbit(model, theta):
    """The translates of theta by a search over the generators and conj."""
    orbit = {frozenset(theta)}
    frontier = list(orbit)
    while frontier:
        t = frontier.pop()
        for g in model.generators + (model.conj,):
            image = frozenset(g[x] for x in t)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return frozenset(orbit)


def test_z2_x_s9_matches_fraction_ranks():
    model = _perms_model(18, Z2_S9, Z2_S9_IOTA)
    report = tankeev_scan(model)
    assert (report.total, report.primitive_count) == (512, 510)
    orbits = []
    for entry in report.entries:
        theta = frozenset(entry.theta)
        translates = next((o for o in orbits if theta in o), None)
        if translates is None:
            translates = _frozenset_orbit(model, theta)
            orbits.append(translates)
        assert (entry.raw, entry.reduced) == translate_ranks(18, translates)
        # the types that are unions of blocks are the two copies
        assert entry.primitive == (len(translates) > 2)
        assert kubota_rank(model, CMType(theta)) == (entry.raw, entry.reduced)
    assert sorted(map(len, orbits)) == [2, 18, 72, 168, 252]
    for translates in orbits:
        theta = CMType(min(translates, key=sorted))
        rows = [[int(i in t) for i in range(18)] for t in translates]
        assert smith_normal_form(translate_lattice(model, theta)) == smith_normal_form(rows)
    assert "elements" not in vars(model)


def test_dihedral_model_shape():
    model = dihedral_model(4)
    assert model.size == 8 and model.order == 8
    types = enumerate_cm_types(model)
    assert len(types) == 16
    raw, reduced = kubota_rank(model, types[0])
    assert reduced <= raw


@pytest.mark.parametrize(
    "generators, conj, size, message",
    [
        ((), (0, 2, 1), 3, "embedding set must have even size >= 2"),
        ((), (), 0, "embedding set must have even size >= 2"),
        (((0,),), (0,), 1, "embedding set must have even size >= 2"),
        (((1, 2, 3, 0),), (1, 2, 3, 0), 4, "conjugation must have order 2"),
    ],
)
def test_galois_model_refusals(generators, conj, size, message):
    with pytest.raises(InvalidModelError, match=f"^{message}$"):
        GaloisModel(generators=generators, conj=conj, size=size)
