import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import rootsys
from hodgekit.numth import central_binomial_mod4
from hodgekit.rootsys import (
    MAX_RANK,
    NON_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    RootSystem,
    Weight,
    admissible_factors,
    autoduality,
    fundamental_weight,
    is_minuscule,
    minuscule_table_expected,
    minuscule_weights,
    rep_dimension,
    root_system,
    verify_minuscule_table,
    weight_length,
)

from oracles import (
    dense_autoduality,
    dense_dominant_representative,
    dense_pairing_sum,
    dense_positive_roots,
    dense_weyl_dimension,
    dual_weight,
    minuscule_scan,
    norm_coroots,
    opposition,
    oracle_weight_length,
    pair_coroot,
    scan_admissible_factors,
    weight_root_coordinates,
)


def all_systems(max_rank=10, c_from=2):
    """Every classical system of rank <= max_rank, kind by kind, then E6
    and E7.  C starts at rank c_from: C1 is A1 by another name."""
    for kind, lowest in (("A", 1), ("B", 2), ("C", c_from), ("D", 3)):
        for l in range(lowest, max_rank + 1):
            yield RootSystem(kind, l)
    yield RootSystem("E", 6)
    yield RootSystem("E", 7)


def test_positive_root_counts():
    expected = {
        ("A", 5): 15,
        ("B", 4): 16,
        ("C", 6): 36,
        ("D", 7): 42,
        ("E", 6): 36,
        ("E", 7): 63,
    }
    for (kind, l), count in expected.items():
        assert len(RootSystem(kind, l).positive_roots) == count


def test_weyl_kernels_match_the_dense_oracles():
    # every classical system of rank <= 24 plus E6 and E7: roots, coroots,
    # <lambda, 2 rho^vee> and the autoduality sign on every fundamental
    # weight, and dominantizations (weight and shift) of every negated
    # fundamental weight and of seeded random weights
    rng = random.Random(20151118)
    for rs in all_systems(24, c_from=1):
        l = rs.rank
        lengths = dense_positive_roots(rs)
        coroots = norm_coroots(rs, lengths)
        assert rs.positive_roots == tuple(sorted(lengths, key=lambda r: (sum(r), r)))
        assert rs._coroots == coroots, rs.name
        mus = [tuple(rng.randint(-3, 3) for _ in range(l)) for _ in range(3)]
        for i in range(1, l + 1):
            w = fundamental_weight(rs, i)
            assert rs._two_rho_vee[i - 1] == dense_pairing_sum(coroots, w)
            if is_minuscule(rs, w):
                assert autoduality(rs, w) == dense_autoduality(rs, coroots, w)
            mus.append(tuple(-c for c in w.coords))
        for mu in mus:
            got = rs.dominant_representative(mu)
            assert got == dense_dominant_representative(rs, mu), (rs.name, mu)


def test_dominantization_steps_count_the_negative_coroots():
    # each step s_i with mu_i < 0 removes alpha_i from the positive roots
    # pairing negatively with mu and permutes the rest, so the number of
    # steps is exactly their number: the budget (one step per positive
    # root) cut down to that number suffices, and one step fewer is refused
    rng = random.Random(20151119)
    for kind, l in [("A", 7), ("B", 6), ("C", 6), ("D", 7), ("E", 6), ("E", 7)]:
        for _ in range(8):
            rs = RootSystem(kind, l)
            mu = tuple(rng.randint(-3, 3) for _ in range(l))
            negative = sum(pair_coroot(rs, Weight(mu), b) < 0 for b in rs.positive_roots)
            expected = rs.dominant_representative(mu)
            rs.positive_roots = rs.positive_roots[:negative]
            assert rs.dominant_representative(mu) == expected
            if negative:
                rs.positive_roots = rs.positive_roots[: negative - 1]
                with pytest.raises(AssertionError, match="too many steps"):
                    rs.dominant_representative(mu)


def test_cartan_matrix_shapes():
    b3 = RootSystem("B", 3)
    assert b3.cartan == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    c3 = RootSystem("C", 3)
    assert c3.cartan == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_minuscule_sets_match_table():
    # A_l: all fundamentals; B_l: the last; C_l: the first;
    # D_l: first and the two at the fork; E6: the two ends; E7: the last.
    for rs in all_systems():
        got = {w.coords.index(1) + 1 for w in minuscule_weights(rs)}
        l = rs.rank
        if rs.kind == "A":
            expected = set(range(1, l + 1))
        elif rs.kind == "B":
            expected = {l}
        elif rs.kind == "C":
            expected = {1}
        elif rs.kind == "D":
            expected = {1, l - 1, l}
        elif l == 6:
            expected = {1, 6}
        else:
            expected = {7}
        assert got == expected, rs.name


def test_definitional_pairings_on_returned_weights():
    # is_minuscule reads only the positive roots; pair with all of them here
    for rs in all_systems(max_rank=6):
        roots = list(rs.positive_roots)
        roots += [tuple(-c for c in beta) for beta in rs.positive_roots]
        returned = minuscule_weights(rs)
        for i in range(1, rs.rank + 1):
            w = fundamental_weight(rs, i)
            values = {pair_coroot(rs, w, beta) for beta in roots}
            assert (values <= {-1, 0, 1}) == (w in returned), (rs.name, i)


def test_dimensions_match_closed_forms():
    for l in range(1, 11):
        rs = RootSystem("A", l)
        for j in range(1, l + 1):
            assert rep_dimension(rs, fundamental_weight(rs, j)) == math.comb(l + 1, j)
    for l in range(2, 11):
        rs = RootSystem("B", l)
        assert rep_dimension(rs, fundamental_weight(rs, l)) == 2 ** l
        rs = RootSystem("C", l)
        assert rep_dimension(rs, fundamental_weight(rs, 1)) == 2 * l
    for l in range(3, 11):
        rs = RootSystem("D", l)
        assert rep_dimension(rs, fundamental_weight(rs, 1)) == 2 * l
        assert rep_dimension(rs, fundamental_weight(rs, l)) == 2 ** (l - 1)
        assert rep_dimension(rs, fundamental_weight(rs, l - 1)) == 2 ** (l - 1)
    e6, e7 = RootSystem("E", 6), RootSystem("E", 7)
    assert rep_dimension(e6, fundamental_weight(e6, 1)) == 27
    assert rep_dimension(e7, fundamental_weight(e7, 7)) == 56


def test_trivial_representation_dimension():
    rs = RootSystem("A", 1)
    assert rep_dimension(rs, Weight((0,))) == 1


def test_adjoint_dimension_spot_check():
    # highest root of A_2: (1,1); dim of the adjoint is 8
    rs = RootSystem("A", 2)
    assert rep_dimension(rs, Weight((1, 1))) == 8


def test_rep_dimension_matches_the_weyl_product_over_every_root():
    # the package multiplies only the factors of the nonzero pairings; the
    # oracle takes the Fraction product over every positive root.  Every
    # dominant weight with coordinates in {0, 1, 2} up to rank 4, then
    # seeded random dominant weights, zeros among their coordinates, up to
    # rank 10 and on E6 and E7
    rng = random.Random(20151120)
    for rs in all_systems(10, c_from=1):
        coroots = norm_coroots(rs, dense_positive_roots(rs))
        l = rs.rank
        if l <= 4:
            grid = itertools.product(range(3), repeat=l)
        else:
            grid = (tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(l)) for _ in range(25))
        for coords in grid:
            w = Weight(coords)
            assert rep_dimension(rs, w) == dense_weyl_dimension(coroots, w), (rs.name, coords)


def test_rep_dimension_refuses_a_ratio_that_is_not_integral():
    # A2's coroot heights are (1, 1, 2); with the last read as 4, omega_1
    # (pairings 1, 0, 1) gives 2 * 5 / (1 * 4), which the guard refuses
    # rather than round down
    rs = RootSystem("A", 2)
    assert rs._coroot_heights == (1, 1, 2)
    rs._coroot_heights = (1, 1, 4)
    with pytest.raises(AssertionError, match="^Weyl dimension did not come out integral$"):
        rep_dimension(rs, fundamental_weight(rs, 1))


def test_autoduality_signs():
    for l in range(1, 11):
        rs = RootSystem("A", l)
        for j in range(1, l + 1):
            expected = NON_SELF_DUAL
            if l == 2 * j - 1:
                expected = ORTHOGONAL if j % 2 == 0 else SYMPLECTIC
            assert autoduality(rs, fundamental_weight(rs, j)) == expected, (l, j)
    for l in range(2, 11):
        rs = RootSystem("B", l)
        expected = ORTHOGONAL if l % 4 in (0, 3) else SYMPLECTIC
        assert autoduality(rs, fundamental_weight(rs, l)) == expected
        rs = RootSystem("C", l)
        assert autoduality(rs, fundamental_weight(rs, 1)) == SYMPLECTIC
    for l in range(3, 11):
        rs = RootSystem("D", l)
        assert autoduality(rs, fundamental_weight(rs, 1)) == ORTHOGONAL
        if l % 2 == 1:
            expected = NON_SELF_DUAL
        elif l % 4 == 0:
            expected = ORTHOGONAL
        else:
            expected = SYMPLECTIC
        assert autoduality(rs, fundamental_weight(rs, l)) == expected
    e6, e7 = RootSystem("E", 6), RootSystem("E", 7)
    assert autoduality(e6, fundamental_weight(e6, 1)) == NON_SELF_DUAL
    assert autoduality(e7, fundamental_weight(e7, 7)) == SYMPLECTIC


def test_autoduality_invariant_under_dual():
    for rs in all_systems(max_rank=6):
        for w in minuscule_weights(rs):
            assert autoduality(rs, dual_weight(rs, w)) == autoduality(rs, w)


def test_weight_length_examples():
    c4 = RootSystem("C", 4)
    assert weight_length(c4, fundamental_weight(c4, 1)) == 1
    a1 = RootSystem("A", 1)
    assert weight_length(a1, Weight((2,))) == 2
    assert weight_length(a1, Weight((0,))) == 0


def test_minuscule_length_one_for_classical():
    for rs in all_systems():
        if rs.kind == "E":
            continue
        for w in minuscule_weights(rs):
            assert weight_length(rs, w) == 1, (rs.name, w)


def test_root_coordinates_are_exact():
    a3 = RootSystem("A", 3)
    coords = weight_root_coordinates(a3, fundamental_weight(a3, 2))
    assert coords == [Fraction(1, 2), Fraction(1), Fraction(1, 2)]


def test_weight_length_matches_the_rational_solve():
    # every system of rank <= 8: fundamental, seeded random dominant and zero
    rng = random.Random(20151111)
    for rs in all_systems(8, c_from=1):
        l = rs.rank
        weights = [fundamental_weight(rs, i) for i in range(1, l + 1)]
        weights += [
            Weight(tuple(rng.randint(0, 4) for _ in range(l))) for _ in range(10)
        ]
        weights.append(Weight((0,) * l))
        for w in weights:
            got = weight_length(rs, w)
            assert type(got) is int, (rs.name, w)
            assert got == oracle_weight_length(rs, w), (rs.name, w)


def test_opposition_oracle_matches_the_dual_weights():
    for rs in all_systems():
        iota = opposition(rs.kind, rs.rank)
        for i in range(1, rs.rank + 1):
            assert dual_weight(rs, fundamental_weight(rs, i)) == fundamental_weight(
                rs, iota[i - 1] + 1
            ), (rs.name, i)


def test_verify_minuscule_table_passes():
    for rs in all_systems(max_rank=6):
        assert verify_minuscule_table(rs)["ok"], rs.name


def test_verify_minuscule_table_matches_the_public_queries():
    # every classical system of rank <= 24 plus E6 and E7: the table check
    # reads the minuscule test off the coroot columns and dominantizes -w
    # once for both the dual and the length; the public queries, one call
    # each, must give the same weights and the same rows
    for rs in all_systems(24, c_from=1):
        l = rs.rank
        fundamentals = [fundamental_weight(rs, i) for i in range(1, l + 1)]
        minuscule = [w for w in fundamentals if is_minuscule(rs, w)]
        assert minuscule_weights(rs) == minuscule, rs.name
        expected = {
            row["index"]: (row["dim"], row["duality"])
            for row in minuscule_table_expected(rs)
        }
        rows = []
        for w in minuscule:
            index = w.coords.index(1) + 1
            dim, dual = rep_dimension(rs, w), autoduality(rs, w)
            length_one = rs.kind == "E" or weight_length(rs, w) == 1
            ok = expected.get(index) == (dim, dual) and length_one
            rows.append(
                {
                    "index": index,
                    "dim": dim,
                    "duality": dual,
                    "definitional": True,
                    "length_one": length_one,
                    "ok": ok,
                }
            )
        assert sorted(row["index"] for row in rows) == sorted(expected), rs.name
        assert all(row["ok"] for row in rows), rs.name
        assert verify_minuscule_table(rs) == {"system": rs.name, "ok": True, "weights": rows}


def test_admissible_factors_examples():
    # dim 6 orthogonal: only the D3 standard; the A3 middle wedge is cut
    hits = admissible_factors(6, ORTHOGONAL)
    assert [(rs.name, w.coords) for rs, w in hits] == [("D3", (1, 0, 0))]
    # dim 70 orthogonal includes the A7 middle wedge (k=3)
    hits = admissible_factors(70, ORTHOGONAL, max_rank=12)
    assert ("A7", (0, 0, 0, 1, 0, 0, 0)) in [(rs.name, w.coords) for rs, w in hits]
    assert admissible_factors(3, SYMPLECTIC) == []


def test_admissible_factors_dim2_degenerate_symplectic():
    hits = admissible_factors(2, SYMPLECTIC)
    assert [(rs.name, w.coords) for rs, w in hits] == [("C1", (1,))]


def test_admissible_factors_every_hit_is_minuscule():
    for dim, duality in [(6, ORTHOGONAL), (8, SYMPLECTIC), (10, NON_SELF_DUAL)]:
        for rs, w in admissible_factors(dim, duality, max_rank=8):
            assert is_minuscule(rs, w)
            assert rep_dimension(rs, w) == dim


def test_closed_form_table_matches_the_weyl_scan():
    # every classical system up to rank 16 plus E6 and E7
    for rs in all_systems(16, c_from=1):
        rows = minuscule_table_expected(root_system(rs.kind, rs.rank))
        got = tuple(sorted((r["index"], r["dim"], r["duality"]) for r in rows))
        assert got == tuple(sorted(minuscule_scan(rs.kind, rs.rank))), rs.name


def test_admissible_factors_match_the_scan_oracle():
    for dim in range(1, 200):
        for duality in (ORTHOGONAL, SYMPLECTIC, NON_SELF_DUAL):
            got = [
                (rs.kind, rs.rank, w.coords)
                for rs, w in admissible_factors(dim, duality, max_rank=16)
            ]
            assert got == scan_admissible_factors(dim, duality, 16), (dim, duality)


def test_admissible_factors_match_the_scan_oracle_to_20000():
    # every d <= 20,000 at the rank the classifier asks for, and at ranks
    # that cut the binary search and the small kinds short; the oracle
    # scans each system once, so the comparison costs one call per query
    for max_rank in (1, 2, 7, 16, 31):
        for dim in range(1, 20_001):
            for duality in (ORTHOGONAL, SYMPLECTIC, NON_SELF_DUAL):
                got = [
                    (rs.kind, rs.rank, w.coords)
                    for rs, w in admissible_factors(dim, duality, max_rank)
                ]
                assert got == scan_admissible_factors(dim, duality, max_rank), (
                    dim,
                    duality,
                    max_rank,
                )


def test_admissible_factors_refuse_an_unknown_duality():
    for duality in ("bogus", "Orthogonal", ""):
        with pytest.raises(ValueError, match="orthogonal, symplectic, non_self_dual"):
            admissible_factors(6, duality)


def test_admissible_factors_generate_no_roots():
    root_system.cache_clear()
    hits = admissible_factors(70, ORTHOGONAL, max_rank=16)
    assert [(rs.name, w.coords.index(1) + 1) for rs, w in hits] == [("A7", 4)]
    for rs, _ in hits:
        assert "_coroots" not in vars(rs) and "positive_roots" not in vars(rs), rs.name


def test_root_count_is_checked_on_first_read(monkeypatch):
    monkeypatch.setitem(rootsys._COUNT, "B", lambda l: l * l + 1)
    rs = RootSystem("B", 4)
    with pytest.raises(AssertionError, match="got 16 positive roots, expected 17"):
        rs.positive_roots


def test_rank_cap_refuses_before_building():
    # a rank this large would never finish generating roots
    with pytest.raises(ValueError, match=f"MAX_RANK = {MAX_RANK}"):
        RootSystem("A", 10 ** 9)
    with pytest.raises(ValueError, match=f"MAX_RANK = {MAX_RANK}"):
        RootSystem("D", MAX_RANK + 1)
    with pytest.raises(ValueError, match=f"MAX_RANK = {MAX_RANK}"):
        admissible_factors(6, ORTHOGONAL, max_rank=MAX_RANK + 1)


def test_binomial_fact_agrees_with_numth():
    for z in range(1, 257):
        expected = 2 if z & (z - 1) == 0 else 0
        assert central_binomial_mod4(z) == expected
        assert math.comb(2 * z, z) % 4 == expected


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("A", 4), ("B", 3), ("C", 3), ("D", 4)]),
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
)
def test_dual_is_involutive_on_dominant_weights(spec, coords):
    kind, rank = spec
    rs = RootSystem(kind, rank)
    w = Weight(tuple(coords[:rank]))
    assert dual_weight(rs, dual_weight(rs, w)) == w
    assert rep_dimension(rs, dual_weight(rs, w)) == rep_dimension(rs, w)


def test_non_dominant_rejected():
    rs = RootSystem("A", 2)
    with pytest.raises(ValueError):
        rep_dimension(rs, Weight((-1, 0)))
    with pytest.raises(ValueError):
        weight_length(rs, Weight((-1, 0)))
    with pytest.raises(ValueError):
        autoduality(rs, Weight((2, 0)))


@pytest.mark.parametrize(
    "query", [rep_dimension, is_minuscule, weight_length, autoduality, dual_weight]
)
@pytest.mark.parametrize("coords", [(1,), (1, 0, 0, 0), (0, 0, 0, 1)])
def test_a_weight_of_the_wrong_length_is_refused(query, coords):
    """On A3 a weight must have three coordinates, whatever the query."""
    with pytest.raises(ValueError, match=f"^expected 3 coordinates, got {len(coords)}$"):
        query(RootSystem("A", 3), Weight(coords))


def test_bad_kind_and_rank():
    with pytest.raises(ValueError):
        RootSystem("F", 4)
    with pytest.raises(ValueError):
        RootSystem("D", 2)
    with pytest.raises(ValueError):
        RootSystem("E", 8)


def test_fundamental_weight_refuses_an_index_out_of_range():
    rs = RootSystem("A", 3)
    for index in (0, 4, -1):
        with pytest.raises(ValueError, match=f"^index {index} out of range for A3$"):
            fundamental_weight(rs, index)


def test_minuscule_needs_a_nonzero_dominant_weight():
    rs = RootSystem("A", 3)
    assert is_minuscule(rs, Weight((1, 0, 0)))
    assert not is_minuscule(rs, Weight((-1, 1, 0)))
    assert not is_minuscule(rs, Weight((0, 0, 0)))


def test_admissible_factors_refuse_a_dimension_below_one():
    for dim in (0, -4):
        with pytest.raises(ValueError, match="^dim must be positive$"):
            admissible_factors(dim, ORTHOGONAL)
