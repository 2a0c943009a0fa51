"""Independent test oracles: rational elimination and Lie-algebra bases.

These deliberately avoid the package's integer elimination so that rank
checks are dual-route: the package uses fraction-free Bareiss, the tests
use plain Gaussian elimination over Fraction (and, for Kubota ranks, eliminate
both the raw and the reduced matrix where the package derives one rank
from the other).  The group likewise: the package walks orbits of the
generators, the oracle closes the whole group.  Block systems likewise:
the package finds them by union-find, the oracle from the subgroup
lattice.  The minuscule table likewise: the package inverts closed forms,
the oracle scans the fundamental weights with the Weyl formula.  Weight
lengths likewise: the package sums the steps of a dominantization, the
oracle solves the Cartan system over Fraction.  The Weyl-group kernels
likewise: the package reflects sparsely, upward only, carrying coroots
through the closure; the oracle reflects by full Cartan columns in both
directions, derives each coroot from its root by the norm formula, sums
all positive coroot pairings for the autoduality sign, and dominantizes at
the first negative coordinate by dense reflections.  The abelian ledger
likewise: the package reads the n = 2p verdict of ``classify``, the
oracle decides the hypothesis family from the subfield inventory itself.
The realizability catalog likewise: the package runs only the entries of
the profile's Albert type, the oracle scans every entry of the parity,
each testing the type itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from operator import neg

from hodgekit import rootsys
from hodgekit.classifier import su_constraint
from hodgekit.cmtools import GaloisModel, compose, identity_perm


def fraction_rank(rows) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = Fraction(1) / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def mat_mul(A, B):
    m, p = len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
        for i in range(len(A))
    ]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def matrix_relation_dim(n: int, relation) -> int:
    """dim of {X in M_n(Q) : relation(X) = 0} for a linear relation.

    relation is evaluated on every matrix unit; the kernel dimension of
    the induced map M_n -> M_n is computed by exact elimination.
    """
    images = []
    for a in range(n):
        for b in range(n):
            unit = [
                [1 if (i, j) == (a, b) else 0 for j in range(n)] for i in range(n)
            ]
            images.append(relation(unit))
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append([images[u][i][j] for u in range(n * n)])
    return n * n - fraction_rank(rows)


def standard_symplectic_form(k: int):
    n = 2 * k
    J = [[0] * n for _ in range(n)]
    for i in range(k):
        J[i][k + i] = 1
        J[k + i][i] = -1
    return J


def symplectic_algebra_dim(k: int) -> int:
    """dim {X : X^T J + J X = 0}, computed from scratch."""
    J = standard_symplectic_form(k)
    return matrix_relation_dim(
        2 * k, lambda X: mat_add(mat_mul(transpose(X), J), mat_mul(J, X))
    )


def orthogonal_algebra_dim(n: int) -> int:
    """dim {X : X^T + X = 0} (the form is the identity matrix)."""
    return matrix_relation_dim(n, lambda X: mat_add(transpose(X), X))


def unitary_algebra_dim(k: int) -> int:
    """Real dimension of {A + iB : (A + iB)* = -(A + iB)}.

    The condition splits into A antisymmetric and B symmetric; both
    pieces are computed by the generic kernel routine, not by formula.
    """
    anti = matrix_relation_dim(k, lambda X: mat_add(transpose(X), X))
    sym = matrix_relation_dim(k, lambda X: mat_sub(transpose(X), X))
    return anti + sym


def generate_group(generators, size: int) -> frozenset:
    """Closure of the generators under composition (the package walks
    only orbits of the generators and builds no group)."""
    ident = identity_perm(size)
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        p = frontier.pop()
        for g in gens:
            nxt = compose(g, p)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


@lru_cache(maxsize=None)
def group_of(model) -> frozenset:
    """The model's group, closed here rather than read from the model."""
    return generate_group(model.generators + (model.conj,), model.size)


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def quotient_model(model, blocks):
    """The induced model on a block system, plus point -> block index."""
    lookup = {}
    for idx, block in enumerate(blocks):
        for x in block:
            lookup[x] = idx

    def push(perm):
        return tuple(lookup[perm[min(block)]] for block in blocks)

    gens = tuple(push(g) for g in model.generators)
    conj = push(model.conj)
    return GaloisModel(generators=gens, conj=conj, size=len(blocks)), lookup


def all_subgroups(model):
    """Every subgroup of the model's group, by closing under one more
    element at a time from the trivial group."""
    ident = identity_perm(model.size)
    elements = sorted(group_of(model))
    found = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        sub = frontier.pop()
        for x in elements:
            if x in sub:
                continue
            bigger = generate_group(tuple(sub) + (x,), model.size)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=len)


def subgroup_block_systems(model):
    """Set of all proper nontrivial block systems, each a tuple of blocks
    sorted by least element.

    Systems correspond to subgroups between the stabilizer of a point
    and the full group; the block of the base point is its orbit under
    the intermediate subgroup.
    """
    base = 0
    stab = {p for p in group_of(model) if p[base] == base}
    systems = set()
    for sub in all_subgroups(model):
        if not stab <= sub:
            continue
        block = frozenset(p[base] for p in sub)
        if len(block) in (1, model.size):
            continue
        blocks = {frozenset(p[x] for x in block) for p in group_of(model)}
        if sum(len(b) for b in blocks) != model.size:
            raise AssertionError("block translates failed to partition")
        systems.add(tuple(sorted(blocks, key=min)))
    return systems


def kubota_ranks(model, theta) -> tuple[int, int]:
    """(raw, reduced) Kubota ranks by two Fraction eliminations: of the
    0/1 indicator rows of the group translates of theta, and of the rows
    2t - 1 (translate minus its conjugate)."""
    translates = frozenset(
        frozenset(p[x] for x in theta.theta) for p in group_of(model)
    )
    return translate_ranks(model.size, translates)


@lru_cache(maxsize=None)
def translate_ranks(size: int, translates: frozenset) -> tuple[int, int]:
    """(raw, reduced) ranks of a set of translates, by Fraction."""
    # the types of one Galois orbit share their translates, hence the cache
    raw = [[int(i in t) for i in range(size)] for t in translates]
    reduced = [[2 * v - 1 for v in row] for row in raw]
    return fraction_rank(raw), fraction_rank(reduced)


def is_union_of_blocks(systems, theta) -> bool:
    """True when the set theta is a union of blocks of some system."""
    return any(
        all(b <= theta or not b & theta for b in blocks) for blocks in systems
    )


def weight_root_coordinates(rs, weight) -> list[Fraction]:
    """Coordinates c with lambda = sum c_i alpha_i, by Gauss-Jordan over
    Fraction on c * M = lambda (M = Cartan matrix)."""
    l = rs.rank
    aug = [
        [Fraction(rs.cartan[i][j]) for i in range(l)] + [Fraction(weight.coords[j])]
        for j in range(l)
    ]
    for col in range(l):
        pivot = next(r for r in range(col, l) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(l):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][l] for i in range(l)]


def opposition(kind: str, rank: int) -> tuple[int, ...]:
    """The involution iota with -w0(alpha_i) = alpha_iota(i), 0-based, from
    the Dynkin diagram (Bourbaki, plates I-VI): the flip of A_l, the swap
    of the fork of D_l for odd l, the flip of E6, and the identity
    otherwise."""
    perm = list(range(rank))
    if kind == "A":
        perm.reverse()
    elif kind == "D" and rank % 2 == 1:
        perm[-2], perm[-1] = perm[-1], perm[-2]
    elif (kind, rank) == ("E", 6):
        perm = [5, 1, 4, 3, 2, 0]
    return tuple(perm)


def dual_weight(rs, weight):
    """The highest weight -w0(lambda) of the dual representation, by the
    package's dominantization of -lambda; ``opposition`` checks it."""
    rootsys._check_length(rs, weight)
    return rootsys.Weight(rootsys._negated_dominant(rs, weight)[0])


def oracle_weight_length(rs, weight) -> Fraction:
    """min over i of c_i + c_iota(i) from the rational coordinates."""
    coords = weight_root_coordinates(rs, weight)
    iota = opposition(rs.kind, rs.rank)
    return min(coords[i] + coords[iota[i]] for i in range(rs.rank))


@lru_cache(maxsize=None)
def minuscule_scan(kind: str, rank: int):
    """(index, dimension, duality) of each minuscule weight, found by the
    definitional test on every fundamental weight and evaluated by the
    Weyl formula and the coroot-sum parity."""
    rs = rootsys.root_system(kind, rank)
    return tuple(
        (w.coords.index(1) + 1, rootsys.rep_dimension(rs, w), rootsys.autoduality(rs, w))
        for w in rootsys.minuscule_weights(rs)
    )


def scan_admissible_factors(dim: int, duality: str, max_rank: int):
    """(kind, rank, coords) of every classical minuscule pair of the given
    dimension and duality found by ``minuscule_scan``, cut by the
    summand constraints (see ``scan_admissible_table``)."""
    return list(scan_admissible_table(max_rank).get((dim, duality), ()))


@lru_cache(maxsize=None)
def scan_admissible_table(max_rank: int):
    """(dim, duality) -> sorted (kind, rank, coords) hits, from one
    ``minuscule_scan`` of every classical system up to max_rank, cut by
    the summand constraints: self-dual forces even dimension, and in
    dimension 2 mod 4 only the standard C_l (symplectic) or D_l
    (orthogonal) with l odd, or the middle wedge of A_{2^k-1} with
    k >= 3 (orthogonal), survive."""
    table = {}
    for kind, lo in (("A", 1), ("B", 2), ("C", 1), ("D", 3)):
        for l in range(lo, max_rank + 1):
            for index, dim, duality in minuscule_scan(kind, l):
                if duality != rootsys.NON_SELF_DUAL and dim % 2 == 1:
                    continue
                if duality != rootsys.NON_SELF_DUAL and dim % 4 == 2:
                    standard = "C" if duality == rootsys.SYMPLECTIC else "D"
                    if not (
                        (kind == standard and l % 2 == 1 and index == 1)
                        or (
                            duality == rootsys.ORTHOGONAL
                            and kind == "A"
                            and l >= 7
                            and ((l + 1) & l) == 0
                            and index == (l + 1) // 2
                        )
                    ):
                        continue
                coords = tuple(int(i == index - 1) for i in range(l))
                table.setdefault((dim, duality), []).append((kind, l, coords))
    return {key: tuple(sorted(hits)) for key, hits in table.items()}


def pair_coroot(rs, weight, beta) -> int:
    """<weight, beta^vee> = 2(weight, beta)/(beta, beta) for a root beta,
    read from the package's coroots."""
    if beta in rs._coroots:
        vec = rs._coroots[beta]
    else:  # a negative root: (-beta)^vee = -(beta^vee)
        vec = tuple(map(neg, rs._coroots[tuple(map(neg, beta))]))
    return sum(c * vec[j] for j, c in weight.support)


def dense_positive_roots(rs) -> dict[tuple[int, ...], int]:
    """Each positive root with its squared length, by closing the simple
    roots under every s_i (pairings summed over all Cartan columns) and
    keeping the images that stay positive."""
    l = rs.rank
    lengths = {tuple(int(i == j) for j in range(l)): rs.norms[i] for i in range(l)}
    frontier = list(lengths)
    while frontier:
        beta = frontier.pop()
        for i in range(l):
            pairing = sum(b * rs.cartan[j][i] for j, b in enumerate(beta))
            img = list(beta)
            img[i] -= pairing
            img = tuple(img)
            if img[i] >= 0 and img not in lengths:
                lengths[img] = lengths[beta]
                frontier.append(img)
    return lengths


def norm_coroots(rs, lengths) -> dict[tuple[int, ...], tuple[int, ...]]:
    """beta -> beta^vee for the positive roots (with their squared lengths),
    v_j = c_j |alpha_j|^2 / |beta|^2."""
    out = {}
    for beta, size in lengths.items():
        scaled = [c * d for c, d in zip(beta, rs.norms)]
        assert all(x % size == 0 for x in scaled), (rs.name, beta)
        out[beta] = tuple(x // size for x in scaled)
    return out


def dense_pairing_sum(coroots, weight) -> int:
    """<lambda, 2 rho^vee> as the sum of the pairings with every positive
    coroot; its parity is the autoduality sign of a self-dual weight."""
    return sum(
        sum(w * v for w, v in zip(weight.coords, vec)) for vec in coroots.values()
    )


def dense_autoduality(rs, coroots, weight) -> str:
    """Self-dual when -lambda dominantizes back to lambda; then orthogonal
    or symplectic by the parity of the pairing sum."""
    negated = tuple(-c for c in weight.coords)
    if dense_dominant_representative(rs, negated)[0] != weight.coords:
        return rootsys.NON_SELF_DUAL
    if dense_pairing_sum(coroots, weight) % 2:
        return rootsys.SYMPLECTIC
    return rootsys.ORTHOGONAL


def dense_dominant_representative(rs, mu):
    """(dominant weight, shift) by reflecting at the first negative
    coordinate, each reflection a full row of the Cartan matrix."""
    current = tuple(mu)
    shift = [0] * rs.rank
    while True:
        i = next((j for j, c in enumerate(current) if c < 0), None)
        if i is None:
            return current, tuple(shift)
        c = current[i]
        shift[i] -= c
        current = tuple(m - c * rs.cartan[i][j] for j, m in enumerate(current))


def _sieve(n: int) -> bytearray:
    """flags[i] == 1 exactly when i <= n is prime (Eratosthenes), n >= 1."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, from a plain sieve over 0..n that shares nothing
    with the package's odd-only sieve."""
    if n < 2:
        return []
    return list(itertools.compress(range(n + 1), _sieve(n)))


def central_binomial_mod4_direct(z: int) -> int:
    """C(2z, z) mod 4 by full big-integer expansion, against the package's
    carry count."""
    if z < 1:
        raise ValueError("z must be positive")
    return math.comb(2 * z, z) % 4


def abelian_case(ap) -> tuple:
    """Which hypothesis family an ``AbelianProfile`` meets: 1 (types
    I/II/III), 2 (type IV with a balanced imaginary quadratic field, and
    L/Q Galois when [L:Q] = 4p), or None; with the ledger's description.
    The first balanced degree-2 subfield of the inventory decides."""
    if ap.endo.albert_type in ("I", "II", "III"):
        return 1, f"type {ap.endo.albert_type} endomorphism algebra"
    profile = ap.hodge_profile()
    quad = next(
        (s for s in ap.subfields if s.deg_E == 2 and su_constraint(profile, s)),
        None,
    )
    if quad is None:
        return None, "type IV without a balanced imaginary quadratic field"
    if ap.endo.deg_L == 4 * ap.p and quad.galois_L is not True:
        return None, (
            "type IV with [L:Q]=4p but the Galois hypothesis is not affirmed"
        )
    return 2, "type IV with a balanced imaginary quadratic field in W(A)"


def _catalog_m(p) -> int:
    return 2 * p.n // p.endo.deg_L


def _catalog_disc(p):
    return "disc_one" if p.endo.disc_one is None else p.endo.disc_one


def _catalog_traces(p, test):
    return "cm_traces" if p.endo.cm_traces is None else test(p.endo.cm_traces)


# The exceptional-case catalog, entry by entry in its order: (parities,
# predicate).  A predicate answers True, False or the name of the missing
# datum, and tests the Albert type itself.
CATALOG_SCAN = (
    ("odd", lambda p: p.endo.albert_type == "III" and _catalog_m(p) == 1),
    (
        "odd",
        lambda p: p.endo.albert_type == "III" and _catalog_m(p) == 2
        and _catalog_disc(p),
    ),
    ("even", lambda p: p.endo.albert_type == "II" and _catalog_m(p) == 1),
    (
        "even",
        lambda p: p.endo.albert_type == "II" and _catalog_m(p) == 2
        and _catalog_disc(p),
    ),
    (
        "odd even",
        lambda p: p.endo.albert_type == "IV"
        and not (_catalog_m(p) == 1 and p.endo.q == 1)
        and _catalog_traces(p, lambda ts: sum(a * b for a, b in ts) == 0),
    ),
    (
        "odd even",
        lambda p: p.endo.albert_type == "IV" and _catalog_m(p) == 2 and p.endo.q == 1
        and _catalog_traces(p, lambda ts: all(a == b == 1 for a, b in ts)),
    ),
    (
        "odd even",
        lambda p: p.endo.albert_type == "IV" and _catalog_m(p) == 1 and p.endo.q == 2
        and _catalog_traces(p, lambda ts: all(a == b == 1 for a, b in ts)),
    ),
    ("even", lambda p: p.endo.albert_type == "I" and _catalog_m(p) == 2),
    (
        "even",
        lambda p: p.endo.albert_type == "I" and _catalog_m(p) == 4
        and _catalog_disc(p),
    ),
)


def catalog_scan(p):
    """(parity, index, missing) of the catalog hit of a valid profile, by a
    scan of every entry of its parity: the first definite hit wins (missing
    None), else the first conditional one; None when no entry matches."""
    parity = "odd" if p.weight % 2 else "even"
    entries = [pred for ps, pred in CATALOG_SCAN if parity in ps.split()]
    pending = None
    for index, pred in enumerate(entries, 1):
        verdict = pred(p)
        if verdict is True:
            return parity, index, None
        if isinstance(verdict, str) and pending is None:
            pending = parity, index, verdict
    return pending
