"""Galois-theoretic CM-type machinery on abstract permutation models.

A model is its generators: permutations of the 2g embeddings of a CM
field that act transitively, with the central free involution playing
the role of complex conjugation.  CM types are half-systems.  No engine
builds the group: each orbit, of points or of a type's translates, is a
breadth-first search over the generators (Seress, Permutation Group
Algorithms, ch. 2; Holt, Eick and O'Brien, Handbook of Computational
Group Theory, sec. 4.1), refused past MAX_ORBIT items.

* Kubota ranks are the ranks of the span of a type's group translates,
  raw and reduced by conjugation (reduced = raw - 1).  On a regular
  abelian model they are counted by characters: the span is the ideal
  Q[G]·1_theta, whose dimension is the number of characters that do not
  vanish on theta, and an odd character vanishes exactly when a
  cyclotomic polynomial divides an integer polynomial (Kubota, Trans.
  AMS 118 (1965); Ribet, Mém. SMF 2 (1980)).  On a regular dihedral
  model D_n the same ideal is counted by the irreducible
  representations, each weighted by its degree: those odd under the
  central conj = r^(n/2) have degree at most 2, and the rank of a 2 x 2
  matrix over Q(zeta_d) is read from three such divisibilities (Serre,
  Linear Representations of Finite Groups, §5.3 and §6.2).  Every other
  model, and `cm rank --invariants`, eliminates the translate matrix by
  Bareiss.
* Primitivity asks whether theta is a union of blocks of a proper block
  system.  On a regular model the systems are the left-coset partitions
  of the subgroups, so theta is induced exactly when some element other
  than 1 fixes it from the right.  On an abelian model the characters
  that do not vanish on theta give that stabilizer: it is the
  intersection of their kernels.  On a dihedral model the rotation and
  reflection parts of theta, as 0/1 words on Z/n, give it by comparing
  their cyclic shifts.  Every other model runs union-find, which finds
  the finest system joining two points (Atkinson, Math. Comp. 29
  (1975)); a run from the least point of theta stops as soon as it joins
  a point of theta to one outside.  A model decides its route once: its
  cached slot `_kubota` holds its table's reader, or None.

A scan computes ranks and primitivity once per Galois orbit of CM types,
since both are invariant under the group.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from itertools import combinations, compress, product
from operator import mul, sub
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence

from .intlinalg import integer_rank
from .numth import _is_int, _require_int, _require_ints, is_prime

Perm = tuple[int, ...]

# tankeev_scan enumerates 2^g CM types and its time and memory about
# double per step in g.  `cm scan` at g = 18 on a 2-vCPU Xeon VM: cyclic:36
# 3.7-4.4 s and abelian:6,6 4.7 s (characters), dihedral:18 4.4-5.5 s
# (representations), and Z2 x D18 on 36 points, which has no table,
# 25.6-27.5 s (Bareiss and union-find), each about 225 MB peak RSS.  The
# models without a table and the memory set the cap: at g = 19 the Bareiss
# model Z2 x D19 on 38 points takes 74 s and 452 MB.
SCAN_MAX_G = 18

# Largest embedding set a model is built on.  The slowest query is
# `cm rank --invariants`, the Smith form of the translate matrix: 19-29 s
# for random CM types of cyclic:256, dihedral:128 and abelian:2^8 on a
# 2-vCPU Xeon VM, and 111 s for cyclic:300.
MAX_DEGREE = 256

# Largest orbit a model walks: _orbit refuses as soon as it holds more
# items.  The engines walk points and a type's translates; the group is an
# orbit too, walked only when a caller reads `elements`.  An orbit is never
# larger than the group, so every model of at most this order is answered.
# On a 2-vCPU Xeon VM, the 2^17 translates of a type of Z2 wr S17 on 34
# points take 0.7-1.2 s and 24 MB peak RSS, their Bareiss rank (`cm rank`)
# 14 s and 114 MB, and their Smith form (`--invariants`) 27 s and 112 MB;
# refusing a type of Z2 wr S128 on 256 points takes 2.1 s and 27 MB.
MAX_ORBIT = 1 << 17


class InvalidModelError(ValueError):
    pass


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def _orbit(seed: Hashable, moves: Sequence[Callable]) -> list:
    """The orbit of seed under the moves, in breadth-first order from
    seed, refused as soon as it holds more than MAX_ORBIT items (Seress,
    Permutation Group Algorithms, ch. 2)."""
    seen = {seed}
    reached = [seed]
    for x in reached:
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                reached.append(y)
                if len(reached) > MAX_ORBIT:
                    raise InvalidModelError(
                        f"orbit over the cap MAX_ORBIT = {MAX_ORBIT} for CM models"
                    )
    return reached


def _check_degree(size: int) -> None:
    if _require_int(size, "size") > MAX_DEGREE:
        raise InvalidModelError(
            f"degree {size} is over the cap MAX_DEGREE = {MAX_DEGREE} for CM models"
        )


class _ModelFields(NamedTuple):
    generators: tuple[Perm, ...]
    conj: Perm
    size: int


class GaloisModel(_ModelFields):
    """Transitive group on the embedding set with central free involution,
    held as its generators.  No __slots__: ``elements`` and ``_kubota``
    are cached in the instance dict."""

    def __new__(cls, generators, conj, size):
        _check_degree(size)
        if size < 2 or size % 2 != 0:
            raise InvalidModelError("embedding set must have even size >= 2")
        gens = tuple(tuple(g) for g in generators)
        conj = tuple(conj)
        # the engines assume permutations: another map can stall the order
        # count in _odd_characters or inflate a rank, so none is coerced
        points = list(range(size))
        for perm in gens + (conj,):
            if not all(map(_is_int, perm)) or sorted(perm) != points:
                raise InvalidModelError(f"{perm} is not a permutation of 0..{size - 1}")
        if compose(conj, conj) != identity_perm(size):
            raise InvalidModelError("conjugation must have order 2")
        if any(conj[i] == i for i in range(size)):
            raise InvalidModelError("conjugation must act freely")
        # commuting with the generators is commuting with the whole group
        if any(compose(conj, g) != compose(g, conj) for g in gens):
            raise InvalidModelError("conjugation must be central")
        if len(_orbit(0, [g.__getitem__ for g in gens + (conj,)])) != size:
            raise InvalidModelError("action must be transitive")
        return tuple.__new__(cls, (gens, conj, size))

    @property
    def g(self) -> int:
        return self.size // 2

    @cached_property
    def elements(self) -> frozenset[Perm]:
        """The group: the orbit of the identity under left multiplication
        by the generators.  No engine reads it."""
        moves = [partial(compose, g) for g in self.generators + (self.conj,)]
        return frozenset(_orbit(identity_perm(self.size), moves))

    @cached_property
    def _kubota(self) -> Optional[Callable[[frozenset[int]], tuple[int, bool]]]:
        """The reader theta -> (raw rank, primitive), bound on first read
        to the model's table: the odd characters of a regular abelian
        model (see _odd_characters), the odd representations of a regular
        dihedral one (see _dihedral_representations), or None when the
        model has neither."""
        characters = _odd_characters(self)
        if characters is not None:
            return partial(_by_characters, characters)
        table = _dihedral_representations(self)
        return None if table is None else partial(_by_representations, *table)

    @property
    def order(self) -> int:
        return len(self.elements)

    def conjugate_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.conj) if i < j]


def cyclic_model(size: int) -> GaloisModel:
    """Regular action of Z/size with conjugation the shift by size/2, the
    unique central free involution of the cycle."""
    return abelian_model([size])


def abelian_model(factors: Sequence[int]) -> GaloisModel:
    """Regular action of a product of cyclic groups.  The conjugation is
    the element of order 2 in the last even factor; for another one,
    pass these generators and the wanted conj to GaloisModel (on the
    command line, give it with --iota)."""
    dims = _require_ints(list(factors), "cyclic factor")
    if any(d < 2 for d in dims):
        raise InvalidModelError("cyclic factors must be >= 2")
    size = math.prod(dims)
    _check_degree(size)
    if size % 2:
        raise InvalidModelError("group order must be even")

    def shift(axis: int, step: int) -> Perm:
        # point i has coordinate (i // stride) % d on the axis
        stride = math.prod(dims[axis + 1 :])
        span = stride * dims[axis]
        return tuple(i - i % span + (i + step * stride) % span for i in range(size))

    # default conjugation: add the order-2 element on the last even axis,
    # which exists since the order is even
    axis = max(a for a, d in enumerate(dims) if d % 2 == 0)
    gens = tuple(shift(a, 1) for a in range(len(dims)))
    return GaloisModel(generators=gens, conj=shift(axis, dims[axis] // 2), size=size)


def dihedral_model(n: int) -> GaloisModel:
    """Regular action of the dihedral group of order 2n (n even, so the
    central rotation by n/2 serves as conjugation).  Point a + n*b stands
    for rotation^a * flip^b."""
    if _require_int(n, "n") % 2 != 0:
        raise InvalidModelError("dihedral CM model needs n even")
    _check_degree(2 * n)
    rot, flip, conj = _dihedral_perms(n)
    return GaloisModel(generators=(rot, flip), conj=conj, size=2 * n)


@lru_cache(maxsize=None)
def _dihedral_perms(n: int) -> tuple[Perm, Perm, Perm]:
    """Left multiplication by r, s and r^(n/2) on D_n, the point a + n*b
    standing for r^a s^b."""
    size = 2 * n

    def index(a: int, b: int) -> int:
        return (a % n) + n * (b % 2)

    # left multiplication by r: r * r^a s^b = r^(a+1) s^b
    rot = tuple(index(i % n + 1, i // n) for i in range(size))
    # left multiplication by s: s * r^a s^b = r^(-a) s^(b+1)
    flip = tuple(index(-(i % n), i // n + 1) for i in range(size))
    conj = tuple(index(i % n + n // 2, i // n) for i in range(size))
    return rot, flip, conj


class _TypeFields(NamedTuple):
    theta: frozenset[int]


class CMType(_TypeFields):
    """A half-system: one embedding from each conjugate pair.  Every entry
    must be an int (a bool is refused too) and appear once; nothing is
    coerced."""

    __slots__ = ()

    def __new__(cls, theta):
        theta = _require_ints(tuple(theta), "CM type entry")
        points = frozenset(theta)
        if len(points) < len(theta):
            seen: set[int] = set()
            repeat = next(x for x in theta if x in seen or seen.add(x))
            raise InvalidModelError(f"repeated embedding {repeat}")
        return tuple.__new__(cls, (points,))

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.theta))

    def to_json(self) -> list[int]:
        return list(self.sorted())


def check_cm_type(model: GaloisModel, theta: CMType) -> None:
    t = theta.theta
    if len(t) != model.g:
        raise InvalidModelError(f"CM type must have size g={model.g}")
    if any(not 0 <= x < model.size for x in t):
        raise InvalidModelError(f"CM type entries must lie in 0..{model.size - 1}")
    image = {model.conj[x] for x in t}
    if image & t:
        raise InvalidModelError("CM type meets its conjugate")
    if image | t != set(range(model.size)):
        raise InvalidModelError("CM type and conjugate must cover everything")


def _half_systems(model: GaloisModel) -> Iterator[tuple[int, ...]]:
    """The sorted half-systems, one at a time, in lexicographic order.

    This is a depth-first search over the points that tries "include x"
    before "exclude x": the product over the conjugate pairs (i, j),
    i < j, in order of i, with i before j.  Two types first differ at
    the smaller point of their first differing pair, and the one holding
    it sorts first.
    """
    for choice in product(*model.conjugate_pairs()):
        yield tuple(sorted(choice))


def enumerate_cm_types(model: GaloisModel) -> list[CMType]:
    """All 2^g half-systems, in canonical order."""
    return [CMType(frozenset(t)) for t in _half_systems(model)]


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _image(bits: list[int], mask: int) -> int:
    # the set bits of mask, lowest first, select the bits of their images
    return sum(compress(bits, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def _translates(model: GaloisModel, mask: int) -> list[int]:
    """The distinct group translates of a type, as bitmasks, mask first.
    conj is central and acts freely, so it maps a half-system to its
    complement and costs no permutation."""
    moves = [partial(_image, [1 << y for y in g]) for g in model.generators]
    moves.append(((1 << model.size) - 1).__xor__)
    return _orbit(mask, moves)


def _translate_rows(model: GaloisModel, masks: list[int]) -> list[list[int]]:
    """The 0/1 indicator rows of translates given as bitmasks."""
    return [[m >> i & 1 for i in range(model.size)] for m in masks]


def translate_lattice(model: GaloisModel, theta: CMType) -> list[list[int]]:
    """Indicator rows of the distinct group translates of the type."""
    check_cm_type(model, theta)
    return _translate_rows(model, _translates(model, _mask(theta.theta)))


def _poly_divmod(poly: Sequence[int], divisor: Sequence[int]):
    """Quotient and remainder of an integer polynomial by a monic one,
    both given constant term first."""
    deg = len(divisor) - 1
    terms = [(i, c) for i, c in enumerate(divisor[:deg]) if c]
    rem = list(poly)
    quotient = [0] * max(len(rem) - deg, 0)
    for top in range(len(rem) - 1, deg - 1, -1):
        c = quotient[top - deg] = rem[top]
        if c:
            for i, ci in terms:
                rem[top - deg + i] -= c * ci
    return quotient, rem[:deg]


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d, constant term first: x^d - 1 over Phi_e for each e | d, e < d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_divmod(poly, _cyclotomic(e))[0]
    return tuple(poly)


def _odd_characters(model: GaloisModel):
    """Kubota's data for a regular abelian model, None for any other.

    The model qualifies when the generators commute, and the product of
    their orders is the degree with every point reached from 0 by the
    generators alone.  Then they generate a transitive abelian group H,
    which acts regularly, so |H| is the degree and prod Z/ord(g_i) is H.
    conj commutes with every generator, so it lies in the centralizer of
    H, which for a regular abelian group is H itself.  Hence G = H and
    |G| is the degree, with no closure to count it.  The point e is
    prod g_i^e_i (0), and the character k sends it to
    zeta_N^(sum k_i e_i N/ord(g_i)), N the exponent of G.  The result
    has one entry per Galois orbit {k^j : j prime to d} of odd
    characters (value -1 on conj), d their order: the orbit size, d,
    Phi_d, the exponent of zeta_d at each point, and the kernel as a
    bitmask, the points with exponent 0 (Galois-conjugate characters
    share it).
    """
    gens, size = model.generators, model.size
    if any(compose(g, h) != compose(h, g) for g, h in combinations(gens, 2)):
        return None
    orders = []
    for g in gens:
        n, x = 1, g[0]
        while x != 0:
            n, x = n + 1, g[x]
        orders.append(n)
    if math.prod(orders) != size:
        return None
    # BFS tree from 0 over the generators: each point's parent and step
    parent, step, reached = [-1] * size, [0] * size, [0]
    parent[0] = 0
    for x in reached:
        for i, g in enumerate(gens):
            if parent[g[x]] < 0:
                parent[g[x]], step[g[x]] = x, i
                reached.append(g[x])
    if len(reached) != size:
        return None
    conj = [0] * len(gens)
    y = model.conj[0]
    while y:
        conj[step[y]] += 1
        y = parent[y]
    exponent = math.lcm(*orders)
    seen: set[tuple[int, ...]] = set()
    found = []
    for k in product(*map(range, orders)):
        if k in seen:
            continue
        steps = [ki * (exponent // n) for ki, n in zip(k, orders)]
        unit = math.gcd(exponent, *steps)
        d = exponent // unit
        orbit = {
            tuple(j * ki % n for ki, n in zip(k, orders))
            for j in range(1, d + 1)
            if math.gcd(j, d) == 1
        }
        seen |= orbit
        if 2 * sum(s * e for s, e in zip(steps, conj)) % (2 * exponent) != exponent:
            continue
        exps = [0] * size
        for y in reached[1:]:
            exps[y] = (exps[parent[y]] + steps[step[y]] // unit) % d
        kernel = _mask(y for y, e in enumerate(exps) if e == 0)
        found.append((len(orbit), d, _cyclotomic(d), exps, kernel))
    return found


def _dihedral_representations(model: GaloisModel):
    """The odd representations of a regular dihedral model, None for any
    other.

    The model qualifies when it is dihedral_model(n) relabelled: its
    generators are (r, s), the points r^a s^b (0), 0 <= a < n and b in
    {0, 1}, are all distinct, and r, s and conj act on them as left
    multiplication by r, s and r^(n/2).  G is then D_n acting regularly,
    n = size/2 even, with conj the central r^(n/2).  Its odd irreducible
    representations fall into one Galois orbit for each d | n with n/d
    odd (see kubota_rank).  It returns n, label[r^a s^b (0)] = a + n*b,
    and the orbits as (d, Phi_d).
    """
    n, gens = model.size // 2, model.generators
    if len(gens) != 2 or n % 2:
        return None
    r, s = gens
    point = []  # point[a + n*b] = r^a s^b (0)
    for x in (0, s[0]):
        for _ in range(n):
            point.append(x)
            x = r[x]
    if len(set(point)) < model.size or any(
        [perm[x] for x in point] != [point[i] for i in move]
        for perm, move in zip((r, s, model.conj), _dihedral_perms(n))
    ):
        return None
    label = [0] * model.size
    for i, x in enumerate(point):
        label[x] = i
    orbits = [(d, _cyclotomic(d)) for d in range(2, n + 1) if n % d == 0 and n // d % 2]
    return n, label, orbits


def _correlation(word) -> list[int]:
    """w(x) w(1/x) mod x^n - 1 for the n coefficients of w, n even: the
    coefficient of x^e is sum_a w_a w_(a+e), and that of x^(n-e) is the
    same."""
    half = [sum(map(mul, word, word[e:] + word[:e])) for e in range(len(word) // 2 + 1)]
    return half + half[-2:0:-1]


def _vanishes(word, d: int, phi: tuple[int, ...]) -> bool:
    """Phi_d divides the polynomial with the coefficients word, d | len(word):
    word is read mod x^d - 1, which Phi_d divides."""
    return not any(_poly_divmod([sum(word[e::d]) for e in range(d)], phi)[1])


def _by_representations(n, label, orbits, theta: frozenset[int]) -> tuple[int, bool]:
    """(raw rank, primitive) of theta on a regular dihedral model: each
    odd orbit adds phi(d) times the rank of its 2 x 2 matrix, and theta is
    primitive when no nontrivial element fixes it from the right (see
    kubota_rank, is_primitive)."""
    word = bytearray(2 * n)
    for x in theta:
        word[label[x]] = 1
    # theta's rotations and reflections as 0/1 words indexed by a in Z/n
    rotations, reflections = word[:n], word[n:]
    # A(x)A(1/x) - B(x)B(1/x) mod x^n - 1, which x^d - 1 divides
    det = list(map(sub, _correlation(rotations), _correlation(reflections)))
    raw = 1
    for d, phi in orbits:
        if not _vanishes(det, d, phi):
            raw += 2 * (len(phi) - 1)
        elif not (_vanishes(rotations, d, phi) and _vanishes(reflections, d, phi)):
            raw += len(phi) - 1
    # the least c > 0 with w + c = w for each word: it divides n, and
    # those c are its multiples
    cycled = rotations * 2
    p0 = cycled.find(rotations, 1)
    p1 = (reflections * 2).find(reflections, 1)
    induced = reflections in cycled or math.lcm(p0, p1) < n
    return raw, not induced


def _by_characters(characters, theta: frozenset[int]) -> tuple[int, bool]:
    """(raw rank, primitive) of theta from Kubota's table, in one pass:
    each odd orbit that does not vanish on theta adds its size to the
    rank and its kernel to the stabilizer, and theta is primitive when
    the stabilizer is the point 0 alone (see kubota_rank, is_primitive)."""
    raw, stabilizer = 1, -1  # -1: every point
    for count, d, phi, exps, kernel in characters:
        coeffs = [0] * d
        for a in theta:
            coeffs[exps[a]] += 1
        if any(_poly_divmod(coeffs, phi)[1]):
            raw += count
            stabilizer &= kernel
    return raw, stabilizer == 1


def kubota_rank(model: GaloisModel, theta: CMType) -> tuple[int, int]:
    """(raw, reduced) ranks of the translate span of the type.

    raw spans the indicator vectors of all group translates of theta in
    the free module on the embeddings; reduced spans the differences
    translate - conjugate(translate) = 2 translate - 1, i.e. the image in
    the quotient by sigma + conj(sigma) = 0.  conj lies in G, so with
    every translate t its complement 1 - t is a translate and raw
    contains the all-ones vector: raw = span(1, 2t - 1).  The rows 2t - 1
    are odd under conj and the all-ones vector is even, so raw is always
    reduced + 1.

    On a regular abelian model (see _odd_characters) the points are G
    and the span is the ideal Q[G]·1_theta.  Over C it is the sum of the
    character lines chi with chi(theta) = sum_{a in theta} chi(a) != 0.
    The trivial character gives g; an even chi != 1 gives 0, since
    theta and conj(theta) split G and chi(conj(theta)) = chi(theta).  So
    raw = 1 + #{odd chi : chi(theta) != 0}.  chi(theta) is P(zeta_d)
    for the integer polynomial P = sum x^(exponent of a), d the order of
    chi; it vanishes exactly when Phi_d divides P, for the whole Galois
    orbit of chi at once.  This is Kubota's rank formula (Kubota, Trans.
    AMS 118 (1965); Ribet, Mém. SMF 2 (1980)).

    On a regular dihedral model (see _dihedral_representations) the
    points are D_n = <r, s | r^n = s^2 = 1, s r s = r^-1>, n even, acted
    on by left multiplication, and conj is the central r^(n/2).  The span
    is the left ideal C[G]·X, X = sum_{x in theta} x.  C[G] is the
    product of the End(V_rho) over the irreducible rho, so the ideal has
    dimension sum_rho dim rho · rank rho(X) (Serre, Linear
    Representations of Finite Groups, §6.2).  Each rho sends conj to a
    sign.  An even rho != 1 has rho(X) = 0, since rho(conj X) = rho(X)
    and X + conj X is the sum of G, which rho kills; the trivial rho
    gives 1.  The irreducible representations of D_n (Serre, §5.3) are
    four of degree 1, r -> ±1 and s -> ±1, and rho_k for 0 < k < n/2,
    r -> diag(w^k, w^-k) and s -> [[0, 1], [1, 0]], w = exp(2 pi i/n).
    Take rho_(n/2), given by the same formulas, with them: it is the sum
    of the two characters with r -> -1, and the rank of rho_(n/2)(X)
    counts those of the two that do not vanish on X.  With zeta = w^k of
    order d = n/gcd(n, k), rho_k(conj) = zeta^(n/2) is -1 exactly when
    n/d is odd; for d = 2 that is n = 2 mod 4, where the characters with
    r -> -1 are odd.  As rho_k(r^a) = diag(zeta^a, zeta^-a) and
    rho_k(r^a s) = [[0, zeta^a], [zeta^-a, 0]],

        rho_k(X) = [[A(zeta), B(zeta)], [B(zeta^-1), A(zeta^-1)]]

    for A = sum_{r^a in theta} x^a and B = sum_{r^a s in theta} x^a.  For
    each d | n with n/d odd, the rho_k with w^k of order d are k =
    (n/d) j, j prime to d, up to k ~ -k: phi(d)/2 representations of
    degree 2 (for d = 2, the one rho_(n/2)), Galois conjugate over Q, so
    their matrices share one rank and the orbit adds phi(d) times it.
    The matrix is 0 exactly when A(zeta) = B(zeta) = 0 (the values at
    zeta^-1 are their complex conjugates), i.e. Phi_d divides A and B.
    It has rank at most 1 exactly when its determinant A(zeta)A(zeta^-1)
    - B(zeta)B(zeta^-1) vanishes, i.e. Phi_d divides A(x)A(1/x) -
    B(x)B(1/x) read mod x^n - 1, which Phi_d divides.  So raw = 1 + the
    sum over those d of phi(d) times the rank.

    Every other model (not regular, neither abelian nor dihedral, or
    with conj outside the generators' group) takes one fraction-free
    Bareiss elimination of the 0/1 translate rows.
    """
    check_cm_type(model, theta)
    if model._kubota is None:
        masks = _translates(model, _mask(theta.theta))
        raw = integer_rank(_translate_rows(model, masks))
    else:
        raw = model._kubota(theta.theta)[0]
    return raw, raw - 1


# ---------------------------------------------------------------------------
# Block systems and primitivity
# ---------------------------------------------------------------------------


def _block_labels(
    model: GaloisModel, base: int, points, boundary: Optional[frozenset[int]] = None
) -> Optional[list[int]]:
    """Finest invariant partition with base and the given points in one
    block, as a union-find root per point (Atkinson's algorithm: once the
    classes of a and b merge, those of g(a) and g(b) must merge for every
    generator g; the merged pairs generate the relation, so checking
    their images is enough for invariance).

    With a boundary set, return None as soon as a pair to be joined has
    one point inside it and one outside: the partition then does not
    have the boundary as a union of blocks.
    """
    parent = list(range(model.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    gens = model.generators + (model.conj,)
    pending = [(base, y) for y in points]
    while pending:
        a, b = pending.pop()
        if boundary is not None and (a in boundary) != (b in boundary):
            return None
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            pending.extend((g[ra], g[rb]) for g in gens)
    return [find(x) for x in range(model.size)]


def _blocks(labels: list[int]) -> tuple[frozenset[int], ...]:
    """The classes of a union-find run, by least element: the base block
    first."""
    classes: dict[int, list[int]] = {}
    for x, label in enumerate(labels):
        classes.setdefault(label, []).append(x)
    return tuple(map(frozenset, classes.values()))


def _minimal_systems(model: GaloisModel) -> list[frozenset[int]]:
    """Base blocks of the proper systems that are the finest ones joining
    0 to some other point."""
    found: dict[frozenset[int], None] = {}
    for x in range(1, model.size):
        block = _blocks(_block_labels(model, 0, (x,)))[0]
        if len(block) < model.size:
            found[block] = None
    return list(found)


def block_systems(model: GaloisModel) -> list[tuple[frozenset[int], ...]]:
    """All proper nontrivial invariant partitions of the embedding set.

    A system of a transitive group is fixed by its block of the point 0.
    For each x != 0, union-find over the generators gives the finest
    system with 0 and x in one block (M. D. Atkinson, Math. Comp. 29
    (1975); Seress, Permutation Group Algorithms, ch. 5).  Every system is
    the join of the minimal systems of the points in its base block, so
    closing the minimal systems under joins finds them all.  A system's
    blocks are the classes of the union-find run that joins its base
    block.  Each system lists its blocks by least element; systems are
    sorted by block size, then by their sorted blocks.
    """
    minimal = _minimal_systems(model)
    found = set(minimal)
    frontier = list(minimal)
    while frontier:
        block = frontier.pop()
        for other in minimal:
            if other <= block:
                continue
            joined = _blocks(_block_labels(model, 0, block | other))[0]
            if len(joined) < model.size and joined not in found:
                found.add(joined)
                frontier.append(joined)
    systems = [_blocks(_block_labels(model, 0, block)) for block in found]
    return sorted(systems, key=lambda s: (len(s[0]), [sorted(b) for b in s]))


def _is_induced(model: GaloisModel, theta: frozenset[int]) -> bool:
    """True when theta is a union of blocks of a proper nontrivial system:
    some union-find run from (min theta, x), x in theta, finishes without
    joining a point of theta to one outside."""
    a = min(theta)
    return any(
        _block_labels(model, a, (x,), theta) is not None for x in theta if x != a
    )


def is_primitive(model: GaloisModel, theta: CMType) -> bool:
    """True unless the type is induced from a proper CM sub-model.

    Induced means: some proper nontrivial block system has theta equal
    to a union of blocks (conjugation then automatically acts freely on
    the blocks, so the quotient is again a CM model and the image of
    theta is a CM type on it).

    On a regular abelian model (see _odd_characters) the points are G.
    Its block systems are the coset partitions of its subgroups, so
    theta is induced exactly when its stabilizer Stab = {h : h + theta =
    theta} is nontrivial (Stab is proper, as theta is not G).  By
    Fourier inversion 1_theta = sum_chi c_chi chi with c_chi nonzero
    exactly when chi(theta) != 0, and 1_theta(x + h) = sum_chi c_chi
    chi(h) chi(x); so h lies in Stab exactly when chi(h) = 1 for every
    chi with chi(theta) != 0, and Stab is the intersection of their
    kernels.  The trivial character's kernel is G, every even chi != 1
    vanishes on theta (see kubota_rank), and Galois-conjugate characters
    share both their kernel and whether they vanish.  So Stab is the
    intersection of the kernels of the odd orbits that do not vanish on
    theta, read in the same pass over the table that counts the rank,
    and theta is primitive exactly when Stab = {0}.

    On a regular dihedral model (see _dihedral_representations) the
    points are D_n, acted on by left multiplication.  Its block systems
    are the left-coset partitions {gH} of the subgroups H (the block of 1
    is a subgroup H, and g maps it to the block of g, gH), so theta is
    induced exactly when its right stabilizer {h : theta h = theta}, a
    proper subgroup as theta is not G, is not {1}.  Write theta_0 =
    {a : r^a in theta} and theta_1 = {a : r^a s in theta} in Z/n.  As
    r^a s^b r^c = r^(a + (-1)^b c) s^b, the rotation r^c fixes theta
    exactly when theta_0 + c = theta_0 and theta_1 - c = theta_1.  The c
    with w + c = w, for either set w, are the multiples of the least one
    p_w, which divides n, so some c != 0 fixes both exactly when
    lcm(p_0, p_1) < n.  As r^a r^c s = r^(a+c) s and r^a s r^c s =
    r^(a-c), the reflection r^c s fixes theta exactly when theta_1 =
    theta_0 + c, i.e. when the 0/1 word of theta_1 on Z/n is a cyclic
    shift of that of theta_0.  A string search on the two words decides
    both.

    Every other model runs union-find.  Let a be the least point of
    theta.  For each other x in theta, union-find builds the finest
    system S(a, x) joining a and x, and stops at the first pair it would
    join that has one point in theta and one outside.  A run that
    finishes has every block inside theta or outside it (so it is
    proper, and nontrivial since a and x share a block), and theta is
    induced.  Conversely, if theta is a union of blocks of a nontrivial
    system, the block of a holds some x != a, which lies in theta;
    S(a, x) refines that system, so its run never joins across theta and
    finishes.  Neither route needs Bareiss or a block-system list.
    """
    check_cm_type(model, theta)
    if model._kubota is None:
        return not _is_induced(model, theta.theta)
    return model._kubota(theta.theta)[1]


class ScanEntry(NamedTuple):
    theta: tuple[int, ...]
    raw: int
    reduced: int
    primitive: bool
    raw_meets_bound: Optional[bool]
    reduced_meets_bound: Optional[bool]

    def to_json(self) -> dict:
        return {
            "theta": list(self.theta),
            "raw": self.raw,
            "reduced": self.reduced,
            "primitive": self.primitive,
            "raw_meets_bound": self.raw_meets_bound,
            "reduced_meets_bound": self.reduced_meets_bound,
        }


class ScanReport(NamedTuple):
    degree: int
    p: Optional[int]
    bound: Optional[int]
    entries: tuple[ScanEntry, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def primitive_count(self) -> int:
        return sum(1 for e in self.entries if e.primitive)

    @property
    def non_primitive_count(self) -> int:
        return self.total - self.primitive_count

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "p": self.p,
            "bound": self.bound,
            "total": self.total,
            "primitive": self.primitive_count,
            "non_primitive": self.non_primitive_count,
            "entries": [e.to_json() for e in self.entries],
        }


def _mask(points) -> int:
    return sum(map((1).__lshift__, points))


def tankeev_scan(model: GaloisModel) -> ScanReport:
    """Rank/primitivity table over all CM types of the model.

    The 2p-1 bound is only meaningful when the model has degree 2p for
    an odd prime p; otherwise the bound columns are reported as None.
    Ranks and primitivity are computed for one type per G-orbit and
    copied to its translates: both are invariant under the group, and
    the translates of a type are its orbit.  A model whose slot `_kubota`
    holds a reader reads both from one pass over its table (see
    kubota_rank and is_primitive); any other takes Bareiss, on the rows
    of the translates the scan walks once per orbit, and union-find.  The
    types are generated one at a time in canonical order, and only the
    translates not yet reached are held, as bitmasks from a breadth-first
    search over the generators.  Models with g above SCAN_MAX_G are
    refused before anything is enumerated.
    """
    g = model.g
    if g > SCAN_MAX_G:
        raise InvalidModelError(
            f"cm scan is capped at g <= SCAN_MAX_G = {SCAN_MAX_G}, got g = {g}"
        )
    applicable = g != 2 and is_prime(g)
    bound = 2 * g - 1 if applicable else None
    kubota = model._kubota
    known: dict[int, tuple[int, int, bool]] = {}
    entries = []
    for key in _half_systems(model):
        mask = _mask(key)
        found = known.pop(mask, None)
        if found is None:
            theta = frozenset(key)
            translates = _translates(model, mask)
            if kubota is None:
                raw = integer_rank(_translate_rows(model, translates))
                prim = not _is_induced(model, theta)
            else:
                raw, prim = kubota(theta)
            found = (raw, raw - 1, prim)
            known.update(dict.fromkeys(translates[1:], found))
        raw, reduced, prim = found
        entries.append(
            ScanEntry(
                theta=key,
                raw=raw,
                reduced=reduced,
                primitive=prim,
                raw_meets_bound=(raw >= bound) if applicable else None,
                reduced_meets_bound=(reduced >= bound) if applicable else None,
            )
        )
    return ScanReport(
        degree=model.size,
        p=g if applicable else None,
        bound=bound,
        entries=tuple(entries),
    )
