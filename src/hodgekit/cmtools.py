"""Galois-theoretic CM-type machinery on abstract permutation models.

A model is a transitive permutation group on the 2g embeddings of a CM
field, together with the central free involution playing the role of
complex conjugation.  CM types are half-systems.

* Kubota ranks are the ranks of the span of a type's group translates,
  raw and reduced by conjugation (reduced = raw - 1).  On a regular
  abelian model they are counted by characters: the span is the ideal
  Q[G]·1_theta, whose dimension is the number of characters that do not
  vanish on theta, and an odd character vanishes exactly when a
  cyclotomic polynomial divides an integer polynomial (Kubota, Trans.
  AMS 118 (1965); Ribet, Mém. SMF 2 (1980)).  Every other model, and
  `cm rank --invariants`, eliminates the translate matrix by Bareiss.
* Primitivity asks whether theta is a union of blocks of a proper block
  system.  Union-find finds the finest system joining two points
  (Atkinson, Math. Comp. 29 (1975)), and a run from the least point of
  theta stops as soon as it joins a point of theta to one outside.

A scan computes ranks and primitivity once per Galois orbit of CM types,
since both are invariant under the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence

from .intlinalg import integer_rank
from .numth import is_prime

Perm = tuple[int, ...]

# tankeev_scan enumerates 2^g CM types and its time and memory about
# double per step in g.  `cm scan` at g = 18 on a 2-vCPU Xeon VM: cyclic:36
# 7.3 s, abelian:6,6 8.6 s, dihedral:18 (Bareiss ranks) 26.8 s, each about
# 235 MB peak RSS.  At g = 19 the Bareiss model Z2 x D19 on 38 points takes
# 74 s and 452 MB.
SCAN_MAX_G = 18

# Largest embedding set a model is built on.  The slowest query is
# `cm rank --invariants`, the Smith form of the translate matrix: 19-29 s
# for random CM types of cyclic:256, dihedral:128 and abelian:2^8 on a
# 2-vCPU Xeon VM, and 111 s for cyclic:300.
MAX_DEGREE = 256

# Largest group a model is built with: GaloisModel holds every element,
# and generate_group refuses as soon as the closure passes the cap.  Memory
# sets it: an element of degree 256 costs about 2.9 KB, and refusing S8 x Z32
# on 256 points at this cap takes 4.5 s and 374 MB on a 2-vCPU Xeon VM (the
# closure's time alone would allow about 2^20).  Z2 wr S6 (order 46,080)
# builds; Z2 wr S7 (645,120) is refused.
MAX_GROUP_ORDER = 1 << 17


class InvalidModelError(ValueError):
    pass


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def generate_group(generators: Sequence[Perm], size: int) -> frozenset[Perm]:
    """Closure of the generators under composition, refused as soon as it
    holds more than MAX_GROUP_ORDER elements."""
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
                if len(seen) > MAX_GROUP_ORDER:
                    raise InvalidModelError(
                        f"group order is over the cap MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"
                        " for CM models"
                    )
                frontier.append(nxt)
    return frozenset(seen)


def parse_cycles(text: str, size: int) -> Perm:
    """Parse disjoint cycle notation like "(0 3)(1 4)(2 5)"."""
    _check_degree(size)
    out = list(range(size))
    body = text.strip()
    if body in ("", "()", "id"):
        return tuple(out)
    if body.count("(") != body.count(")"):
        raise ValueError(f"unbalanced cycle notation: {text!r}")
    chunks = [c for c in body.replace(")", ")|").split("|") if c.strip()]
    seen: set[int] = set()
    for chunk in chunks:
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad cycle chunk {chunk!r}")
        items = chunk[1:-1].replace(",", " ").split()
        cycle = [int(x) for x in items]
        if any(not 0 <= x < size for x in cycle):
            raise ValueError(f"cycle entry out of range in {chunk!r}")
        if len(set(cycle)) != len(cycle) or seen & set(cycle):
            raise ValueError(f"repeated point in cycles: {text!r}")
        seen.update(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a] = b
    return tuple(out)


def _check_degree(size: int) -> None:
    if size > MAX_DEGREE:
        raise InvalidModelError(
            f"degree {size} is over the cap MAX_DEGREE = {MAX_DEGREE} for CM models"
        )


@dataclass(frozen=True)
class GaloisModel:
    """Transitive group on the embedding set with central free involution."""

    generators: tuple[Perm, ...]
    conj: Perm
    size: int
    elements: frozenset[Perm] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_degree(self.size)
        if self.size < 2 or self.size % 2 != 0:
            raise InvalidModelError("embedding set must have even size >= 2")
        gens = tuple(tuple(g) for g in self.generators)
        conj = tuple(self.conj)
        if any(len(g) != self.size for g in gens) or len(conj) != self.size:
            raise InvalidModelError("permutation length mismatch")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "conj", conj)
        if compose(conj, conj) != identity_perm(self.size):
            raise InvalidModelError("conjugation must have order 2")
        if any(conj[i] == i for i in range(self.size)):
            raise InvalidModelError("conjugation must act freely")
        # commuting with the generators is commuting with the whole group,
        # so a non-central conjugation is refused before the closure
        if any(compose(conj, g) != compose(g, conj) for g in gens):
            raise InvalidModelError("conjugation must be central")
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens + (conj,):
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        if len(orbit) != self.size:
            raise InvalidModelError("action must be transitive")
        elements = generate_group(gens + (conj,), self.size)
        object.__setattr__(self, "elements", elements)

    @property
    def g(self) -> int:
        return self.size // 2

    @property
    def order(self) -> int:
        return len(self.elements)

    def conjugate_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for i in range(self.size):
            j = self.conj[i]
            if i < j:
                pairs.append((i, j))
        return pairs


def cyclic_model(size: int) -> GaloisModel:
    """Regular action of Z/size with conjugation the shift by size/2, the
    unique central free involution of the cycle."""
    _check_degree(size)
    if size % 2 != 0:
        raise InvalidModelError("cyclic CM model needs even size")
    rot = tuple((i + 1) % size for i in range(size))
    conj = tuple((i + size // 2) % size for i in range(size))
    return GaloisModel(generators=(rot,), conj=conj, size=size)


def abelian_model(factors: Sequence[int]) -> GaloisModel:
    """Regular action of a product of cyclic groups.  The conjugation is
    the element of order 2 in the last even factor; for another one,
    pass these generators and the wanted conj to GaloisModel (on the
    command line, give it with --iota)."""
    dims = [int(d) for d in factors]
    if any(d < 2 for d in dims):
        raise InvalidModelError("cyclic factors must be >= 2")
    size = 1
    for d in dims:
        size *= d
    _check_degree(size)
    if size % 2:
        raise InvalidModelError("group order must be even")

    def index(coords: Sequence[int]) -> int:
        idx = 0
        for c, d in zip(coords, dims):
            idx = idx * d + (c % d)
        return idx

    def coords(idx: int) -> list[int]:
        out = []
        for d in reversed(dims):
            out.append(idx % d)
            idx //= d
        return list(reversed(out))

    gens = []
    for axis in range(len(dims)):
        images = []
        for i in range(size):
            c = coords(i)
            c[axis] += 1
            images.append(index(c))
        gens.append(tuple(images))
    # default conjugation: add the order-2 element on the last even axis
    even_axes = [a for a, d in enumerate(dims) if d % 2 == 0]
    if not even_axes:
        raise InvalidModelError("no order-2 element available")
    axis = even_axes[-1]
    images = []
    for i in range(size):
        c = coords(i)
        c[axis] += dims[axis] // 2
        images.append(index(c))
    return GaloisModel(generators=tuple(gens), conj=tuple(images), size=size)


def dihedral_model(n: int) -> GaloisModel:
    """Regular action of the dihedral group of order 2n (n even, so the
    central rotation by n/2 serves as conjugation).  Point a + n*b stands
    for rotation^a * flip^b."""
    if n % 2 != 0:
        raise InvalidModelError("dihedral CM model needs n even")
    size = 2 * n
    _check_degree(size)

    def index(a: int, b: int) -> int:
        return (a % n) + n * (b % 2)

    # left multiplication by r: r * r^a s^b = r^(a+1) s^b
    rot = tuple(index(i % n + 1, i // n) for i in range(size))
    # left multiplication by s: s * r^a s^b = r^(-a) s^(b+1)
    flip = tuple(index(-(i % n), i // n + 1) for i in range(size))
    conj = tuple(index(i % n + n // 2, i // n) for i in range(size))
    return GaloisModel(generators=(rot, flip), conj=conj, size=size)


@dataclass(frozen=True)
class CMType:
    """A half-system: one embedding from each conjugate pair."""

    theta: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", frozenset(int(x) for x in self.theta))

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


def _translate(perm: Perm, theta: frozenset[int]) -> frozenset[int]:
    return frozenset(perm[x] for x in theta)


def _orbit(model: GaloisModel, theta: frozenset[int]) -> list[tuple[int, ...]]:
    """The distinct group translates of a type, sorted: its G-orbit."""
    return sorted({tuple(sorted(p[x] for x in theta)) for p in model.elements})


def _translate_rows(model: GaloisModel, theta: frozenset[int]) -> list[list[int]]:
    return [
        [1 if i in t else 0 for i in range(model.size)]
        for t in map(set, _orbit(model, theta))
    ]


def translate_lattice(model: GaloisModel, theta: CMType) -> list[list[int]]:
    """Indicator rows of the distinct group translates of the type."""
    check_cm_type(model, theta)
    return _translate_rows(model, theta.theta)


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

    The model qualifies when G acts regularly, the generators commute,
    and the product of their orders is the degree with every point
    reached from 0 by the generators alone.  Then prod Z/ord(g_i) is G,
    and e is the point prod g_i^e_i (0).  The character k sends e to
    zeta_N^(sum k_i e_i N/ord(g_i)), N the exponent of G.  The result
    has one entry per Galois orbit {k^j : j prime to d} of odd
    characters (value -1 on conj), d their order: the orbit size, d,
    Phi_d, and the exponent of zeta_d at each point.
    """
    gens, size = model.generators, model.size
    if model.order != size or any(
        compose(g, h) != compose(h, g) for i, g in enumerate(gens) for h in gens[:i]
    ):
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
        found.append((len(orbit), d, _cyclotomic(d), exps))
    return found


def _raw_rank(model: GaloisModel, theta: frozenset[int], characters) -> int:
    if characters is None:
        return integer_rank(_translate_rows(model, theta))
    raw = 1
    for count, d, phi, exps in characters:
        coeffs = [0] * d
        for a in theta:
            coeffs[exps[a]] += 1
        if any(_poly_divmod(coeffs, phi)[1]):
            raw += count
    return raw


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
    AMS 118 (1965); Ribet, Mém. SMF 2 (1980)).  Every other model
    (dihedral, non-regular or non-abelian, or with conj outside the
    generators' group) takes one fraction-free Bareiss elimination of
    the 0/1 translate rows.
    """
    check_cm_type(model, theta)
    raw = _raw_rank(model, theta.theta, _odd_characters(model))
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


def _base_block(labels: list[int]) -> frozenset[int]:
    return frozenset(x for x, lab in enumerate(labels) if lab == labels[0])


def _minimal_systems(model: GaloisModel) -> list[frozenset[int]]:
    """Base blocks of the proper systems that are the finest ones joining
    0 to some other point."""
    found: dict[frozenset[int], None] = {}
    for x in range(1, model.size):
        block = _base_block(_block_labels(model, 0, (x,)))
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
    closing the minimal systems under joins finds them all.  Each system
    lists its blocks by least element; systems are sorted by block size,
    then by their sorted blocks.
    """
    minimal = _minimal_systems(model)
    found = set(minimal)
    frontier = list(minimal)
    while frontier:
        block = frontier.pop()
        for other in minimal:
            if other <= block:
                continue
            joined = _base_block(_block_labels(model, 0, block | other))
            if len(joined) < model.size and joined not in found:
                found.add(joined)
                frontier.append(joined)
    systems = [
        tuple(sorted({_translate(p, block) for p in model.elements}, key=min))
        for block in found
    ]
    return sorted(systems, key=lambda s: (len(s[0]), [sorted(b) for b in s]))


def quotient_model(
    model: GaloisModel, blocks: tuple[frozenset[int], ...]
) -> tuple[GaloisModel, dict[int, int]]:
    """The induced model on a block system, plus point -> block index."""
    lookup: dict[int, int] = {}
    for idx, block in enumerate(blocks):
        for x in block:
            lookup[x] = idx

    def push(perm: Perm) -> Perm:
        return tuple(lookup[perm[min(block)]] for block in blocks)

    gens = tuple(push(g) for g in model.generators)
    conj = push(model.conj)
    return GaloisModel(generators=gens, conj=conj, size=len(blocks)), lookup


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
    theta is a CM type on it).  Let a be the least point of theta.  For
    each other x in theta, union-find builds the finest system S(a, x)
    joining a and x, and stops at the first pair it would join that has
    one point in theta and one outside.  A run that finishes has every
    block inside theta or outside it (so it is proper, and nontrivial
    since a and x share a block), and theta is induced.  Conversely,
    if theta is a union of blocks of a nontrivial system, the block of a
    holds some x != a, which lies in theta; S(a, x) refines that system,
    so its run never joins across theta and finishes.  The test is the
    same on every model; no Bareiss or block-system list is needed.
    """
    check_cm_type(model, theta)
    return not _is_induced(model, theta.theta)


@dataclass(frozen=True)
class ScanEntry:
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


@dataclass(frozen=True)
class ScanReport:
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
    the translates of a type are its orbit.  The types are generated one
    at a time in canonical order, and only the translates not yet
    reached are held, as bitmasks.  Models with g above SCAN_MAX_G are
    refused before anything is enumerated.
    """
    g = model.g
    if g > SCAN_MAX_G:
        raise InvalidModelError(
            f"cm scan is capped at g <= SCAN_MAX_G = {SCAN_MAX_G}, got g = {g}"
        )
    applicable = g != 2 and is_prime(g)
    bound = 2 * g - 1 if applicable else None
    characters = _odd_characters(model)
    known: dict[int, tuple[int, int, bool]] = {}
    entries = []
    for key in _half_systems(model):
        mask = _mask(key)
        found = known.pop(mask, None)
        if found is None:
            theta = frozenset(key)
            raw = _raw_rank(model, theta, characters)
            found = (raw, raw - 1, not _is_induced(model, theta))
            translates = {_mask(map(p.__getitem__, key)) for p in model.elements}
            translates.discard(mask)
            known.update(dict.fromkeys(translates, found))
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
