"""Galois-theoretic CM-type machinery on abstract permutation models.

A model is a transitive permutation group on the 2g embeddings of a CM
field, together with the central free involution playing the role of
complex conjugation.  CM types are half-systems; their Kubota ranks are
exact integer lattice ranks of the translate span, computed both on the
nose (raw) and antisymmetrized by conjugation (reduced).  Primitivity is
decided against the minimal block systems, which union-find finds
directly (Atkinson 1975); a scan computes ranks and primitivity once per
Galois orbit of CM types, since both are invariant under the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .intlinalg import integer_rank
from .numth import is_prime

Perm = tuple[int, ...]

# tankeev_scan enumerates 2^g CM types and its time about doubles per step
# in g; cyclic:36 (g = 18) scans in about 55 s on a 2-vCPU Xeon VM.
SCAN_MAX_G = 18

# Largest embedding set a model is built on.  The slowest query is
# `cm rank --invariants`, the Smith form of the translate matrix: 19-29 s
# for random CM types of cyclic:256, dihedral:128 and abelian:2^8 on a
# 2-vCPU Xeon VM, and 111 s for cyclic:300.
MAX_DEGREE = 256


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def generate_group(generators: Sequence[Perm], size: int) -> frozenset[Perm]:
    """Closure of the generators under composition (finite by design)."""
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


class InvalidModelError(ValueError):
    pass


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


def cyclic_model(size: int, shift: Optional[int] = None) -> GaloisModel:
    """Regular action of Z/size with conjugation a given shift (size/2
    by default, the unique central free involution of the cycle)."""
    _check_degree(size)
    if size % 2 != 0:
        raise InvalidModelError("cyclic CM model needs even size")
    rot = tuple((i + 1) % size for i in range(size))
    s = size // 2 if shift is None else shift
    conj = tuple((i + s) % size for i in range(size))
    return GaloisModel(generators=(rot,), conj=conj, size=size)


def abelian_model(factors: Sequence[int]) -> GaloisModel:
    """Regular action of a product of cyclic groups; conjugation must be
    picked afterwards via with_conj when the default (the element of
    order 2 in the last even factor) is not wanted."""
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


def enumerate_cm_types(model: GaloisModel) -> list[CMType]:
    """All 2^g half-systems, in canonical order."""
    pairs = model.conjugate_pairs()
    types: list[CMType] = []
    for mask in range(1 << len(pairs)):
        chosen = frozenset(
            pair[(mask >> i) & 1] for i, pair in enumerate(pairs)
        )
        types.append(CMType(chosen))
    types.sort(key=lambda t: t.sorted())
    return types


def _translate(perm: Perm, theta: frozenset[int]) -> frozenset[int]:
    return frozenset(perm[x] for x in theta)


def _orbit(model: GaloisModel, theta: frozenset[int]) -> list[tuple[int, ...]]:
    """The distinct group translates of a type, sorted: its G-orbit."""
    return sorted({tuple(sorted(p[x] for x in theta)) for p in model.elements})


def translate_lattice(model: GaloisModel, theta: CMType) -> list[list[int]]:
    """Indicator rows of the distinct group translates of the type."""
    check_cm_type(model, theta)
    translates = map(set, _orbit(model, theta.theta))
    return [[1 if i in t else 0 for i in range(model.size)] for t in translates]


def kubota_rank(model: GaloisModel, theta: CMType) -> tuple[int, int]:
    """(raw, reduced) integer ranks of the translate span of the type.

    raw spans the indicator vectors of all group translates of theta in
    the free module on the embeddings; reduced spans the differences
    translate - conjugate(translate) = 2 translate - 1, i.e. the image in
    the quotient by sigma + conj(sigma) = 0.  conj lies in G, so with
    every translate t its complement 1 - t is a translate and raw
    contains the all-ones vector: raw = span(1, 2t - 1).  The rows 2t - 1
    are odd under conj and the all-ones vector is even, so raw is always
    reduced + 1, and one fraction-free elimination of the 0/1 rows
    gives both.
    """
    raw = integer_rank(translate_lattice(model, theta))
    return raw, raw - 1


# ---------------------------------------------------------------------------
# Block systems and primitivity
# ---------------------------------------------------------------------------


def _block_labels(model: GaloisModel, points) -> list[int]:
    """Finest invariant partition with 0 and the given points in one
    block, as a union-find root per point (Atkinson's algorithm: once the
    classes of a and b merge, those of g(a) and g(b) must merge for every
    generator g; the merged pairs generate the relation, so checking
    their images is enough for invariance)."""
    parent = list(range(model.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    gens = model.generators + (model.conj,)
    pending = [(0, y) for y in points]
    while pending:
        a, b = pending.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            pending.extend((g[ra], g[rb]) for g in gens)
    return [find(x) for x in range(model.size)]


def _base_block(labels: list[int]) -> frozenset[int]:
    return frozenset(x for x, lab in enumerate(labels) if lab == labels[0])


def _minimal_systems(model: GaloisModel) -> dict[frozenset[int], list[int]]:
    """Base block -> labels of each proper system that is the finest one
    joining 0 to some other point."""
    found: dict[frozenset[int], list[int]] = {}
    for x in range(1, model.size):
        labels = _block_labels(model, (x,))
        block = _base_block(labels)
        if len(block) < model.size:
            found.setdefault(block, labels)
    return found


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
            joined = _base_block(_block_labels(model, block | other))
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


def _is_union_of_blocks(systems: dict, theta: frozenset[int]) -> bool:
    """True when theta is a union of blocks of one of the systems."""
    return any(
        len({labels[x] for x in theta}) * len(block) == len(theta)
        for block, labels in systems.items()
    )


def is_primitive(model: GaloisModel, theta: CMType) -> bool:
    """True unless the type is induced from a proper CM sub-model.

    Induced means: some proper nontrivial block system has theta equal
    to a union of blocks (conjugation then automatically acts freely on
    the blocks, so the quotient is again a CM model and the image of
    theta is a CM type on it).  Only the minimal systems of
    block_systems (finest with 0 and x in one block, by union-find) are
    tested.  That is exact: a nontrivial system is refined by the
    minimal system of any two points of one of its blocks, and a union
    of its blocks is then a union of the finer blocks too.
    """
    check_cm_type(model, theta)
    return not _is_union_of_blocks(_minimal_systems(model), theta.theta)


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


def tankeev_scan(model: GaloisModel) -> ScanReport:
    """Rank/primitivity table over all CM types of the model.

    The 2p-1 bound is only meaningful when the model has degree 2p for
    an odd prime p; otherwise the bound columns are reported as None.
    Ranks and primitivity are computed for one type per G-orbit and
    copied to its translates: both are invariant under the group, and
    the translates of a type are its orbit.  Models with g above
    SCAN_MAX_G are refused before anything is enumerated.
    """
    g = model.g
    if g > SCAN_MAX_G:
        raise InvalidModelError(
            f"cm scan is capped at g <= SCAN_MAX_G = {SCAN_MAX_G}, got g = {g}"
        )
    applicable = g != 2 and is_prime(g)
    bound = 2 * g - 1 if applicable else None
    minimal = _minimal_systems(model)
    known: dict[tuple[int, ...], tuple[int, int, bool]] = {}
    entries = []
    for theta in enumerate_cm_types(model):
        key = theta.sorted()
        if key not in known:
            ranks = kubota_rank(model, theta)
            prim = not _is_union_of_blocks(minimal, theta.theta)
            known.update((t, (*ranks, prim)) for t in _orbit(model, theta.theta))
        raw, reduced, prim = known.pop(key)
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
