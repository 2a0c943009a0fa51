"""Workload ``verify_engines``: the ``rootsys`` and ``numth`` engines, cold.

Every pass runs in a fresh interpreter, so the first call finds every
cache empty:

1. ``admissible_factors(70, orthogonal, max_rank=16)``: the cold call;
2. ``admissible_factors(dim, duality)`` for every dim in 1..199 and each
   duality: the warm queries;
3. ``verify_minuscule_table`` on freshly built A1-A10, B2-B10, C2-C10,
   D3-D10, E6 and E7, as ``weights verify-table2`` does;
4. the ``numth verify`` checks up to k = 20.

Answers are checked against the recorded references and, independently,
against the closed-form minuscule table and a sieve written here.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial

import harness
from harness import Op, check_digest

NAME = "verify_engines"
K_MAX = 20
COLD = (70, "orthogonal", 16)
MAX_DIM = 199
TABLE2_MAX_RANK = 10
COLD_LIMIT_S = 60.0
OP_LIMIT_S = 10.0
KNOWN_DEFECTS: dict = {}
DUALITIES = ("orthogonal", "symplectic", "non_self_dual")


def table2_systems() -> list[tuple[str, int]]:
    lows = {"A": 1, "B": 2, "C": 2, "D": 3}
    out = [(k, r) for k in "ABCD" for r in range(lows[k], TABLE2_MAX_RANK + 1)]
    return out + [("E", 6), ("E", 7)]


# ---------------------------------------------------------------------------
# Independent references: closed forms and a sieve
# ---------------------------------------------------------------------------


def closed_form(kind: str, l: int) -> dict[int, tuple[int, str]]:
    """Minuscule index -> (dimension, duality), from the classical table."""

    def mod4(plus):
        return "orthogonal" if l % 4 in plus else "symplectic"

    if kind == "A":
        out = {}
        for j in range(1, l + 1):
            dual = "non_self_dual"
            if l == 2 * j - 1:
                dual = "orthogonal" if j % 2 == 0 else "symplectic"
            out[j] = (math.comb(l + 1, j), dual)
        return out
    if kind == "B":
        return {l: (2 ** l, mod4((0, 3)))}
    if kind == "C":
        return {1: (2 * l, "symplectic")}
    if kind == "D":
        half = "non_self_dual" if l % 2 else mod4((0,))
        return {1: (2 * l, "orthogonal"), l - 1: (2 ** (l - 1), half), l: (2 ** (l - 1), half)}
    return {1: (27, "non_self_dual"), 6: (27, "non_self_dual")} if l == 6 else {7: (56, "symplectic")}


@lru_cache(maxsize=None)
def _primes() -> tuple[int, ...]:
    """Primes below 2^K_MAX by a byte sieve."""
    n = 1 << K_MAX
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(i for i in range(n + 1) if flags[i])


def _dyadic_primes(k: int) -> list[int]:
    """The primes p with 2^(k-1) < p < 2^k."""
    primes = _primes()
    return list(primes[bisect_right(primes, 1 << (k - 1)) : bisect_left(primes, 1 << k)])


def _check_hits(dim: int, duality: str, hits) -> str:
    for kind, rank, coords in hits:
        index = coords.index(1) + 1
        if closed_form(kind, rank).get(index) != (dim, duality):
            return f"{kind}{rank} weight {index} is not a {duality} rep of dim {dim}"
    return ""


def _check_table2(kind: str, rank: int, report) -> str:
    rows = {(w["index"], w["dim"], w["duality"]) for w in report["weights"]}
    want = {(i, d, s) for i, (d, s) in closed_form(kind, rank).items()}
    if rows != want or not report["ok"]:
        return f"{kind}{rank}: table {sorted(rows)} != closed form {sorted(want)}"
    return ""


def _check(expected: str, extra, raw) -> str:
    """The reference answer first, then the independent check if any."""
    return check_digest(expected, raw) or (extra(raw) if extra else "")


# ---------------------------------------------------------------------------
# Operations (run in the child)
# ---------------------------------------------------------------------------


def _admissible(hk, dim, duality, max_rank, span, tr):
    with tr.span(span):
        hits = hk.rootsys.admissible_factors(dim, duality, max_rank=max_rank)
    return [[rs.kind, rs.rank, list(w.coords)] for rs, w in hits]


def _table2(hk, kind, rank, tr):
    with tr.span("rootsys.root_system_build"):
        rs = hk.rootsys.RootSystem(kind, rank)
    tr.count("rootsys.positive_roots", len(rs.positive_roots))
    with tr.span("rootsys.verify_minuscule_table"):
        return hk.rootsys.verify_minuscule_table(rs)


def _factorial_two_adic(hk, tr):
    return all(
        hk.numth.factorial_two_adic(1 << (k - 1)) == (1 << (k - 1)) - 1
        for k in range(3, K_MAX + 1)
    )


def _central_binomial_mod4(hk, tr):
    return all(
        (hk.numth.central_binomial_mod4(z) == 2) == (z & (z - 1) == 0)
        for z in range(1, 4097)
    )


def _no_prime_double(hk, tr):
    with tr.span("numth.no_prime_double_is_central_binomial"):
        ok, witnesses = hk.numth.no_prime_double_is_central_binomial(K_MAX)
    return [ok, {str(k): v for k, v in witnesses.items()}]


def _prime_count_gap(hk, k, tr):
    with tr.span("numth.prime_count_gap"):
        return hk.numth.prime_count_gap(k)


def _check_witnesses(raw) -> str:
    for k in range(3, K_MAX + 1):
        if raw[1].get(str(k)) != _dyadic_primes(k):
            return f"witnesses for k={k} differ from the primes in the dyadic interval"
    return ""


def _check_gap(k, value) -> str:
    want = len(_dyadic_primes(k))
    return "" if value == want else f"gap {value} != sieve count {want}"


def calls(hk, seed: int) -> list[tuple]:
    """(key, call, independent check or None, limit) in run order."""
    rng = random.Random(f"{NAME}:{seed}")
    dim, duality, max_rank = COLD
    out = [
        ("cold", partial(_admissible, hk, dim, duality, max_rank, "rootsys.admissible_factors_cold"),
         partial(_check_hits, dim, duality), COLD_LIMIT_S),
    ]
    warm = [(d, s) for d in range(1, MAX_DIM + 1) for s in DUALITIES]
    rng.shuffle(warm)
    for d, s in warm:
        out.append((f"warm.{d}.{s}", partial(_admissible, hk, d, s, 16, "rootsys.admissible_factors"),
                    partial(_check_hits, d, s), OP_LIMIT_S))
    systems = table2_systems()
    rng.shuffle(systems)
    for kind, rank in systems:
        out.append((f"table2.{kind}{rank}", partial(_table2, hk, kind, rank),
                    partial(_check_table2, kind, rank), OP_LIMIT_S))
    out.append(("numth.factorial_two_adic", partial(_factorial_two_adic, hk), None, OP_LIMIT_S))
    out.append(("numth.central_binomial_mod4", partial(_central_binomial_mod4, hk), None, OP_LIMIT_S))
    out.append(("numth.no_prime_double", partial(_no_prime_double, hk), _check_witnesses, OP_LIMIT_S))
    gaps = list(range(3, K_MAX + 1))
    rng.shuffle(gaps)
    for k in gaps:
        out.append((f"numth.prime_count_gap.{k}", partial(_prime_count_gap, hk, k),
                    partial(_check_gap, k), OP_LIMIT_S))
    return out


def operations(hk, seed: int) -> list[Op]:
    refs = harness.load_ref("verify_engines.json")["answers"]
    return [
        Op(key, call, partial(_check, refs[key], extra), limit)
        for key, call, extra, limit in calls(hk, seed)
    ]


def import_program():
    import hodgekit.numth
    import hodgekit.rootsys

    return hodgekit


def probe(hk, tr) -> None:
    """Time the layers ``verify_minuscule_table`` calls internally."""
    rs_mod = hk.rootsys
    for kind, rank in table2_systems():
        with tr.op(f"probe.{kind}{rank}"):
            rs = rs_mod.RootSystem(kind, rank)
            with tr.span("rootsys.minuscule_weights"):
                weights = rs_mod.minuscule_weights(rs)
            for w in weights:
                with tr.span("rootsys.rep_dimension"):
                    rs_mod.rep_dimension(rs, w)
                with tr.span("rootsys.autoduality"):
                    rs_mod.autoduality(rs, w)


def cross_check(seed: int) -> list[str]:
    """The program's own closed forms must agree with the ones here."""
    hk = import_program()
    problems = []
    for kind, rank in table2_systems():
        rows = hk.rootsys.minuscule_table_expected(hk.rootsys.RootSystem(kind, rank))
        got = {r["index"]: (r["dim"], r["duality"]) for r in rows}
        if got != closed_form(kind, rank):
            problems.append(f"{kind}{rank}: minuscule_table_expected disagrees with the closed form")
    return problems


@dataclass
class Inputs:
    ops: list[Op]


def generate(seed: int) -> Inputs:
    return Inputs(operations(import_program(), seed))


def traced_extras(inputs: Inputs, tracer) -> list:
    probe(import_program(), tracer)
    return []


LAYER_METRICS = {
    "rootsys.root_system_build_ms": ("rootsys.root_system_build", "pass_ms"),
    "rootsys.minuscule_weights_ms": ("rootsys.minuscule_weights", "pass_ms"),
    "rootsys.rep_dimension_us": ("rootsys.rep_dimension", "call_us"),
    "rootsys.autoduality_us": ("rootsys.autoduality", "call_us"),
    "rootsys.admissible_factors_cold_ms": ("rootsys.admissible_factors_cold", "pass_ms"),
    "rootsys.admissible_factors_warm_us": ("rootsys.admissible_factors", "call_us"),
    "rootsys.verify_minuscule_table_ms": ("rootsys.verify_minuscule_table", "pass_ms"),
    "rootsys.positive_roots": ("rootsys.positive_roots", "count"),
    "numth.no_prime_double_is_central_binomial_ms": ("numth.no_prime_double_is_central_binomial", "pass_ms"),
    "numth.prime_count_gap_ms": ("numth.prime_count_gap", "pass_ms"),
}
