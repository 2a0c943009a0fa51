"""Workload ``cm_scan``: the ``cmtools`` verification engine.

Two kinds of operation, as ``hodgekit cm`` runs them:

* a full scan: build the model, ``tankeev_scan`` it and render the
  report (``cm scan``), once per model in SCAN_MODELS;
* a single-type query: build the model, then ``kubota_rank`` and
  ``is_primitive`` of one CM type (``cm rank`` and ``cm primitive``),
  QUERIES_PER_MODEL seeded types per model.

The larger models in TRACE_MODELS take many seconds each; only the
traced run scans them, to record their baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import harness
from harness import Op, check_digest, check_equal

NAME = "cm_scan"
SCAN_MODELS = (
    "cyclic:12",
    "cyclic:14",
    "cyclic:16",
    "dihedral:6",
    "abelian:2,6",
    "abelian:3,4",
    "abelian:2,2,2",
)
TRACE_MODELS = ("dihedral:8", "abelian:2,2,2,2")
QUERIES_PER_MODEL = 32
RANK_CHECKS_PER_MODEL = 4
SCAN_LIMIT_S = 60.0
QUERY_LIMIT_S = 10.0
TRACE_SCAN_LIMIT_S = 120.0
KNOWN_DEFECTS: dict = {}


def import_program():
    import hodgekit.cmtools
    import hodgekit.intlinalg

    return hodgekit


def build_model(hk, spec: str):
    kind, arg = spec.split(":", 1)
    if kind == "cyclic":
        return hk.cmtools.cyclic_model(int(arg))
    if kind == "dihedral":
        return hk.cmtools.dihedral_model(int(arg))
    return hk.cmtools.abelian_model([int(x) for x in arg.split(",")])


def _scan_op(hk, spec: str, span: str, tr):
    with tr.span("cmtools.model_build"):
        model = build_model(hk, spec)
    with tr.span(span):
        report = hk.cmtools.tankeev_scan(model)
    return report.to_json()


def _query_op(hk, spec: str, theta: list[int], tr):
    with tr.span("cmtools.model_build"):
        model = build_model(hk, spec)
    cm_type = hk.cmtools.CMType(frozenset(theta))
    with tr.span("cmtools.kubota_rank"):
        raw, reduced = hk.cmtools.kubota_rank(model, cm_type)
    with tr.span("cmtools.is_primitive"):
        primitive = hk.cmtools.is_primitive(model, cm_type)
    return [raw, reduced, primitive]


@dataclass
class Inputs:
    ops: list[Op]
    queries: dict  # spec -> list of CM types queried


def generate(seed: int) -> Inputs:
    hk = import_program()
    refs = harness.load_ref("cm_scan.json")["models"]
    rng = random.Random(f"{NAME}:{seed}")
    ops = []
    queries = {}
    for spec in SCAN_MODELS:
        ref = refs[spec]
        ops.append(
            Op(
                f"scan.{spec}",
                partial(_scan_op, hk, spec, "cmtools.tankeev_scan"),
                partial(check_digest, ref["scan"]),
                SCAN_LIMIT_S,
            )
        )
        entries = [rng.choice(ref["types"]) for _ in range(QUERIES_PER_MODEL)]
        queries[spec] = [e[0] for e in entries]
        for i, (theta, raw, reduced, primitive) in enumerate(entries):
            ops.append(
                Op(
                    f"query.{spec}.{i}",
                    partial(_query_op, hk, spec, theta),
                    partial(check_equal, [raw, reduced, primitive]),
                    QUERY_LIMIT_S,
                )
            )
    rng.shuffle(ops)
    return Inputs(ops, queries)


# ---------------------------------------------------------------------------
# Independent cross-check of the Kubota ranks
# ---------------------------------------------------------------------------


def _closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    size = len(gens[0])
    ident = tuple(range(size))
    seen = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(size))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _model_generators(spec: str) -> list[tuple[int, ...]]:
    """Generators of the regular action, written out independently."""
    kind, arg = spec.split(":", 1)
    if kind == "dihedral":
        n = int(arg)
        # point a + n*b is r^a s^b; left multiplication by r and by s
        rot = tuple((i % n + 1) % n + n * (i // n) for i in range(2 * n))
        flip = tuple((-(i % n)) % n + n * ((i // n + 1) % 2) for i in range(2 * n))
        return [rot, flip]
    dims = [int(arg)] if kind == "cyclic" else [int(x) for x in arg.split(",")]
    size = 1
    for d in dims:
        size *= d
    gens = []
    for axis in range(len(dims)):
        stride = 1
        for d in dims[axis + 1:]:
            stride *= d
        d = dims[axis]
        gens.append(
            tuple(i + stride * (((i // stride) % d + 1) % d - (i // stride) % d) for i in range(size))
        )
    return gens


def kubota_ranks_by_fractions(spec: str, theta: list[int]) -> tuple[int, int]:
    group = _closure(_model_generators(spec))
    size = len(next(iter(group)))
    translates = {tuple(sorted(p[x] for x in theta)) for p in group}
    raw = [[1 if i in t else 0 for i in range(size)] for t in translates]
    reduced = [[2 * v - 1 for v in row] for row in raw]
    return fraction_rank(raw), fraction_rank(reduced)


def cross_check(seed: int) -> list[str]:
    """Recompute the ranks of a seeded sample of CM types by Fraction
    elimination and compare them with the reference answers."""
    refs = harness.load_ref("cm_scan.json")["models"]
    rng = random.Random(f"{NAME}:{seed}:oracle")
    problems = []
    for spec in SCAN_MODELS:
        for theta, raw, reduced, _prim in rng.sample(refs[spec]["types"], RANK_CHECKS_PER_MODEL):
            got = kubota_ranks_by_fractions(spec, theta)
            if got != (raw, reduced):
                problems.append(f"{spec} {theta}: fraction ranks {got} != reference {(raw, reduced)}")
    return problems


# ---------------------------------------------------------------------------
# Traced run only
# ---------------------------------------------------------------------------


def trace_extra_ops() -> list[Op]:
    """Full scans of the larger models, for their recorded baseline."""
    hk = import_program()
    refs = harness.load_ref("cm_scan.json")["models"]
    return [
        Op(
            f"bigscan.{spec}",
            partial(_scan_op, hk, spec, "cmtools.tankeev_scan." + spec.replace(":", "").replace(",", "")),
            partial(check_digest, refs[spec]["scan"]),
            TRACE_SCAN_LIMIT_S,
        )
        for spec in TRACE_MODELS
    ]


def probe(inputs: Inputs, tr) -> None:
    """Replay a scan's internal calls as public calls, per model."""
    hk = import_program()
    cm = hk.cmtools
    for spec in SCAN_MODELS:
        with tr.op(f"probe.{spec}"):
            with tr.span("cmtools.model_build"):
                model = build_model(hk, spec)
            with tr.span("cmtools.enumerate_cm_types"):
                types = cm.enumerate_cm_types(model)
            tr.count("cmtools.group_order", model.order)
            tr.count("cmtools.cm_types", len(types))
            queried = {tuple(sorted(t)) for t in inputs.queries[spec]}
            for theta in types:
                with tr.span("cmtools.translate_lattice"):
                    rows = cm.translate_lattice(model, theta)
                with tr.span("intlinalg.integer_rank"):
                    hk.intlinalg.integer_rank(rows)
                with tr.span("intlinalg.integer_rank"):
                    hk.intlinalg.integer_rank([[2 * v - 1 for v in row] for row in rows])
                if theta.sorted() in queried:
                    with tr.span("intlinalg.smith_normal_form"):
                        hk.intlinalg.smith_normal_form(rows)
                # is_primitive recomputes the block systems for every type
                with tr.span("cmtools.block_systems"):
                    systems = cm.block_systems(model)
            tr.count("cmtools.block_system_count", len(systems))


def traced_extras(inputs: Inputs, tracer) -> list:
    """The probe phase, then the larger scans; results of the scans."""
    probe(inputs, tracer)
    return harness.run_ops(trace_extra_ops(), tracer)


LAYER_METRICS = {
    "cmtools.model_build_ms": ("cmtools.model_build", "pass_ms"),
    "cmtools.enumerate_cm_types_ms": ("cmtools.enumerate_cm_types", "pass_ms"),
    "cmtools.block_systems_ms": ("cmtools.block_systems", "pass_ms"),
    "cmtools.translate_lattice_us": ("cmtools.translate_lattice", "call_us"),
    "cmtools.kubota_rank_us": ("cmtools.kubota_rank", "call_us"),
    "cmtools.is_primitive_us": ("cmtools.is_primitive", "call_us"),
    "cmtools.tankeev_scan_ms": ("cmtools.tankeev_scan", "pass_ms"),
    "cmtools.tankeev_scan_cyclic14_ms": ("cmtools.tankeev_scan", "pass_ms", "scan.cyclic:14"),
    "cmtools.tankeev_scan_dihedral8_ms": ("cmtools.tankeev_scan.dihedral8", "pass_ms"),
    "cmtools.tankeev_scan_abelian2222_ms": ("cmtools.tankeev_scan.abelian2222", "pass_ms"),
    "intlinalg.integer_rank_us": ("intlinalg.integer_rank", "call_us"),
    "intlinalg.smith_normal_form_us": ("intlinalg.smith_normal_form", "call_us"),
    "cmtools.group_order": ("cmtools.group_order", "count"),
    "cmtools.block_system_count": ("cmtools.block_system_count", "count"),
    "cmtools.cm_types": ("cmtools.cm_types", "count"),
}
