"""Workload ``classify_sweep``: the batch user's classification pipeline.

Each operation is ``json.loads`` -> ``core.profile_from_json`` ->
``classifier.classify`` -> ``to_json`` on one profile and one subfield
inventory.  The inputs are

* every shape-valid profile with n <= 64 and weight 1 or 2 (all Albert
  types, degree splits, ``disc_one`` in {None, False, True} for types
  I-III and two to four trace lists per Type IV shape), each crossed with
  five subfield inventories;
* three profiles from each of 64 strata of a large-n pool (n from 1e6
  to 1e11, log-uniform; see ``record_refs.py``), picked by the seed;
* the profile with n = 2^61 - 1;
* the golden rows of ``tests/golden``, replayed.

``NotRealizableError`` and ``InconsistentSubfieldError`` are verdicts,
compared like any other answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial

import harness
from harness import Op, check_digest, check_equal

NAME = "classify_sweep"
CLASSIFY_LIMIT_S = 1.0
GOLDEN_LIMIT_S = 10.0
LARGE_PER_STRATUM = 3
MERSENNE_KEY = "large.mersenne61"
KNOWN_DEFECTS = {MERSENNE_KEY: "classify with n = 2^61-1 does not finish"}

SUBFIELD_VARIANTS = (
    None,
    [],
    [{"deg_E": 2, "balanced": True}],
    [{"deg_E": 2, "balanced": True, "galois_L": True}],
    [{"deg_E": 2, "balanced": False}],
)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _trace_lists(g: int, s: int) -> list[list[list[int]]]:
    """Two to four distinct trace lists of g pairs summing to s."""
    out: list[list[list[int]]] = []
    candidates = [[[s, 0]] * g, [[s // 2, s - s // 2]] * g]
    if g >= 2:
        candidates.append([[s, 0] if i % 2 == 0 else [0, s] for i in range(g)])
    if s >= 2:
        candidates.append([[1, s - 1]] * g)
    for traces in candidates:
        if traces not in out:
            out.append(traces)
    return out


def small_profiles() -> list[dict]:
    """Every shape-valid profile with n <= 64, weight 1-2, canonical order."""
    out = []

    def add(t, n, w, dL, dF, q, traces=None, disc=None):
        endo = {"type": t, "deg_L": dL, "deg_F": dF, "q": q}
        if traces is not None:
            endo["cm_traces"] = traces
        if disc is not None:
            endo["disc_one"] = disc
        out.append({"weight": w, "n": n, "endo": endo})

    for n in range(1, 65):
        for w in (1, 2):
            for d in _divisors(n):
                for disc in (None, False, True):
                    add("I", n, w, d, d, 1, disc=disc)
            for t in ("II", "III"):
                for dF in _divisors(n):
                    if (2 * n) % (4 * dF) == 0:
                        for disc in (None, False, True):
                            add(t, n, w, 4 * dF, dF, 2, disc=disc)
            for dF in _divisors(n):
                q = 1
                while 2 * dF * q * q <= 2 * n:
                    dL = 2 * dF * q * q
                    if (2 * n) % dL == 0:
                        for traces in _trace_lists(dF, (2 * n // dL) * q):
                            add("IV", n, w, dL, dF, q, traces=traces)
                    q += 1
    return out


def small_inputs() -> list[tuple[str, str]]:
    """(key, request text) for the exhaustive small-n part."""
    out = []
    for i, profile in enumerate(small_profiles()):
        for j, subs in enumerate(SUBFIELD_VARIANTS):
            text = json.dumps({"profile": profile, "subfields": subs})
            out.append((f"small.{i}.{j}", text))
    return out


def large_pick(seed: int, pool: list[dict]) -> list[dict]:
    """LARGE_PER_STRATUM pool entries per stratum, chosen by the seed."""
    rng = random.Random(f"{NAME}:{seed}:large")
    strata: dict[int, list[dict]] = {}
    for entry in pool:
        strata.setdefault(entry["stratum"], []).append(entry)
    return [e for s in sorted(strata) for e in rng.sample(strata[s], LARGE_PER_STRATUM)]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _classify_op(hk, text: str, span: str, tr) -> object:
    with tr.span("json.loads"):
        data = json.loads(text)
    with tr.span("core.profile_from_json"):
        profile = hk.core.profile_from_json(data["profile"])
        subs = data["subfields"]
        if subs is not None:
            subs = [hk.classifier.SubfieldDescriptor.from_json(s) for s in subs]
    try:
        with tr.span(span):
            outcome = hk.classifier.classify(profile, subs)
    except (hk.classifier.NotRealizableError, hk.classifier.InconsistentSubfieldError) as exc:
        return f"{type(exc).__name__}: {exc}"
    with tr.span("classifier.outcome_to_json"):
        return outcome.to_json()


def _golden_ops(hk) -> list[Op]:
    """Replay every golden row through the public API."""
    ops = []
    for i, cell in enumerate(harness.load_golden("table1.json")["cells"]):

        def call(tr, cell=cell):
            profile = hk.core.profile_from_json(cell["profile"])
            with tr.span("lefschetz.lefschetz_group"):
                return hk.lefschetz.lefschetz_group(profile).to_json()

        ops.append(Op(f"golden.table1.{i}", call, partial(check_equal, cell["group"]), GOLDEN_LIMIT_S))

    def call_table3(tr):
        with tr.span("classifier.table3"):
            return hk.classifier.table3()

    rows = harness.load_golden("table3.json")["rows"]
    ops.append(Op("golden.table3", call_table3, partial(check_equal, rows), GOLDEN_LIMIT_S))

    totaro = harness.load_golden("totaro_cases.json")
    cases = [(row["profile"], [False, row["parity"], row["case_index"]]) for row in totaro["exceptional"]]
    cases += [(row["profile"], [True, None, None]) for row in totaro["realizable"]]
    for i, (profile_json, expected) in enumerate(cases):

        def call(tr, profile_json=profile_json):
            profile = hk.core.profile_from_json(profile_json)
            with tr.span("realizability.realizable"):
                verdict = hk.realizability.realizable(profile)
            case = verdict.case
            if case is None or case.conditional:
                return [verdict.realizable, None, None]
            return [verdict.realizable, case.case.parity, case.case.index]

        ops.append(Op(f"golden.totaro.{i}", call, partial(check_equal, expected), GOLDEN_LIMIT_S))

    for i, row in enumerate(harness.load_golden("thm_2p_grid.json")["rows"]):

        def call(tr, row=row):
            profile = hk.core.profile_from_json(row["profile"])
            subs = [hk.classifier.SubfieldDescriptor.from_json(s) for s in row["subfields"]]
            with tr.span("classifier.classify"):
                out = hk.classifier.classify(profile, subs)
            return [out.status, [c.group.to_json() for c in out.candidates]]

        expected = ["determined", [row["group"]]]
        ops.append(Op(f"golden.thm2p.{i}", call, partial(check_equal, expected), GOLDEN_LIMIT_S))

    for i, row in enumerate(harness.load_golden("consequences_grid.json")["rows"]):

        def call(tr, row=row):
            endo = hk.core.profile_from_json({"weight": 1, "n": row["dim"], "endo": row["endo"]}).endo
            subs = tuple(hk.classifier.SubfieldDescriptor.from_json(s) for s in row["subfields"])
            ap = hk.consequences.AbelianProfile(dim=row["dim"], endo=endo, subfields=subs)
            equal, _ = hk.consequences.murty_equal(ap)
            with tr.span("consequences.hodge_status"):
                status = hk.consequences.hodge_status(ap)
            return [equal, status.to_json()]

        expected = [row["murty_equal"], row["status"]]
        ops.append(Op(f"golden.consequences.{i}", call, partial(check_equal, expected), GOLDEN_LIMIT_S))
    return ops


@dataclass
class Inputs:
    ops: list[Op]
    profiles: list[dict]  # every distinct profile, for the probe phase


def import_program():
    import hodgekit.classifier
    import hodgekit.consequences
    import hodgekit.core
    import hodgekit.lefschetz
    import hodgekit.numth
    import hodgekit.realizability

    return hodgekit


def requests(seed: int) -> tuple[list[tuple[str, str, str]], list[dict]]:
    """(key, request text, span name) in run order, plus the large slice.

    This is the whole input of the workload; it depends only on the seed.
    """
    large = harness.load_ref("classify_large.json")
    picked = large_pick(seed, large["pool"])
    reqs = [(key, text, "classifier.classify") for key, text in small_inputs()]
    for entry in picked:
        text = json.dumps({"profile": entry["profile"], "subfields": None})
        reqs.append((entry["key"], text, "classifier.classify_large_n"))
    mersenne = large["mersenne"]
    text = json.dumps({"profile": mersenne["profile"], "subfields": None})
    reqs.append((MERSENNE_KEY, text, "classifier.classify_large_n"))
    random.Random(f"{NAME}:{seed}:order").shuffle(reqs)
    return reqs, picked


def generate(seed: int) -> Inputs:
    hk = import_program()
    reqs, picked = requests(seed)
    small_refs = harness.REFS.joinpath("classify_small.txt").read_text().split()
    large = harness.load_ref("classify_large.json")
    width = len(SUBFIELD_VARIANTS)
    expected = {f"small.{i // width}.{i % width}": ref for i, ref in enumerate(small_refs)}
    for entry in picked:
        expected[entry["key"]] = entry["answer"]
    expected[MERSENNE_KEY] = large["mersenne"]["answer"]
    ops = []
    for key, text, span in reqs:
        ops.append(
            Op(key, partial(_classify_op, hk, text, span), partial(check_digest, expected[key]), CLASSIFY_LIMIT_S)
        )
    golden = _golden_ops(hk)
    rng = random.Random(f"{NAME}:{seed}:golden")
    for op in golden:
        ops.insert(rng.randrange(len(ops) + 1), op)
    profiles = small_profiles() + [e["profile"] for e in picked]
    return Inputs(ops, profiles)


def probe(inputs: Inputs, tr) -> None:
    """Time the layers ``classify`` calls internally, on the same profiles."""
    hk = import_program()
    for i, profile_json in enumerate(inputs.profiles):
        with tr.op(f"probe.{i}"):
            profile = hk.core.profile_from_json(profile_json)
            with tr.span("core.validate_profile"):
                hk.core.validate_profile(profile)
            with tr.span("realizability.realizable"):
                hk.realizability.realizable(profile)
            with tr.span("lefschetz.lefschetz_group"):
                hk.lefschetz.lefschetz_group(profile)
            with tr.span("numth.central_binomial_solve"):
                hk.numth.central_binomial_solve(2 * profile.n)


# metric name -> (span name, aggregation); see README.md for the meaning.
def cross_check(seed: int) -> list[str]:
    """Nothing beyond the operations: the golden replays are among them."""
    return []


def traced_extras(inputs: Inputs, tracer) -> list:
    probe(inputs, tracer)
    return []


LAYER_METRICS = {
    "core.profile_from_json_us": ("core.profile_from_json", "call_us"),
    "core.validate_profile_us": ("core.validate_profile", "call_us"),
    "realizability.realizable_us": ("realizability.realizable", "call_us"),
    "lefschetz.lefschetz_group_us": ("lefschetz.lefschetz_group", "call_us"),
    "classifier.classify_us": ("classifier.classify", "call_us"),
    "classifier.outcome_to_json_us": ("classifier.outcome_to_json", "call_us"),
    "consequences.hodge_status_us": ("consequences.hodge_status", "call_us"),
    "numth.central_binomial_solve_us": ("numth.central_binomial_solve", "call_us"),
    "classifier.classify_large_n_ms": ("classifier.classify_large_n", "pass_ms"),
    "classifier.table3_ms": ("classifier.table3", "pass_ms"),
}
