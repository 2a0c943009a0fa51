"""Tests of the benchmark itself: inputs, references, names, machinery.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import time

import pytest

import harness

harness.use_source_tree()

import classify_sweep  # noqa: E402
import cli_oneshot  # noqa: E402
import cm_scan  # noqa: E402
import run  # noqa: E402
import verify_engines  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


# -- inputs ------------------------------------------------------------------


def test_requests_are_a_function_of_the_seed():
    assert classify_sweep.requests(7) == classify_sweep.requests(7)
    assert classify_sweep.requests(7) != classify_sweep.requests(8)


def test_other_workloads_are_a_function_of_the_seed():
    def cm_keys(seed):
        inputs = cm_scan.generate(seed)
        return [op.key for op in inputs.ops], inputs.queries

    assert cm_keys(3) == cm_keys(3)
    assert cm_keys(3) != cm_keys(4)
    hk = verify_engines.import_program()
    assert [c[0] for c in verify_engines.calls(hk, 3)] == [c[0] for c in verify_engines.calls(hk, 3)]
    picks = [(c.key, c.variant, c.argv, c.stdin) for c in cli_oneshot.generate(3).commands]
    assert picks == [(c.key, c.variant, c.argv, c.stdin) for c in cli_oneshot.generate(3).commands]


def test_small_profiles_are_shape_valid_and_distinct():
    hk = classify_sweep.import_program()
    profiles = classify_sweep.small_profiles()
    assert len(profiles) == 5516
    assert len({json.dumps(p, sort_keys=True) for p in profiles}) == len(profiles)
    for p in profiles:
        assert hk.core.validate_profile(hk.core.profile_from_json(p)) == []


def test_large_slice_has_three_entries_per_stratum():
    pool = harness.load_ref("classify_large.json")["pool"]
    picked = classify_sweep.large_pick(5, pool)
    assert [e["stratum"] for e in picked] == [s for s in range(64) for _ in range(3)]
    assert len({e["key"] for e in picked}) == len(picked)
    ns = [e["profile"]["n"] for e in picked]
    assert 10 ** 6 <= min(ns) and max(ns) < 1.1 * 10 ** 11


# -- references --------------------------------------------------------------


def test_reference_files_cover_every_operation():
    small = harness.REFS.joinpath("classify_small.txt").read_text().split()
    assert len(small) == len(classify_sweep.small_inputs())
    hk = verify_engines.import_program()
    refs = harness.load_ref("verify_engines.json")["answers"]
    assert sorted(refs) == sorted(c[0] for c in verify_engines.calls(hk, 0))
    cli = harness.load_ref("cli_oneshot.json")["slots"]
    assert {k: len(v) for k, v in cli.items()} == {k: len(v) for k, v in cli_oneshot.SLOTS.items()}
    models = harness.load_ref("cm_scan.json")["models"]
    assert set(models) == set(cm_scan.SCAN_MODELS + cm_scan.TRACE_MODELS)


def test_classify_answers_match_references_on_a_sample():
    inputs = classify_sweep.generate(11)
    sample = random.Random(0).sample(inputs.ops, 400)
    sample = [op for op in sample if op.key != classify_sweep.MERSENNE_KEY]
    results = harness.run_ops(sample)
    assert [r for r in results if r.failed] == []


def test_cm_answers_match_references_and_fraction_ranks():
    inputs = cm_scan.generate(2)
    queries = [op for op in inputs.ops if op.key.startswith("query.")][:40]
    assert [r for r in harness.run_ops(queries) if r.failed] == []
    assert cm_scan.cross_check(2) == []


def test_independent_generators_match_the_program():
    hk = cm_scan.import_program()
    for spec in cm_scan.SCAN_MODELS + cm_scan.TRACE_MODELS:
        group = cm_scan._closure(cm_scan._model_generators(spec))
        assert group == set(cm_scan.build_model(hk, spec).elements), spec


def test_closed_forms_match_the_program():
    assert verify_engines.cross_check(0) == []


def test_verify_engine_answers_match_references():
    hk = verify_engines.import_program()
    ops = [op for op in verify_engines.operations(hk, 1) if not op.key.startswith("warm.1")]
    ops = [op for op in ops if op.key != "cold"][:120]
    assert [r for r in harness.run_ops(ops) if r.failed] == []


# -- names -------------------------------------------------------------------


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_names_and_units_match_benchmark_json():
    passes = [([harness.OpResult(f"op{i}", 0.001 * (i + 1)) for i in range(30)], 1.0)]
    metrics, _info = run.end_to_end(passes, [harness.OpResult("setup", 0.5)], 10.0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    produced = {}
    for module in run.WORKLOADS.values():
        for name, (_span, how, *_op) in module.LAYER_METRICS.items():
            produced[name] = {"call_us": "us", "call_ms": "ms", "pass_ms": "ms", "count": "count"}[how]
    assert produced == declared


# -- machinery ---------------------------------------------------------------


def test_time_limit_interrupts_a_pure_python_loop():
    def spin(tr):
        while True:
            pass

    start = time.perf_counter()
    (result,) = harness.run_ops([harness.Op("spin", spin, lambda raw: "", 0.2)])
    assert result.status == harness.TIMEOUT
    assert time.perf_counter() - start < 2.0


def test_wrong_answers_and_exceptions_are_failures():
    ops = [
        harness.Op("wrong", lambda tr: 1, lambda raw: "" if raw == 2 else "differs", 1.0),
        harness.Op("raises", lambda tr: 1 // 0, lambda raw: "", 1.0),
        harness.Op("right", lambda tr: 2, lambda raw: "" if raw == 2 else "differs", 1.0),
    ]
    statuses = [r.status for r in harness.run_ops(ops)]
    assert statuses == [harness.WRONG, harness.CRASH, harness.OK]


def test_host_speed_scale_uses_samples_around_each_op():
    speed = harness.Speed()
    speed.samples = [0.0018, 0.0036, 0.0018, 0.0009]
    speed._times = [1.0, 1.1, 1.2, 5.0]
    near = harness.OpResult("near", 0.01)
    alone = harness.OpResult("alone", 0.01)
    late = harness.OpResult("late", 1.0, harness.TIMEOUT)
    speed.add(near, 1.05, 1.06)
    speed.add(alone, 3.0, 3.1)
    speed.add(late, 3.2, 4.2)
    speed.finish()
    assert near.scale == pytest.approx(2 * 0.0018 / (0.0018 + 0.0036))  # the samples around it
    assert alone.scale == pytest.approx(2 * 0.0018 / (0.0018 + 0.0009))
    assert late.scale == 1.0  # a time limit is wall-clock time


def test_peak_rss_is_read_from_vmhwm():
    assert harness.peak_rss_mb("Name:\tpython3\nVmHWM:\t    2048 kB\nVmRSS:\t1024 kB\n") == 2.0
    assert harness.peak_rss_mb("") == 0.0
    assert harness.own_peak_rss_mb() > 0


def test_self_time_subtracts_child_spans():
    spans = [[0, -1, "a", "outer", 0, 100], [1, 0, "a", "inner", 10, 40], [2, 0, "a", "inner", 50, 60]]
    got = harness.self_times(spans)
    assert got == [("outer", "a", 60e-9), ("inner", "a", 30e-9), ("inner", "a", 10e-9)]


@pytest.mark.parametrize("n, index", [(5, 2), (21, 10), (100, 89), (1000, 989)])
def test_tail_has_ten_samples_beyond(n, index):
    values = list(range(n))
    value, pct = harness.tail(values)
    assert value == index
    if n > 2 * harness.TAIL_BEYOND:
        assert sum(v > value for v in values) == harness.TAIL_BEYOND


def test_known_defects_do_not_make_a_run_incorrect_but_others_do():
    known = {"k": "a known defect"}
    bad = harness.OpResult("k", 1.0, harness.TIMEOUT)
    good = harness.OpResult("x", 1.0)
    assert run.verdict([bad, good], known, [])["correct"] is True
    assert run.verdict([bad, harness.OpResult("x", 1.0, harness.WRONG)], known, [])["correct"] is False
    assert run.verdict([good], known, ["cross-check"])["correct"] is False
