"""Benchmark of hodgekit: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify_sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` it makes the same calls for every
workload with spans on, writes the spans under ``perfbench/out`` and
prints the per-layer metrics.  The last line of stdout is the result
object.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import classify_sweep  # noqa: E402
import cli_oneshot  # noqa: E402
import cm_scan  # noqa: E402
import harness  # noqa: E402
import verify_engines  # noqa: E402

WORKLOADS = {m.NAME: m for m in (classify_sweep, cm_scan, verify_engines, cli_oneshot)}
SETUP_REPEATS = 5
SETUP_LIMIT_S = 60.0
CHILD_LIMIT_S = 150.0


# ---------------------------------------------------------------------------
# Passes: one pass runs every operation of the workload once
# ---------------------------------------------------------------------------


class Runner:
    """Runs passes of one workload and remembers the peak RSS seen.

    ``cli_oneshot`` runs its commands from this process.  Every other
    workload runs each pass in a fresh interpreter (``--child``), so no
    cache outlives a pass and each pass starts as a batch job would.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.peak_rss_mb = 0.0
        self.inputs = cli_oneshot.generate(seed) if name == cli_oneshot.NAME else None
        self.extra_results: list[harness.OpResult] = []  # traced extras

    def run_pass(self, tracer=harness.NULL_TRACER) -> tuple[list[harness.OpResult], float]:
        """One pass: its results, each with the host-speed scale measured
        around it, and the scale of the whole pass."""
        if self.name == cli_oneshot.NAME:
            speed = harness.Speed()
            results, rss = cli_oneshot.run_pass(self.inputs, speed, tracer)
            samples = speed.samples
        else:
            payload = run_child(self.name, self.seed, tracer.enabled)
            rss = payload["peak_rss_mb"]
            results = [harness.OpResult(*row) for row in payload["results"]]
            self.extra_results = [harness.OpResult(*row) for row in payload["extras"]]
            samples = payload["speed_samples"]
            tracer.absorb(payload["spans"], payload["counts"])
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return results, harness.CAL_REFERENCE_S / statistics.median(samples)



def child_pass(name: str, seed: int, traced: bool) -> None:
    """One pass of an in-process workload in this fresh interpreter;
    with tracing, also its traced extras.  Results as JSON on stdout."""
    module = WORKLOADS[name]
    tracer = harness.Tracer() if traced else harness.NULL_TRACER
    inputs = module.generate(seed)
    speed = harness.Speed()
    results = harness.run_ops(inputs.ops, tracer, speed)
    extras = module.traced_extras(inputs, tracer) if traced else []
    payload = {
        "results": [[r.key, r.seconds, r.status, r.detail, r.scale] for r in results],
        "extras": [[r.key, r.seconds, r.status, r.detail, r.scale] for r in extras],
        "speed_samples": speed.samples,
        "peak_rss_mb": harness.own_peak_rss_mb(),
        "spans": tracer.spans if traced else [],
        "counts": tracer.counts if traced else {},
    }
    sys.stdout.write(json.dumps(payload) + "\n")


def run_child(name: str, seed: int, traced: bool) -> dict:
    """The JSON payload of one child pass."""
    argv = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--child", name, "--seed", str(seed)]
    if traced:
        argv.append("--child-trace")
    proc = harness.run_process(argv, timeout=CHILD_LIMIT_S)
    if proc.timed_out:
        raise RuntimeError(f"{name} pass ran past {CHILD_LIMIT_S} s")
    if proc.code != 0:
        raise RuntimeError(f"{name} pass exited {proc.code}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> list[tuple[list[harness.OpResult], float]]:
    """Whole passes until the next one would end over half a pass late."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes


def setup_seconds(name: str, seed: int) -> list[harness.OpResult]:
    """Fresh-interpreter set-up times (import hodgekit, generate inputs),
    each with the host-speed scale sampled around its child process."""
    argv = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--setup-probe", name, "--seed", str(seed)]
    speed = harness.Speed()
    speed.begin()
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = harness.run_process(argv, timeout=SETUP_LIMIT_S)
        end = time.perf_counter()
        if proc.code != 0 or proc.timed_out:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out.append(harness.OpResult("setup", float(proc.stdout.strip().splitlines()[-1])))
        speed.add(out[-1], start, end)
    speed.finish()
    return out


def setup_probe(name: str, seed: int) -> None:
    WORKLOADS[name].import_program()
    WORKLOADS[name].generate(seed)
    print(repr(time.perf_counter() - _START))


# ---------------------------------------------------------------------------
# Verdicts and end-to-end metrics
# ---------------------------------------------------------------------------


def verdict(results: list[harness.OpResult], known: dict, problems: list[str]) -> dict:
    """Counts, and whether every failure is one of the known defects."""
    failures = [r for r in results if r.failed]
    unexpected = sorted({f"{r.key}: {r.status} {r.detail}" for r in failures if r.key not in known})
    return {
        "correct": not unexpected and not problems,
        "attempted": len(results),
        "failed": len(failures),
        "unexpected_failures": unexpected[:20],
        "known_defects_failed": sorted({r.key for r in failures if r.key in known}),
        "cross_check_problems": problems,
    }


def latency_metrics(passes: list[list[harness.OpResult]]) -> tuple[dict, dict]:
    """ops_per_s, op_p50_ms, op_tail_ms from each operation's median
    latency over the passes, and the sample count and tail percentile."""
    values = list(harness.per_op_medians(passes).values())
    tail_value, tail_pct = harness.tail(values)
    metrics = {
        "ops_per_s": len(values) / sum(values),
        "op_p50_ms": statistics.median(values) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }
    return metrics, {"latency_samples": len(values), "tail_percentile": round(tail_pct, 3)}


def scaled(results: list[harness.OpResult]) -> list[harness.OpResult]:
    """Latencies at the reference host speed."""
    return [harness.OpResult(r.key, r.seconds * r.scale, r.status, r.detail) for r in results]


def end_to_end(passes, setup: list[harness.OpResult], rss_mb: float) -> tuple[dict, dict]:
    """The six end-to-end metrics, times at the reference host speed."""
    timed, info = latency_metrics([scaled(results) for results, _scale in passes])
    raw, _ = latency_metrics([results for results, _scale in passes])
    flat = [r for results, _scale in passes for r in results]
    failed = sum(1 for r in flat if r.failed)
    metrics = {
        "setup_s": (statistics.median(r.seconds * r.scale for r in setup), "s"),
        "ops_per_s": (timed["ops_per_s"], "1/s"),
        "op_p50_ms": (timed["op_p50_ms"], "ms"),
        "op_tail_ms": (timed["op_tail_ms"], "ms"),
        "ok_ratio": (1.0 - failed / len(flat), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info.update(
        passes=len(passes),
        speed_scales=[scale for _results, scale in passes],
        setup_samples=[[r.seconds, r.scale] for r in setup],
        unscaled={"setup_s": statistics.median(r.seconds for r in setup), **raw},
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(name, seed)
    runner = Runner(name, seed)
    passes = measure(runner, seconds)
    flat = [r for results, _scale in passes for r in results]
    module = WORKLOADS[name]
    result = verdict(flat, module.KNOWN_DEFECTS, module.cross_check(seed))
    metrics, info = end_to_end(passes, setup, runner.peak_rss_mb)
    info.update({k: result.pop(k) for k in ("unexpected_failures", "known_defects_failed", "cross_check_problems")})
    return {**result, "metrics": metrics}, info


def run_all(seed: int, seconds: float) -> tuple[dict, dict]:
    """Every workload untraced, one after another; metrics by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    infos = {}
    for name in WORKLOADS:
        result, infos[name] = run_untraced(name, seed, seconds)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"{name:15s} {metric:12s} {value['value']:14.6g} {value['unit']}")
        print(f"{name:15s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {infos[name]['known_defects_failed']}")
    return combined, infos


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer: harness.Tracer, scales: dict[str, float]) -> dict:
    """Per-layer metrics from the spans: self time per call or per pass,
    at the reference host speed (each workload's traced-pass scale)."""
    by_name: dict = {}
    for name, op, seconds in harness.self_times(tracer.spans):
        by_name.setdefault(name, []).append((op, seconds * scales[op.split("/", 1)[0]]))
    out = {}
    for module in WORKLOADS.values():
        for metric, (span, how, *op_key) in module.LAYER_METRICS.items():
            if how == "count":
                out[metric] = {"value": tracer.counts[span], "unit": "count"}
                continue
            samples = [s for op, s in by_name[span] if not op_key or op == f"{module.NAME}/{op_key[0]}"]
            if how == "pass_ms":
                value, unit = sum(samples) * 1e3, "ms"
            elif how == "call_ms":
                value, unit = statistics.median(samples) * 1e3, "ms"
            else:
                value, unit = statistics.median(samples) * 1e6, "us"
            out[metric] = {"value": value, "unit": unit}
    return out


def busy_seconds(results: list[harness.OpResult]) -> float:
    """Time spent in the operations, at the reference host speed."""
    return sum(r.seconds * r.scale for r in results)


def run_traced(name: str, seed: int) -> dict:
    """Every workload once with spans, plus its probe phase."""
    tracer = harness.Tracer()
    runners = {n: Runner(n, seed) for n in WORKLOADS}
    passes = {}
    busy = {}
    scales = {}
    for n, runner in runners.items():
        tracer.prefix = f"{n}/"
        results, scales[n] = runner.run_pass(tracer)
        busy[n] = busy_seconds(results)
        passes[n] = results + runner.extra_results
        if n == cli_oneshot.NAME:
            cli_oneshot.probe(runner.inputs, tracer)
    untraced = busy_seconds(runners[name].run_pass()[0])
    overhead = {
        "workload": name,
        "traced_busy_s": busy[name],
        "untraced_busy_s": untraced,
        "overhead_s": busy[name] - untraced,
        "overhead_pct": 100.0 * (busy[name] - untraced) / untraced,
        "spans": len(tracer.spans),
    }
    known = {k: v for m in WORKLOADS.values() for k, v in m.KNOWN_DEFECTS.items()}
    problems = [p for m in WORKLOADS.values() for p in m.cross_check(seed)]
    result = verdict([r for results in passes.values() for r in results], known, problems)
    metrics = layer_metrics(tracer, scales)
    info = {k: result.pop(k) for k in ("unexpected_failures", "known_defects_failed", "cross_check_problems")}
    info["tracing_overhead"] = overhead
    info["baseline"] = baseline_table(metrics, passes[verify_engines.NAME], tracer.spans)
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"trace-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(
            {
                "environment": harness.environment(),
                "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                "spans": tracer.spans,
                "counts": tracer.counts,
                "metrics": metrics,
                **info,
            },
            handle,
        )
    info["spans_file"] = str(path.relative_to(harness.ROOT))
    return {**result, "metrics": metrics}, info


def baseline_table(m: dict, verify_pass: list[harness.OpResult], spans: list[list]) -> list[str]:
    """The ROADMAP baseline rows, from this traced run.  Each share
    compares spans of one phase, so drift in host speed cancels."""

    def v(name):
        return m[name]["value"]

    replay: dict[str, float] = {}
    for name, op, seconds in harness.self_times(spans):
        if op.startswith(f"{cm_scan.NAME}/probe."):
            replay[name] = replay.get(name, 0.0) + seconds
    scan_work = ("cmtools.enumerate_cm_types", "cmtools.translate_lattice", "intlinalg.integer_rank",
                 "cmtools.block_systems")
    scan_share = replay["cmtools.block_systems"] / sum(replay[n] for n in scan_work)
    cold = next(r for r in verify_pass if r.key == "cold")
    cold_share = cold.seconds * cold.scale / busy_seconds(verify_pass)
    return [
        f"classify, one call: {v('classifier.classify_us'):.1f} us",
        f"realizable: {v('realizability.realizable_us'):.1f} us",
        f"profile_from_json: {v('core.profile_from_json_us'):.1f} us",
        f"CLI classify wall: {v('cli.classify_process_ms'):.1f} ms; importing hodgekit.cli "
        f"{v('cli.import_ms'):.1f} ms of it; bare interpreter {v('cli.interpreter_ms'):.1f} ms",
        f"tankeev_scan cyclic:14: {v('cmtools.tankeev_scan_cyclic14_ms'):.1f} ms",
        f"tankeev_scan dihedral:8: {v('cmtools.tankeev_scan_dihedral8_ms'):.1f} ms",
        f"tankeev_scan abelian:2,2,2,2: {v('cmtools.tankeev_scan_abelian2222_ms'):.1f} ms",
        f"block_systems, replayed once per CM type: {v('cmtools.block_systems_ms'):.1f} ms, "
        f"{100 * scan_share:.0f}% of the scans' work replayed call by call "
        f"(enumerate_cm_types, translate_lattice, integer_rank, block_systems)",
        f"admissible_factors rank <= 16: cold {v('rootsys.admissible_factors_cold_ms'):.1f} ms "
        f"({100 * cold_share:.0f}% of the verify_engines operations' time), "
        f"warm {v('rootsys.admissible_factors_warm_us'):.1f} us",
        f"numth composite check k <= 20: {v('numth.no_prime_double_is_central_binomial_ms'):.1f} ms",
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--child-trace", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    harness.use_source_tree()
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.child:
        child_pass(args.child, args.seed, args.child_trace)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all" and args.trace:
        parser.error("the traced run covers every workload; name one for its overhead")
    if args.workload == "all":
        result, info = run_all(args.seed, args.seconds)
    elif args.trace:
        result, info = run_traced(args.workload, args.seed)
    else:
        result, info = run_untraced(args.workload, args.seed, args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": harness.environment(), **info}
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
