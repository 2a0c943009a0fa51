"""Workload ``cli_oneshot``: one-shot processes running ``hodgekit.cli``.

One command per slot below, in a seeded order, each in a fresh
interpreter and each waited for before the next starts (one child at a
time).  Every subcommand appears on a small input.  A command passes
when its exit code and its stdout equal the reference and its stderr
holds no traceback.  The seed picks one variant per slot.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import harness

NAME = "cli_oneshot"
PROCESS_LIMIT_S = 60.0
PROBE_REPEATS = 5
KNOWN_DEFECTS = {
    "numth_kmax2": "numth verify --k-max 2 exits 1 with a ValueError traceback, not 2",
    "classify_balanced_string": 'classify accepts "balanced": "false" as true and exits 0, not 2',
}


def _p(t, n, dL, dF, q, w=1, traces=None, disc=None):
    endo = {"type": t, "deg_L": dL, "deg_F": dF, "q": q}
    if traces is not None:
        endo["cm_traces"] = traces
    if disc is not None:
        endo["disc_one"] = disc
    return json.dumps({"weight": w, "n": n, "endo": endo})


BALANCED = [{"deg_E": 2, "balanced": True}]
BALANCED_GALOIS = [{"deg_E": 2, "balanced": True, "galois_L": True}]

# slot -> variants; a variant is (argv, stdin, {file name: JSON content}).
# "@name" in argv stands for the path of the file written from the map.
SLOTS = {
    "validate": [
        (["validate"], _p("I", 4, 2, 2, 1), {}),
        (["validate"], _p("IV", 6, 4, 2, 1, traces=[[1, 2], [2, 1]]), {}),
        (["validate"], _p("II", 4, 4, 1, 2, w=2), {}),
    ],
    "validate_invalid": [
        (["validate"], _p("I", 3, 2, 2, 1), {}),
        (["validate"], _p("II", 4, 4, 1, 1), {}),
        (["validate"], _p("IV", 4, 4, 2, 1, traces=[[1, 1]]), {}),
    ],
    "realizable": [
        (["realizable"], _p("III", 4, 4, 1, 2, disc=False), {}),
        (["realizable"], _p("IV", 4, 4, 2, 1, traces=[[2, 0], [1, 1]]), {}),
        (["realizable"], _p("I", 6, 2, 2, 1, w=2), {}),
    ],
    "realizable_exceptional": [
        (["realizable"], _p("III", 2, 4, 1, 2), {}),
        (["realizable"], _p("II", 2, 4, 1, 2, w=2), {}),
        (["realizable"], _p("IV", 4, 4, 2, 1, traces=[[1, 1], [1, 1]]), {}),
    ],
    "lefschetz": [
        (["lefschetz"], _p("I", 6, 2, 2, 1), {}),
        (["lefschetz"], _p("II", 4, 4, 1, 2, disc=False), {}),
        (["lefschetz"], _p("IV", 4, 4, 2, 1, w=2, traces=[[2, 0], [1, 1]]), {}),
    ],
    "classify": [
        (["classify"], _p("I", 6, 1, 1, 1), {}),
        (["classify"], _p("I", 4, 1, 1, 1, w=2), {}),
        (["classify"], _p("IV", 10, 2, 1, 1, traces=[[3, 7]]), {}),
    ],
    "classify_subfields": [
        (["classify", "--subfields", "@subs.json"], _p("IV", 6, 2, 1, 1, traces=[[3, 3]]), {"subs.json": BALANCED}),
        (["classify", "--subfields", "@subs.json"], _p("IV", 10, 4, 2, 1, w=2, traces=[[1, 4], [4, 1]]), {"subs.json": BALANCED}),
        (
            ["classify", "--subfields", "@subs.json"],
            _p("IV", 10, 20, 10, 1, traces=[[0, 1], [1, 0]] * 5),
            {"subs.json": BALANCED_GALOIS},
        ),
    ],
    "classify_not_realizable": [
        (["classify"], _p("III", 2, 4, 1, 2), {}),
        (["classify"], _p("IV", 4, 8, 1, 2, w=2, traces=[[1, 1]]), {}),
        (["classify"], _p("I", 2, 2, 2, 1, w=2), {}),
    ],
    "classify_table3": [(["classify", "--table3"], "", {})],
    "classify_balanced_string": [
        (
            ["classify", "--subfields", "@subs.json"],
            _p("IV", 6, 2, 1, 1, traces=[[3, 3]]),
            {"subs.json": [{"deg_E": 2, "balanced": "false"}]},
        ),
    ],
    "classify_malformed": [(["classify"], '{"weight": 1, "n": ', {})],
    "weights_dim": [
        (["weights", "dim", "A", "3", "0,1,0"], "", {}),
        (["weights", "dim", "D", "5", "0,0,0,0,1"], "", {}),
        (["weights", "dim", "E", "7", "0,0,0,0,0,0,1"], "", {}),
    ],
    "weights_autodual": [
        (["weights", "autodual", "D", "4", "1,0,0,0"], "", {}),
        (["weights", "autodual", "A", "3", "0,1,0"], "", {}),
        (["weights", "autodual", "B", "3", "0,0,1"], "", {}),
    ],
    "weights_length": [
        (["weights", "length", "C", "3", "1,0,0"], "", {}),
        (["weights", "length", "A", "4", "0,1,0,0"], "", {}),
        (["weights", "length", "D", "4", "0,0,0,1"], "", {}),
    ],
    "weights_verify_table2": [
        (["weights", "verify-table2", "--max-rank", "3"], "", {}),
        (["weights", "verify-table2", "--max-rank", "4"], "", {}),
        (["weights", "verify-table2", "--max-rank", "5"], "", {}),
    ],
    "cm_rank": [
        (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2", "--invariants"], "", {}),
        (["cm", "--group", "cyclic:8", "rank", "--theta", "0,1,2,7", "--invariants"], "", {}),
        (["cm", "--group", "cyclic:10", "rank", "--theta", "0,1,2,3,9", "--invariants"], "", {}),
    ],
    "cm_primitive": [
        (["cm", "--group", "dihedral:4", "primitive", "--theta", "0,1,4,5"], "", {}),
        (["cm", "--group", "cyclic:8", "primitive", "--theta", "0,1,2,3"], "", {}),
        (["cm", "--group", "cyclic:6", "primitive", "--theta", "0,1,5"], "", {}),
    ],
    "cm_scan": [
        (["cm", "--group", "cyclic:8", "scan"], "", {}),
        (["cm", "--group", "dihedral:4", "scan"], "", {}),
        (["cm", "--group", "abelian:2,4", "scan"], "", {}),
    ],
    "numth_verify": [
        (["numth", "verify", "--k-max", "6"], "", {}),
        (["numth", "verify", "--k-max", "8"], "", {}),
        (["numth", "verify", "--k-max", "10"], "", {}),
    ],
    "numth_kmax2": [(["numth", "verify", "--k-max", "2"], "", {})],
    "abelian_status": [
        (["abelian", "status"], json.dumps({"dim": 6, "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}}), {}),
        (
            ["abelian", "status"],
            json.dumps({"dim": 6, "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[3, 3]]},
                        "subfields": BALANCED}),
            {},
        ),
        (["abelian", "status"], json.dumps({"dim": 6, "endo": {"type": "III", "deg_L": 4, "deg_F": 1, "q": 2}}), {}),
    ],
}


@dataclass
class Command:
    key: str  # the slot
    variant: int
    argv: list[str]  # arguments after ``python -m hodgekit.cli``
    stdin: str
    expected_code: int
    expected_stdout: str


def materialize(slot: str, variant: int) -> tuple[list[str], str]:
    """Write the variant's input files; return its argv and stdin."""
    argv, stdin, files = SLOTS[slot][variant]
    harness.OUT.mkdir(exist_ok=True)
    paths = {}
    for name, content in files.items():
        path = harness.OUT / f"cli-{slot}-{variant}-{name}"
        path.write_text(json.dumps(content))
        paths["@" + name] = str(path.relative_to(harness.ROOT))
    return [paths.get(a, a) for a in argv], stdin


@dataclass
class Inputs:
    commands: list[Command]


def import_program():
    import hodgekit.cli

    return hodgekit


def generate(seed: int) -> Inputs:
    refs = harness.load_ref("cli_oneshot.json")["slots"]
    rng = random.Random(f"{NAME}:{seed}")
    commands = []
    for slot in SLOTS:
        variant = rng.randrange(len(SLOTS[slot]))
        argv, stdin = materialize(slot, variant)
        ref = refs[slot][variant]
        commands.append(Command(slot, variant, argv, stdin, ref["code"], ref["stdout"]))
    rng.shuffle(commands)
    return Inputs(commands)


def cross_check(seed: int) -> list[str]:
    """Nothing beyond the operations: each checks its exit code and stdout."""
    return []


# ``python -m hodgekit.cli``, then the process's own peak RSS on stderr.
CLI_MAIN = """
import runpy, sys
try:
    runpy.run_module("hodgekit.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write("\\n" + status.read())
"""


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN] + argv


def judge(cmd: Command, proc: harness.Proc) -> harness.OpResult:
    if proc.timed_out:
        return harness.OpResult(cmd.key, proc.seconds, harness.TIMEOUT, f"over {PROCESS_LIMIT_S} s")
    if "Traceback" in proc.stderr:
        return harness.OpResult(cmd.key, proc.seconds, harness.CRASH, proc.stderr.strip().splitlines()[-1][:300])
    if proc.code != cmd.expected_code:
        return harness.OpResult(cmd.key, proc.seconds, harness.BAD_EXIT, f"exit {proc.code}, expected {cmd.expected_code}")
    if proc.stdout != cmd.expected_stdout:
        return harness.OpResult(cmd.key, proc.seconds, harness.WRONG, f"stdout {proc.stdout[:200]!r}")
    return harness.OpResult(cmd.key, proc.seconds)


def run_pass(inputs: Inputs, speed: harness.Speed, tracer=harness.NULL_TRACER):
    """One pass over the commands, sampling the host speed between them;
    returns the results and the peak RSS over the children."""
    results = []
    peak = 0.0
    speed.begin()
    for cmd in inputs.commands:
        with tracer.op(cmd.key):
            start = time.perf_counter()
            proc = harness.run_process(cli_argv(cmd.argv), cmd.stdin, PROCESS_LIMIT_S)
            end = time.perf_counter()
            tracer.record("cli.process", proc.seconds)
        peak = max(peak, harness.peak_rss_mb(proc.stderr))
        results.append(judge(cmd, proc))
        speed.add(results[-1], start, end)
    speed.finish()
    return results, peak


def probe(inputs: Inputs, tr) -> None:
    """Interpreter floor, import cost, and each command run in process."""
    hk = import_program()
    with tr.op("probe.interpreter"):
        for _ in range(PROBE_REPEATS):
            tr.record("cli.interpreter", harness.run_process([sys.executable, "-c", "pass"]).seconds)
    code = "import time; t = time.perf_counter(); import hodgekit.cli; print(time.perf_counter() - t)"
    with tr.op("probe.import"):
        for _ in range(PROBE_REPEATS):
            proc = harness.run_process([sys.executable, "-c", code])
            tr.record("cli.import", float(proc.stdout))
    for cmd in inputs.commands:
        with tr.op(f"probe.inproc.{cmd.key}"):
            sys_stdin = sys.stdin
            sys.stdin = io.StringIO(cmd.stdin)
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    try:
                        hk.cli.run(cmd.argv)
                    except Exception:  # the same defects as out of process
                        pass
                    tr.record("cli.run_inproc", time.perf_counter() - start)
            finally:
                sys.stdin = sys_stdin


LAYER_METRICS = {
    "cli.interpreter_ms": ("cli.interpreter", "call_ms"),
    "cli.import_ms": ("cli.import", "call_ms"),
    "cli.run_inproc_ms": ("cli.run_inproc", "call_ms"),
    "cli.process_ms": ("cli.process", "call_ms"),
    "cli.classify_process_ms": ("cli.process", "call_ms", "classify"),
}
