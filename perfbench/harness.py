"""Shared machinery: paths, per-op time limits, spans, statistics.

Every workload module builds its operations on these pieces.  An
operation is one closed-loop request: the benchmark calls into
``hodgekit``, waits for the answer, and only then sends the next one.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH_DIR / "out"

# Number of samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def use_source_tree() -> None:
    """Make ``import hodgekit`` resolve to the checkout's ``src``."""
    if not (SRC / "hodgekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no hodgekit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def digest(text: str) -> str:
    """Short content hash used to store reference answers compactly."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    """The byte-stable JSON form of an answer (key order preserved)."""
    return json.dumps(obj, separators=(",", ":"))


def check_digest(expected: str, raw) -> str:
    """"" when the answer's digest starts with the reference digest.

    A string answer (an error class and message) is hashed as is, any
    other answer in its canonical JSON form.
    """
    got = digest(raw if isinstance(raw, str) else canonical(raw))[: len(expected)]
    return "" if got == expected else f"answer digest {got} != {expected}"


def check_equal(expected, raw) -> str:
    return "" if raw == expected else f"got {canonical(raw)[:200]}"


def load_ref(name: str):
    with open(REFS / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_golden(name: str):
    with open(GOLDEN / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Per-op time limit
# ---------------------------------------------------------------------------


class OpTimeout(BaseException):
    """Raised inside an operation that ran past its time limit.

    A BaseException, so that ``except Exception`` in the program under
    test cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def alarm_handler():
    """Install the SIGALRM handler that turns an expired limit into
    OpTimeout; ``arm`` then sets the limit of each operation.  The alarm
    also interrupts pure-Python loops, which is what a hang in this
    program looks like."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def arm(seconds: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, seconds)


# ---------------------------------------------------------------------------
# Operations and their outcomes
# ---------------------------------------------------------------------------

OK = "ok"
WRONG = "wrong_answer"
TIMEOUT = "timeout"
CRASH = "uncaught_exception"
BAD_EXIT = "bad_exit"


@dataclass
class OpResult:
    """One attempted operation: its stable key, latency and verdict."""

    key: str
    seconds: float
    status: str = OK
    detail: str = ""
    scale: float = 1.0  # host-speed scale measured around this op

    @property
    def failed(self) -> bool:
        return self.status != OK


@dataclass
class Op:
    """An in-process operation.

    ``call(tracer)`` does the work and returns the raw answer; ``check``
    maps it to "" when it equals the known answer, else to a short
    description of the mismatch.  Checking runs outside the timed call.
    """

    key: str
    call: object
    check: object
    limit: float


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# Time of one calibration sample on the reference host (Python 3.11 on a
# shared 2-vCPU Xeon VM).  Reported times are scaled to that speed.
CAL_REFERENCE_S = 0.0018
CAL_EVERY_S = 0.01
SLOW_OP_S = 0.001


def _calibration_work() -> int:
    """A fixed pure-Python loop: calls, tuples, dict and integer work."""
    table: dict = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i & 7)
        table[key] = table.get(key, 0) + i
        acc += (i * 31) % 13
        acc ^= len([i, acc & 255, key]) + (hash(key) & 7)
    return acc


class Speed:
    """Host-speed samples taken between the operations of one pass.

    The host is shared, and its speed drifts by tens of percent within
    minutes and switches within seconds.  The loop above runs no hodgekit
    code, so the reference time over its time measures the host's speed,
    and a latency times that scale is the latency at the reference
    speed.  Samples are taken outside the timed calls: right after every
    operation slower than SLOW_OP_S, and after a faster one once
    CAL_EVERY_S has passed since the last sample.  An operation's scale
    comes from the mean of the last sample before it and the first one
    after it.  An operation that ran into its time limit keeps scale 1:
    the limit is wall-clock time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._times: list[float] = []  # midpoint of each sample
        self._ops: list[tuple[OpResult, float, float]] = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        _calibration_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._times.append((start + end) / 2)
        self._next = end + CAL_EVERY_S

    def begin(self) -> None:
        """First sample, after one unmeasured warm-up run of the loop."""
        if not self.samples:
            _calibration_work()
            self.sample()

    def add(self, result: OpResult, start: float, end: float) -> None:
        """Note an operation that ran from start to end; sample if due."""
        self._ops.append((result, start, end))
        if result.seconds >= SLOW_OP_S or time.perf_counter() >= self._next:
            self.sample()

    def finish(self) -> None:
        """Sample once more, then set the scale of every noted operation."""
        self.sample()
        for result, start, end in self._ops:
            if result.status == TIMEOUT:
                continue
            before = self.samples[max(bisect.bisect_left(self._times, start) - 1, 0)]
            after = self.samples[bisect.bisect_right(self._times, end)]
            result.scale = 2 * CAL_REFERENCE_S / (before + after)
        self._ops = []


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def op(self, key: str):
        return self._null

    def count(self, name: str, value: int) -> None:
        pass

    def record(self, name: str, seconds: float) -> None:
        pass

    def absorb(self, spans: list[list], counts: dict[str, int]) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans in memory: id, parent, op id, name, start, end.

    Spans of one operation share its op id; ``op`` opens the top span of
    an operation and every span opened inside it is its descendant.
    """

    enabled = True

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, self._op, name, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def op(self, key: str):
        outer = self._op
        self._op = self.prefix + key
        try:
            with self.span("op"):
                yield
        finally:
            self._op = outer

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name: str, seconds: float) -> None:
        """A span measured elsewhere (for example inside a child),
        ending now, as a child of the open span."""
        end = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [len(self.spans), parent, self._op, name, end - int(seconds * 1e9), end]
        )

    def absorb(self, spans: list[list], counts: dict[str, int]) -> None:
        """Append spans recorded by a child process, renumbered; a span's
        id is its index in ``spans``."""
        base = len(self.spans)
        for sid, parent, op, name, start, end in spans:
            self.spans.append(
                [
                    sid + base,
                    parent + base if parent >= 0 else -1,
                    self.prefix + op,
                    name,
                    start,
                    end,
                ]
            )
        for name, value in counts.items():
            self.count(name, value)


def self_times(spans: list[list]) -> list[tuple[str, str, float]]:
    """(name, op id, self seconds) per span: duration minus child spans.

    Children run inside their parent and one after another, so the time
    they cover is the sum of their durations.
    """
    child_total = [0] * len(spans)
    for _sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child_total[parent] += end - start
    return [
        (name, op, (end - start - child_total[sid]) / 1e9)
        for sid, _parent, op, name, start, end in spans
    ]


def run_ops(ops: list[Op], tracer=NULL_TRACER, speed: Speed | None = None) -> list[OpResult]:
    """Run operations one after another, each under its time limit,
    sampling the host speed around them when ``speed`` is given."""
    results = []
    clock = time.perf_counter
    if speed:
        speed.begin()
    with alarm_handler():
        for op in ops:
            raw = None
            status = OK
            detail = ""
            with tracer.op(op.key):
                arm(op.limit)
                start = clock()
                try:
                    try:
                        raw = op.call(tracer)
                    finally:
                        end = clock()
                        arm(0)
                except OpTimeout:
                    status, detail = TIMEOUT, f"over {op.limit} s"
                except Exception as exc:  # any escape is a failed op
                    status, detail = CRASH, f"{type(exc).__name__}: {exc}"
            if status == OK:
                detail = op.check(raw)
                if detail:
                    status = WRONG
            results.append(OpResult(op.key, end - start, status, detail[:300]))
            if speed:
                speed.add(results[-1], start, end)
    if speed:
        speed.finish()
    return results


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_op_medians(passes: list[list[OpResult]]) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            samples.setdefault(r.key, []).append(r.seconds)
    return {key: statistics.median(v) for key, v in samples.items()}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def peak_rss_mb(status_text: str) -> float:
    """VmHWM from the text of a /proc/<pid>/status file, in MB.

    This is the peak resident memory of the program the process runs.
    The ru_maxrss that wait4 reports is not: Linux carries the peak of
    the spawning process over into its child.  0 when the text has no
    VmHWM line (a child killed at its time limit reports nothing).
    """
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_rss_mb() -> float:
    with open("/proc/self/status", "r", encoding="utf-8") as handle:
        return peak_rss_mb(handle.read())


@dataclass
class Proc:
    """A finished child: exit code, output and wall time."""

    code: int
    stdout: str
    stderr: str
    seconds: float
    timed_out: bool


def run_process(argv: list[str], stdin_text: str = "", timeout: float = 60.0) -> Proc:
    """Run one child to completion.

    Output goes to unnamed files so the child never blocks on a pipe.
    A thread blocks in waitpid, so the wall time runs from just before
    the spawn to the moment the child is reaped, without polling.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as fin, tempfile.TemporaryFile(
        dir=OUT
    ) as fout, tempfile.TemporaryFile(dir=OUT) as ferr:
        fin.write(stdin_text.encode("utf-8"))
        fin.seek(0)
        box: dict = {}
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=fin, stdout=fout, stderr=ferr, env=child_env(), cwd=str(ROOT)
        )

        def reap():
            _pid, status = os.waitpid(proc.pid, 0)
            box["end"] = time.perf_counter()
            box["status"] = status

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(box["status"])
        fout.seek(0)
        ferr.seek(0)
        return Proc(
            proc.returncode,
            fout.read().decode("utf-8", "replace"),
            ferr.read().decode("utf-8", "replace"),
            box["end"] - start,
            timed_out,
        )


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }
