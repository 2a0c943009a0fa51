"""Record the reference answers under ``perfbench/refs``.

Run once, from the root of a checkout of the commit whose answers are
the reference (the program's goldens pin them):

    python3 perfbench/record_refs.py

Three answers cannot be recorded from that program because of known
defects (see README.md); their references are the documented behaviour:

* n = 2^61 - 1: the classification that ``classify`` gives once its
  primality test finishes, recorded with that test replaced by the
  deterministic Miller-Rabin below;
* ``numth verify --k-max 2`` and ``"balanced": "false"``: exit code 2
  (bad input) with nothing on stdout.

The large-n pool is drawn here once, with a fixed seed; each benchmark
seed then picks one entry per stratum.
"""

from __future__ import annotations

import json
import random

import harness

harness.use_source_tree()

import classify_sweep  # noqa: E402
import cli_oneshot  # noqa: E402
import cm_scan  # noqa: E402
import verify_engines  # noqa: E402

POOL_STRATA = 64
POOL_PER_STRATUM = 8
POOL_LOG10 = (6.0, 11.0)
MERSENNE61 = (1 << 61) - 1
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 3) | 1
    while not is_prime(n):
        n += 2
    return n


def _large_profile(n: int, shape: int) -> dict:
    weight = 1 + shape % 2
    if shape < 2:
        endo = {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}
    else:
        endo = {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[1, n - 1]]}
    return {"weight": weight, "n": n, "endo": endo}


def _answer_digest(raw) -> str:
    """The digest ``harness.check_digest`` compares against."""
    return harness.digest(raw if isinstance(raw, str) else harness.canonical(raw))


def _classify_answer(hk, profile: dict) -> str:
    text = json.dumps({"profile": profile, "subfields": None})
    return _answer_digest(classify_sweep._classify_op(hk, text, "classifier.classify", harness.NULL_TRACER))


def large_pool(hk) -> dict:
    """Strata of the log range; within a stratum n is a prime (strata
    0 and 2 mod 4), twice a prime (1 mod 4) or any integer (3 mod 4),
    so that every seed puts the primality test's worst case in the
    slice."""
    rng = random.Random("classify_sweep:large_pool")
    lo, hi = POOL_LOG10
    pool = []
    for s in range(POOL_STRATA):
        for k in range(POOL_PER_STRATUM):
            x = int(10 ** (lo + (hi - lo) * (s + rng.random()) / POOL_STRATA))
            kind = s % 4
            if kind in (0, 2):
                n = next_prime(x)
            elif kind == 1:
                n = 2 * next_prime(x // 2)
            else:
                n = x
            profile = _large_profile(n, rng.randrange(4))
            pool.append(
                {"key": f"large.{s}.{k}", "stratum": s, "profile": profile,
                 "answer": _classify_answer(hk, profile)}
            )
    mersenne = _large_profile(MERSENNE61, 0)
    saved = hk.classifier._is_prime
    hk.classifier._is_prime = is_prime
    try:
        answer = _classify_answer(hk, mersenne)
    finally:
        hk.classifier._is_prime = saved
    return {"pool": pool, "mersenne": {"profile": mersenne, "answer": answer}}


def small_refs(hk) -> list[str]:
    out = []
    for _key, text in classify_sweep.small_inputs():
        out.append(_answer_digest(classify_sweep._classify_op(hk, text, "classifier.classify", harness.NULL_TRACER))[:8])
    return out


def cm_refs(hk) -> dict:
    models = {}
    for spec in cm_scan.SCAN_MODELS + cm_scan.TRACE_MODELS:
        model = cm_scan.build_model(hk, spec)
        report = hk.cmtools.tankeev_scan(model).to_json()
        models[spec] = {
            "scan": _answer_digest(report),
            "group_order": model.order,
            "block_systems": len(hk.cmtools.block_systems(model)),
            "types": [[e["theta"], e["raw"], e["reduced"], e["primitive"]] for e in report["entries"]],
        }
    return {"models": models}


def verify_refs(hk) -> dict:
    answers = {}
    for key, call, _extra, _limit in verify_engines.calls(hk, seed=0):
        answers[key] = _answer_digest(call(harness.NULL_TRACER))
    return {"answers": answers}


def cli_refs() -> dict:
    slots = {}
    for slot, variants in cli_oneshot.SLOTS.items():
        rows = []
        for variant in range(len(variants)):
            if slot in cli_oneshot.KNOWN_DEFECTS:
                rows.append({"code": 2, "stdout": ""})
                continue
            argv, stdin = cli_oneshot.materialize(slot, variant)
            proc = harness.run_process(cli_oneshot.cli_argv(argv), stdin)
            if "Traceback" in proc.stderr or proc.timed_out:
                raise RuntimeError(f"{slot}[{variant}] failed: {proc.stderr[-500:]}")
            rows.append({"code": proc.code, "stdout": proc.stdout})
        slots[slot] = rows
    return {"slots": slots}


def _lines(obj, depth: int = 0) -> str:
    """JSON with one record per line down to the third level."""
    pad = " " * depth
    if depth < 3 and isinstance(obj, dict) and obj:
        items = [f"{pad} {json.dumps(k)}: {_lines(v, depth + 1).lstrip()}" for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if depth < 3 and isinstance(obj, list) and obj:
        items = [_lines(v, depth + 1) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return pad + json.dumps(obj, separators=(",", ":"))


def write(name: str, payload) -> None:
    path = harness.REFS / name
    path.write_text(payload if isinstance(payload, str) else _lines(payload) + "\n")
    print(f"wrote {path.relative_to(harness.ROOT)}")


def main() -> None:
    import hodgekit.cli  # every module

    hk = hodgekit
    harness.REFS.mkdir(exist_ok=True)
    write("classify_small.txt", "\n".join(small_refs(hk)) + "\n")
    write("classify_large.json", large_pool(hk))
    write("cm_scan.json", cm_refs(hk))
    write("verify_engines.json", verify_refs(hk))
    write("cli_oneshot.json", cli_refs())


if __name__ == "__main__":
    main()
