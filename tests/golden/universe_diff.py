"""Print every universe input whose verdict differs between two ``src`` trees.

    python tests/golden/universe_diff.py OLD_SRC NEW_SRC

Each tree classifies the inputs of ``tests/universe.py`` in its own
interpreter, one line per input.  The changed inputs are printed grouped
by class (``universe.verdict_class`` on each side), each group headed by
its count, with the old and the new verdict of each input.  When no
verdict changed it prints nothing and exits 0; otherwise it exits 1.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parents[1]


def _classify():
    """In the child: one JSON line per input, [class, input, verdict]."""
    import universe
    from hodgekit.core import profile_to_json

    out = sys.stdout
    for verdict in universe.each_verdict():
        subfields = verdict.subfields
        data = {
            "profile": profile_to_json(verdict.profile),
            "subfields": None if subfields is None else [s.to_json() for s in subfields],
        }
        text = universe.verdict_text(verdict.outcome)
        out.write(json.dumps([universe.verdict_class(verdict), data, text]) + "\n")


def _child(src: str) -> subprocess.Popen:
    path = os.pathsep.join([str(pathlib.Path(src).resolve()), str(TESTS)])
    return subprocess.Popen(
        [sys.executable, __file__, "--classify"],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def main(old_src: str, new_src: str) -> int:
    old, new = _child(old_src), _child(new_src)
    groups: dict[str, list[str]] = {}
    with old, new:
        for a, b in itertools.zip_longest(old.stdout, new.stdout):
            if a == b:
                continue
            if a is None or b is None:
                raise SystemExit("the two trees classified different numbers of inputs")
            (t, w, kind, was), data, before = json.loads(a)
            (_, _, _, now), _, after = json.loads(b)
            key = f"{t}, weight {w}, inventory {kind}: {was} -> {now}"
            groups.setdefault(key, []).append(
                f"  {json.dumps(data)}\n    - {before}\n    + {after}"
            )
    if old.returncode or new.returncode:
        raise SystemExit("a classification run failed")
    for key, lines in groups.items():
        print(f"{key} ({len(lines)} inputs)")
        print("\n".join(lines))
    return 1 if groups else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--classify"]:
        _classify()
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
