"""Every function defined in ``src/`` is called when ``cli.json`` is
replayed, or is on ``UNREACHED`` with the reason it stays.

The replay runs in a fresh interpreter under ``sys.setprofile``, hooked
before the package is imported: no cache that an earlier test filled can
hide a call, and calls made at import count.  Run as a script, this file
replays ``cli.json`` and prints the unreached functions as a JSON list of
``module.qualname`` names.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

# Who reads each function that no subcommand reaches.
UNREACHED = {
    # the public API: hodgekit.__all__ and the package's own hooks
    "__init__.__dir__": "dir(hodgekit), which lists __all__",
    "classifier.SubfieldDescriptor.to_json": "a method of an __all__ name",
    "core.GroupExpr.from_json": "a method of an __all__ name",
    "core.HodgeProfile.g": "a property of an __all__ name",
    "core.profile_to_json": "an __all__ name; the golden generator reads it",
    "realizability.is_exceptional": "an __all__ name",
    "rootsys.RootSystem.__repr__": "the repr protocol, for test reports",
    # entry points
    "cli.main": "the hodgekit script and python -m hodgekit.cli",
    # perfbench readers, which ROADMAP item 1 moves to tests/oracles.py
    "cmtools.GaloisModel.elements": "perfbench: test_perfbench's group check",
    "cmtools.GaloisModel.order": "perfbench: the cm_scan group_order count",
    # perfbench readers that an open ROADMAP item gives a caller in src/
    "cmtools.block_systems": "perfbench: cm_scan; item 10 stage 2",
    "cmtools._minimal_systems": "block_systems alone calls it",
    "cmtools._blocks": "block_systems alone calls it",
    "cmtools.cyclic_model": "perfbench: cm_scan's model specs",
    "cmtools.enumerate_cm_types": "perfbench: cm_scan; item 10 stage 2",
    "rootsys.admissible_factors": "perfbench: verify_engines; item 2",
    "rootsys.root_system": "admissible_factors alone calls it",
}


def defined_functions(package: pathlib.Path) -> dict[tuple[str, int], str]:
    """module.qualname of every def in the package, keyed by (real path,
    first line); a decorated def starts at its first decorator, as its code
    object's co_firstlineno does."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), os.path.realpath(path), f"{path.stem}.")
    return found


def unreached_by_replay() -> list[str]:
    """Replay every cli.json case in process under a profile hook."""
    from golden import cli_replay

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        from hodgekit import cli

        for case in cli_replay.cases():
            code, _, _ = cli_replay.replay_case(case)
            assert code == case["exit"], case["argv"]
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(path), line) for path, line in called}
    package = pathlib.Path(cli.__file__).parent
    defs = defined_functions(package)
    return sorted(name for key, name in defs.items() if key not in reached)


def test_every_src_function_is_reached_or_listed():
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    unreached = json.loads(proc.stdout)
    # a new function nobody reaches needs an entry, and a listed one that
    # the replay now reaches loses its entry
    assert sorted(UNREACHED) == unreached


if __name__ == "__main__":
    print(json.dumps(unreached_by_replay()))
