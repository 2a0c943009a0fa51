"""Replay a ``cli.json`` case through ``cli.run`` in process.

A case is an argv, the text on stdin, and the files the argv names: an
argument ``@name`` stands for the path of ``files[name]``, written as JSON
to a temporary directory.  ``cli.json`` records each case's exit code and
stdout, and its stderr unless argparse wrote a usage message there (its
wording differs across Python versions): a case may have no "stderr".

The package is imported by the first replay, not here: a profile hook set
before that replay sees every call the package makes, its import too, and
no call of this module is in ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN_CLI = pathlib.Path(__file__).resolve().parent / "cli.json"


def cases() -> list[dict]:
    return json.loads(GOLDEN_CLI.read_text())["cases"]


def replay_case(case: dict) -> tuple[int, str, str]:
    return replay(case["argv"], case["stdin"], case["files"])


def replay(argv, stdin, files) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.run on the argv, in process."""
    from hodgekit import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (pathlib.Path(tmp) / name).write_text(json.dumps(content))
        args = [str(pathlib.Path(tmp) / a[1:]) if a[:1] == "@" else a for a in argv]
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(args)
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()
