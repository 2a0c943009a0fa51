"""Run the CLI on a ``cli.json`` case: the one way the tests run it.

A case is an argv, the text on stdin, and the files the argv names: an
argument ``@name`` stands for the path of ``files[name]``, written to a
temporary directory as JSON, or as it stands where it is a string.
``cli.json`` records each case's exit code and stdout, and its stderr
unless argparse wrote a usage message there (its wording differs across
Python versions): a case may have no "stderr".

There are two routes:

- ``replay`` calls ``cli.run`` in process.  The package is imported by the
  first replay, not here: a profile hook set before that replay sees every
  call the package makes, its import too, and no call of this module is
  in ``src/``.
- ``replay_fresh`` runs ``hodgekit.cli`` as ``__main__`` in a new
  interpreter under ``-X dev -W error``, so that a warning fails the run,
  and reports the modules that interpreter loaded.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

GOLDEN_CLI = pathlib.Path(__file__).resolve().parent / "cli.json"


def cases() -> list[dict]:
    return json.loads(GOLDEN_CLI.read_text())["cases"]


def replay_case(case: dict) -> tuple[int, str, str]:
    return replay(case["argv"], case["stdin"], case["files"])


@contextlib.contextmanager
def _materialised(argv, files):
    """The argv with each ``@name`` of ``files`` replaced by the path of a
    temporary file holding ``files[name]``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (path / name).write_text(text)
        yield [str(path / a[1:]) if a[:1] == "@" and a[1:] in files else a for a in argv]


def replay(argv, stdin="", files=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.run on the argv, in process."""
    from hodgekit import cli

    out, err = io.StringIO(), io.StringIO()
    with _materialised(argv, files or {}) as args:
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(args)
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# Runs the CLI as ``python -m hodgekit.cli`` does (or, with no arguments,
# only ``import hodgekit``), then appends to stderr one line: its exit
# code, the ``hodgekit`` modules loaded, whether ``dataclasses`` (or
# ``inspect``, which imports it) is, and whether ``fractions`` is.
_CHILD = """
import sys
code = 0
if len(sys.argv) > 1:
    import runpy
    try:
        runpy.run_module("hodgekit.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import hodgekit
loaded = (
    code,
    sorted(m for m in sys.modules if m.split(".")[0] == "hodgekit"),
    "dataclasses" in sys.modules or "inspect" in sys.modules,
    "fractions" in sys.modules,
)
sys.stderr.write("\\n" + repr(loaded))
"""


def replay_fresh(argv, stdin="", files=None, timeout=30):
    """Exit code, stdout and stderr of ``python -m hodgekit.cli`` on the
    argv in a new interpreter, with what it loaded: the ``hodgekit``
    modules (``cli``, not ``hodgekit.cli``), whether ``dataclasses`` and
    whether ``fractions``.  With argv None the child only imports
    ``hodgekit``.  A run past the timeout raises."""
    with _materialised(argv or [], files or {}) as args:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", _CHILD, *args],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    # the child reports unless the CLI raised past its own handlers
    assert proc.returncode == 0, proc.stderr
    err, _, report = proc.stderr.rpartition("\n")
    code, modules, dataclasses, fractions = ast.literal_eval(report)
    modules = {m.removeprefix("hodgekit.") for m in modules}
    return code, proc.stdout, err, (modules, dataclasses, fractions)
