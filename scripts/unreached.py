#!/usr/bin/env python3
"""List the package's statements that no digested command runs.

Usage: python scripts/unreached.py [SRC]

Writes ``artifact_digests.CONFIGS`` into a temporary directory, then runs
``artifact_digests.COMMANDS`` there one at a time, in this process, through
``fedtradeoff.cli.main`` with their output captured, under a ``sys.settrace``
line tracer limited to frames of the package under SRC (default: this
checkout's ``src/``). It then prints every statement inside a function body
(docstrings excluded) that no command ran, as ``module.py:LINE function:
statement``, a raise marked ``(raise)``, and last a count per module. It
exits 1 when a command fails. Traced, the 52 commands take about 4 s
on one core of a 2-core Xeon (Python 3.11).

A statement ran when the tracer saw a line of it; a compound statement's
lines are its header's (``if``, ``for``, ``with``, ``def`` ...). A module
function's own ``def`` line runs at import, before the tracer starts, so only
statements inside function bodies are listed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _is_docstring(stmt, parent) -> bool:
    return (isinstance(parent, ast.FunctionDef | ast.AsyncFunctionDef)
            and stmt is parent.body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def _statements(node, scope: str = "", function: str | None = None):
    """(statement, function) of every statement under ``node`` that lies in a
    function body, in source order: a nested function's under its dotted
    name, a method's under ``Class.method``."""
    for child in ast.iter_child_nodes(node):
        if (function is not None and isinstance(child, ast.stmt)
                and not isinstance(child, ast.Global | ast.Nonlocal)
                and not _is_docstring(child, node)):
            yield child, function
        if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
            yield from _statements(child, f"{scope}{child.name}.", f"{scope}{child.name}")
        elif isinstance(child, ast.ClassDef):
            yield from _statements(child, f"{scope}{child.name}.", function)
        elif isinstance(child, ast.stmt | ast.excepthandler | ast.match_case):
            yield from _statements(child, scope, function)


def _own_lines(stmt) -> range:
    """The lines whose events show that ``stmt`` ran: a compound statement's
    header, from its first decorator to the line before its body; every line
    of any other statement."""
    if isinstance(getattr(stmt, "body", None), list):
        first = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
        return range(first, max(stmt.body[0].lineno, stmt.lineno + 1))
    return range(stmt.lineno, stmt.end_lineno + 1)


def statements(package: str) -> list[tuple]:
    """``(file name, line, function, statement text, is raise, own lines)`` of
    every statement inside a function body of the modules in ``package``,
    module by module."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            text = fh.read()
        lines = text.splitlines()
        found += [(name, stmt.lineno, function, lines[stmt.lineno - 1].strip(),
                   isinstance(stmt, ast.Raise), _own_lines(stmt))
                  for stmt, function in _statements(ast.parse(text))]
    return found


def trace(commands: list[list[str]], configs: dict, package: str) -> tuple[set, list]:
    """Run ``commands`` through ``fedtradeoff.cli.main`` in a temporary
    directory holding ``configs``, traced: the ``(file name, line)`` pairs
    that ran in ``package``, and the commands that failed with their stderr."""
    from fedtradeoff import cli

    hits: set = set()
    prefix = os.path.join(package, "")

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    failed, here = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for rel, doc in configs.items():
            os.makedirs(os.path.dirname(os.path.join(tmp, rel)), exist_ok=True)
            with open(os.path.join(tmp, rel), "w") as fh:
                json.dump(doc, fh)
        os.chdir(tmp)
        try:
            for cmd in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    sys.settrace(call)
                    try:
                        code = cli.main(cmd)
                    finally:
                        sys.settrace(None)
                # a failed bound check still writes its report
                if code not in (cli.EXIT_OK, cli.EXIT_BOUND_FAILED):
                    failed.append((cmd, err.getvalue()))
        finally:
            os.chdir(here)
    return {(os.path.basename(path), n) for path, n in hits
            if os.path.dirname(path) == package}, failed


def unreached(hits: set, found: list[tuple]) -> list[str]:
    """The report lines of the statements in ``found`` that ``hits`` never
    ran, then one count line per module."""
    out, counts = [], {}
    for name, lineno, function, text, is_raise, lines in found:
        if any((name, n) in hits for n in lines):
            continue
        out.append(f"{name}:{lineno} {function}: {text}" + ("  (raise)" if is_raise else ""))
        total, raises = counts.get(name, (0, 0))
        counts[name] = total + 1, raises + is_raise
    out += [f"{name}: {total} unreached, {raises} of them raises"
            for name, (total, raises) in counts.items()]
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 1
    sys.path.insert(0, os.path.abspath(argv[0]) if argv else SRC)
    sys.path.insert(0, HERE)
    import artifact_digests
    import fedtradeoff

    package = os.path.dirname(os.path.abspath(fedtradeoff.__file__))
    hits, failed = trace(artifact_digests.COMMANDS, artifact_digests.CONFIGS, package)
    for cmd, err in failed:
        sys.stderr.write(f"failed: {' '.join(cmd)}\n{err}")
    if failed:
        return 1
    print("\n".join(unreached(hits, statements(package))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
