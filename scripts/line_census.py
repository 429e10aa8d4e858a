#!/usr/bin/env python3
"""List the statements of ``src/weakcomm`` that a pytest run never executes.

A line census with ``sys.settrace``, run in this process, because
``coverage`` is not a dependency.  Tests that start a subprocess are not
traced.  A line counts as a statement when some code object compiled from
the module has an instruction on it; the ``def`` line of a function counts
through the code that defines it, not through the function's own prologue.
A frame stops reporting lines once its code object has run all of its own.

    python scripts/line_census.py                  # -m "not slow" tests perfbench
    python scripts/line_census.py tests/test_cli.py -q

Arguments, when given, replace the default pytest arguments.  The default
ones fix the hypothesis seed, because a test that draws its inputs with
hypothesis reaches different lines on different draws, and two censuses of
one tree should list the same lines.  Prints one line per module with its
unreached lines as ranges, then the total, and exits with pytest's code, so
a census of a failing run does not read as clean.
"""

import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakcomm"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "-m", "not slow",
                "tests", "perfbench"]

sys.path.insert(0, str(ROOT / "src"))


def own_lines(code: types.CodeType) -> set[int]:
    """The lines with an instruction of this code object, not of the code
    nested in it; a prologue, on line 0 or on a function's ``def`` line, is
    left out."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def statement_lines(path: pathlib.Path) -> set[int]:
    """Lines that carry an instruction of some code object of the module."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= own_lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    # per code object, its lines not yet run; a frame stops reporting lines
    # once its code has run them all, which keeps hot loops cheap
    unrun: dict[types.CodeType, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            left = unrun[frame.f_code]
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        left = unrun.get(code)
        if left is None:
            left = unrun[code] = own_lines(code)
        return local if left else None

    sys.settrace(call)
    try:
        exit_code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
    seen: dict[str, set[int]] = {}
    for c, left in unrun.items():
        seen.setdefault(c.co_filename, set()).update(own_lines(c) - left)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path) - seen.get(str(path), set()))
        total += len(missed)
        print(f"{path.name}: {len(missed)} unreached" +
              (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} unreached statement lines; pytest exit {int(exit_code)}")
    return int(exit_code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
