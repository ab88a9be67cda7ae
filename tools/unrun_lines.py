"""Print the lines of chosen freepd modules that the tier-1 suite never runs.

The suite runs in this process under a sys.settrace line tracer that only
follows frames of the chosen modules' files.  A module's statement lines
are the line starts of every code object compiled from its source; the
ones no traced frame reached are printed as ranges.  A line marked
``pragma: no cover`` is left out, and so is the block it opens.  Tests that
start a fresh interpreter are not followed into it.

    python3 tools/unrun_lines.py [MODULE ...] [-- PYTEST_ARGS ...]

MODULE is a module name under freepd (``energysolver``, ``surgery``, ...);
with none given, every module of the package is reported.  PYTEST_ARGS
default to the tier-1 run, ``-q -p no:cacheprovider tests``.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "freepd")


def statement_lines(path):
    """Line numbers that start a statement anywhere in the file."""
    with open(path) as fh:
        source = fh.read()
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - excluded(source.splitlines())


def excluded(text):
    """Lines marked ``pragma: no cover``, with the block a marked line opens."""
    out = set()
    for n, line in enumerate(text, 1):
        if "pragma: no cover" not in line:
            continue
        out.add(n)
        if line.split("#")[0].rstrip().endswith(":"):
            indent = len(line) - len(line.lstrip())
            for m in range(n + 1, len(text) + 1):
                body = text[m - 1]
                if body.strip() and len(body) - len(body.lstrip()) <= indent:
                    break
                out.add(m)
    return out


def ranges(numbers):
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    out, numbers = [], sorted(numbers)
    i = 0
    while i < len(numbers):
        j = i
        while j + 1 < len(numbers) and numbers[j + 1] == numbers[j] + 1:
            j += 1
        out.append(str(numbers[i]) if i == j else f"{numbers[i]}-{numbers[j]}")
        i = j + 1
    return ", ".join(out)


def main(argv):
    if "--" in argv:
        cut = argv.index("--")
        names, pytest_args = argv[:cut], argv[cut + 1:]
    else:
        names, pytest_args = argv, ["-q", "-p", "no:cacheprovider", "tests"]
    if not names:
        names = sorted(f[:-3] for f in os.listdir(PACKAGE)
                       if f.endswith(".py") and f != "__init__.py")
    files = {os.path.join(PACKAGE, f"{name}.py"): name for name in names}
    missing = [p for p in files if not os.path.exists(p)]
    if missing:
        sys.exit(f"no such module: {', '.join(files[p] for p in missing)}")
    ran = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, name in files.items():
        lines = statement_lines(path)
        unrun = lines - ran[path]
        print(f"freepd/{name}.py: {len(unrun)} of {len(lines)} statement lines never run")
        if unrun:
            print(f"  {ranges(unrun)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
