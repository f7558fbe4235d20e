"""List the functions of a green3 source tree that no benchmark or README job enters.

    python3 tools/reached.py TREE

TREE is a checkout of this repository.  The jobs are those of
``tools/same_answers.py`` (``distinct_jobs`` and ``readme_examples``), run in
one fresh interpreter, in process through ``green3.cli.main`` with
``--omit-timing``, on one thread, under ``sys.setprofile`` and
``threading.setprofile``: a function counts as entered once a call event
names its code.  The tool then reads every module of ``TREE/src/green3`` and
prints, per module, each function or method (nested ones as ``outer.inner``)
that no job entered, with its physical lines from its first decorator to its
last line, and the totals.  A function nested in one already listed is not
listed again.  It exits 0 and gates nothing.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path


def _run_jobs() -> None:
    """In the child: import green3 and run the argv lists read from stdin, then
    print the [module, first line] of every green3 code object a call event
    named, the calls made while importing included, as a CLI run makes them."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    jobs = json.load(sys.stdin)
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        import green3
        from green3.cli import main

        for argv in jobs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except SystemExit:
                    pass
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    package = os.path.dirname(os.path.abspath(green3.__file__)) + os.sep
    json.dump(sorted([os.path.basename(name)[:-3], line] for name, line in entered
                     if os.path.abspath(name).startswith(package)), sys.stdout)


def functions(path: Path):
    """(qualified name, first line, physical lines) of each function and method
    of a module, outermost first; the first line is that of the first decorator,
    as the code object has it."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out.append((name, first, child.end_lineno - first + 1))
                visit(child, name + ".")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def never_entered(tree: Path, entered) -> dict:
    """Module -> [(name, lines)] of the functions no job entered, a function
    nested in a listed one left out."""
    report = {}
    for path in sorted((tree / "src" / "green3").glob("*.py")):
        module = path.stem
        missed = [(name, lines) for name, first, lines in functions(path)
                  if (module, first) not in entered]
        names = {name for name, _ in missed}
        report[module] = [(name, lines) for name, lines in missed
                          if not any(name.startswith(other + ".") for other in names)]
    return report


def main() -> int:
    if sys.argv[1:] == ["--run-jobs"]:
        _run_jobs()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="checkout of this repository")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # leave bench/ and tools/ as they are
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "bench")]
    import same_answers
    import workloads

    jobs = same_answers.distinct_jobs(workloads) + same_answers.readme_examples()
    proc = subprocess.run([sys.executable, __file__, "--run-jobs"], input=json.dumps(jobs),
                          capture_output=True, text=True, env=same_answers.tree_env(args.tree))
    if proc.returncode:
        sys.exit(f"the jobs of {args.tree} did not run:\n{proc.stderr}")
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    report = never_entered(args.tree.resolve(), entered)
    count = sum(len(missed) for missed in report.values())
    lines = sum(n for missed in report.values() for _, n in missed)
    print(f"functions and methods of {args.tree / 'src' / 'green3'} that none of the "
          f"{len(jobs)} jobs entered (physical lines):")
    for module, missed in report.items():
        if missed:
            print(f"\n{module}: {len(missed)} functions, {sum(n for _, n in missed)} lines")
            for name, n in missed:
                print(f"  {name:48s} {n:4d}")
    print(f"\ntotal: {count} functions, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
