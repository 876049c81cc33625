"""Reachability census: which ``src/repro`` functions does tier-1 run?

Usage (from anywhere; stdlib only)::

    python tools/census.py            # runs ``python -m pytest -x -q``
    python tools/census.py -q -k plan # other pytest arguments instead

It runs the tier-1 suite with the probe in ``tools/census_site`` loaded
into every interpreter (the test process, its CLI subprocesses and its
``multiprocessing`` workers), gathers the ``(file, first line)`` of
every function that ran, and compares them with every ``def`` under
``src/repro`` found by ``ast``.  A function that never ran and is not
in ``ALLOWED`` below is printed, and the census exits 1; so does an
``ALLOWED`` entry that names no function or a function that ran.  It
exits with pytest's status when the suite fails.

A subprocess started with an environment of its own (``env={...}``
without ``os.environ``) is not followed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SITE = Path(__file__).resolve().parent / "census_site"

# "<path under src/repro>:<qualified name>" -> why tier-1 cannot run it.
ALLOWED: Dict[str, str] = {
    "dataprep/plan.py:PlanStage.run":
        "abstract: every compiled stage overrides it",
    "dataprep/pipeline.py:PrepOp.apply":
        "abstract: every per-sample op overrides it",
    "dataprep/ops_batch.py:BatchOp.apply":
        "abstract: every batch augmentation overrides it",
    "dataprep/ops_batch.py:BatchOp.cost":
        "abstract: every batch augmentation overrides it",
    "sync/model.py:SyncModel.time":
        "abstract: every synchronization model overrides it",
}


def functions() -> Iterator[Tuple[str, int, str, int]]:
    """Every ``def`` under ``src/repro``: ``(relative path, first line,
    qualified name, lines)``.  The first line is the code object's
    ``co_firstlineno``: the first decorator's line, else the ``def``'s.
    """
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        yield from _walk(tree, rel, "")


def _walk(node: ast.AST, rel: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            name = prefix + child.name
            yield rel, first, name, child.end_lineno - first + 1
            yield from _walk(child, rel, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, rel, prefix + child.name + ".")
        else:
            yield from _walk(child, rel, prefix)


def run_suite(pytest_args: List[str]) -> Tuple[int, Set[Tuple[str, int]]]:
    """Run pytest under the probe; returns its exit status and the
    ``(relative path, first line)`` of every function that ran."""
    with tempfile.TemporaryDirectory(prefix="census-") as out:
        paths = [str(SITE), str(SRC)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(paths),
            REPRO_CENSUS_DIR=out,
            REPRO_CENSUS_ROOT=str(PACKAGE) + os.sep,
        )
        status = subprocess.run(
            [sys.executable, "-m", "pytest", *pytest_args], cwd=ROOT, env=env
        ).returncode
        reached = set()
        for dump in Path(out).glob("*.txt"):
            for line in dump.read_text().splitlines():
                path, _, lineno = line.rpartition(":")
                rel = Path(path).relative_to(PACKAGE).as_posix()
                reached.add((rel, int(lineno)))
    return status, reached


def main(argv: List[str]) -> int:
    status, reached = run_suite(argv or ["-x", "-q"])
    if status != 0:
        print(f"census: pytest exited {status}; no census taken")
        return status
    found = list(functions())
    names = {f"{rel}:{name}" for rel, _, name, _ in found}
    unreached = [
        (rel, first, name, lines)
        for rel, first, name, lines in found
        if (rel, first) not in reached
    ]
    unreached_names = {f"{rel}:{name}" for rel, _, name, _ in unreached}
    failed = False
    for rel, first, name, lines in unreached:
        if f"{rel}:{name}" not in ALLOWED:
            print(f"unreached: src/repro/{rel}:{first} {name} ({lines} lines)")
            failed = True
    for key in sorted(ALLOWED):
        if key not in names:
            print(f"allow-list names no function: {key}")
            failed = True
        elif key not in unreached_names:
            print(f"allow-list entry is reached, drop it: {key}")
            failed = True
    print(
        f"census: {len(found)} functions, {len(found) - len(unreached)} "
        f"reached, {len(ALLOWED)} allow-listed"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
