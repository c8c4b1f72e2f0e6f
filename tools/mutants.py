"""Run the committed mutation checks: each listed fault must fail its tests.

``tests/mutants.py`` lists the mutants in ``MUTANTS``, one dict each:

    dict(id="gate-one-cpu",                  # a name for the report
         file="src/proptree/cores.py",       # relative to the repository root
         text="cpus >= 2",                   # must occur exactly once in file
         replacement="cpus >= 1",
         tests=["tests/test_split_heads.py::test_the_gate_reads_blas_variables_in_openblas_order"])

First every named test runs once on an unchanged copy of ``src/`` and
``tests/``: they must pass, or a failure under a mutant would show nothing.
Then, for each mutant, a fresh copy gets the one replacement and its tests run
there with ``pytest -x``.  The mutant is killed when a test fails, and
survives when they all pass.

It exits 0 when every mutant is killed, and 1 when one survives, when its text
does not occur exactly once (the list must follow the code), when its tests
cannot run or time out, or when the unchanged copy fails.

Usage: python tools/mutants.py
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = ROOT / "tests" / "mutants.py"
# Copied, so a mutant changes only its copy; the rest of the root is linked.
COPIED = ("src", "tests", "pyproject.toml")
LINKED = ("tools", "perfbench", "README.md")
FIELDS = ("id", "file", "text", "replacement", "tests")
# A mutant whose tests still run after this long counts as not killed.
TIMEOUT_S = 600


def load(path: Path) -> list[dict]:
    """The mutants of a list file, each with every field."""
    mutants = runpy.run_path(str(path))["MUTANTS"]
    for mutant in mutants:
        if missing := [f for f in FIELDS if f not in mutant]:
            raise ValueError(f"{path}: mutant {mutant.get('id', '?')!r} lacks {', '.join(missing)}")
    if len(ids := [m["id"] for m in mutants]) != len(set(ids)):
        raise ValueError(f"{path}: mutant ids repeat")
    return mutants


def stale(mutant: dict) -> str | None:
    """Why ``mutant`` cannot be applied to the tree, or None when it can."""
    path = ROOT / mutant["file"]
    if not path.is_file():
        return f"{mutant['file']} does not exist"
    if (count := path.read_text().count(mutant["text"])) != 1:
        return f"its text occurs {count} times in {mutant['file']}"
    return None


def copy_tree(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)
    for name in LINKED:
        (into / name).symlink_to(ROOT / name)


def run_tests(tests: list[str], mutant: dict | None = None) -> tuple[int | None, str]:
    """pytest's exit status on a fresh copy, ``mutant`` applied, and its
    output; the status is None when the run timed out."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant:
            path = tree / mutant["file"]
            path.write_text(path.read_text().replace(mutant["text"], mutant["replacement"]))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                   *tests], cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return None, str(exc.stdout or "")
        return done.returncode, done.stdout + done.stderr


def main() -> int:
    mutants = load(LIST)
    started = time.perf_counter()
    tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    status, output = run_tests(tests)
    if status != 0:
        print(f"the unchanged tree fails its tests (pytest status {status}):\n{output}")
        return 1
    failures = 0
    for mutant in mutants:
        if reason := stale(mutant):
            outcome = f"stale: {reason}"
        else:
            began = time.perf_counter()
            status, output = run_tests(mutant["tests"], mutant)
            seconds = time.perf_counter() - began
            # pytest exits 1 when a test failed; any other status means the tests did not run.
            outcome = {0: "survived", 1: "killed", None: "timed out"}.get(
                status, f"broken (pytest status {status})")
            outcome += f" in {seconds:.1f} s"
        failures += not outcome.startswith("killed")
        print(f"{mutant['id']}: {outcome}", flush=True)
    print(f"{len(mutants)} mutants, {len(mutants) - failures} killed, {failures} not, "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
