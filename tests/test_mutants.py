"""``tools/mutants.py``, the committed mutation checks: a smoke run of one
fault that a fast test kills and one change that alters nothing and survives.
The full list runs outside this suite (README "Tests")."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

GATE_TEST = "tests/test_split_heads.py::test_the_gate_reads_blas_variables_in_openblas_order"
SMOKE = f"""MUTANTS = [
    dict(id="gate-one-cpu", file="src/proptree/cores.py", text="cpus >= 2",
         replacement="cpus >= 1", tests=["{GATE_TEST}"]),
    dict(id="a-comment-only", file="src/proptree/cores.py",
         text="# Read once, as OpenBLAS reads its variables once.",
         replacement="# Read once.", tests=["{GATE_TEST}"]),
]
"""


def test_a_fault_is_killed_and_a_no_op_survives(tmp_path, capsys, monkeypatch):
    listed = tmp_path / "mutants.py"
    listed.write_text(SMOKE)
    monkeypatch.setattr(mutants, "LIST", listed)
    assert mutants.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" in ")[0] for line in lines] == [
        "gate-one-cpu: killed", "a-comment-only: survived", "2 mutants, 1 killed, 1 not,"]


def test_every_committed_mutant_applies_once():
    """The list follows the code: each text occurs once, and each test file exists."""
    listed = mutants.load(mutants.LIST)
    assert listed
    for mutant in listed:
        assert mutants.stale(mutant) is None, mutant["id"]
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant["tests"]), mutant["id"]
