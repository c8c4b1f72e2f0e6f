"""``tools/settable_values.py``, the counter that option-count figures rest on."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "settable_values.py"
spec = importlib.util.spec_from_file_location("settable_values", TOOL)
settable_values = importlib.util.module_from_spec(spec)
spec.loader.exec_module(settable_values)

SNIPPET = '''
import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass
class A:
    x: int
    y: list = field(default_factory=list)
    z = 3

    def scaled(self, by: float = 2.0) -> float:
        return self.x * by


@dataclasses.dataclass(frozen=True)
class B:
    w: str = "w"


class C:
    v: int = 1


def f(a, b=1, *args, c, d=None, **kw):
    g = lambda e=2: e
    return g()


async def h(p=0):
    return p


def parser():
    ap = argparse.ArgumentParser()
    ap.add_argument("--one", default=1)
    sub = ap.add_subparsers().add_parser("run")
    sub.add_argument("two")
    return ap
'''


def test_counts_defaults_dataclass_fields_and_options():
    # defaults: by, b, d, p (not the lambda's e, not the keyword-only c);
    # fields: x, y and w (not z, which has no annotation, nor C's v);
    # arguments: the two add_argument calls.
    assert settable_values.settable_values(SNIPPET) == {"defaults": 4, "fields": 3, "arguments": 2}


def test_main_prints_per_file_counts_and_a_total(capsys):
    assert settable_values.main(["settable_values.py"]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["defaults", "fields", "arguments", "total", "file"]
    assert "train.py" in [row.split()[-1] for row in rows]
    columns = [[int(v) for v in row.split()[:4]] for row in rows]
    assert total.split() == [*(str(sum(col)) for col in zip(*columns)), "total"]
    assert all(row[3] == sum(row[:3]) for row in columns)
    assert settable_values.main(["settable_values.py", "src"]) == 2
