"""The benchmark's span tracer patches proptree functions and methods by name.

Renaming or removing one of them breaks ``perfbench/run.py --trace 1``; this
test fails first.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
