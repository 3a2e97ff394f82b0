"""The benchmark tracer's targets still name functions of the package.

``perfbench/tracer.py`` binds every ``TARGETS`` entry when a traced run
starts, so a renamed or deleted function would crash ``--trace 1``; this
check fails the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("name, module, attr", TARGETS, ids=[name for name, _, _ in TARGETS])
def test_target_resolves(name, module, attr):
    mod = importlib.import_module(f"grading_lab.{module}")
    if "." in attr:
        cls_name, member = attr.split(".")
        assert member in vars(getattr(mod, cls_name)), name
    else:
        assert hasattr(mod, attr), name
