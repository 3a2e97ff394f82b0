"""The benchmark tracer's flop counters still read what the package returns.

``perfbench/tracer.py`` counts the floating-point work of each ``MATMULS``
entry from its result: the leading dimension of an array, or
``result.chain.dim`` of an operator.  A function whose return type changed
would crash ``--trace 1`` at its first call; this check fails the suite
instead.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from grading_lab import dense, dynamics
from grading_lab.dense import ChainSpec, realize
from grading_lab.dressing import dressed_weyl
from grading_lab.oneparticle import Hopping
from grading_lab.weyl import GradingParams

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _load_tracer()


def _sample_calls():
    """One small call per traced product: the function and its arguments as the tracer sees them."""
    model = dynamics.QuadraticModel(ChainSpec(2, 4), GradingParams(2, 1, 1), Hopping({1: -1j / 16, -1: 1j / 16}))
    a = realize(dressed_weyl(1, 1, model.params, model.chain), model.chain)
    return {
        "dynamics.QuadraticModel.propagator": (dynamics.QuadraticModel.propagator, (model, 0.7)),
        "dynamics.heisenberg_evolve": (dynamics.heisenberg_evolve, (a, model, 0.7)),
        "dense.DenseOperator.commutator": (dense.DenseOperator.commutator, (a, model.dense_hamiltonian)),
    }


@pytest.mark.parametrize("name", list(TRACER_MODULE.MATMULS))
def test_flop_hook_reads_result(name):
    calls = _sample_calls()
    assert name in calls, f"no sample call for the traced product {name}"
    fn, args = calls[name]
    result = fn(*args)
    assert isinstance(result, np.ndarray) or isinstance(result.chain.dim, int), name
    tracer = TRACER_MODULE.Tracer()
    tracer._hook(name)(name, args, result)
    assert tracer.gflop[name] > 0.0
