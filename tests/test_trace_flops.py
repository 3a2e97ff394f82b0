"""The benchmark tracer's hooks still read what the package returns.

``perfbench/tracer.py`` runs a hook after some traced calls: it counts the
floating-point work of each ``MATMULS`` entry from its result (the leading
dimension of an array, or ``result.chain.dim`` of an operator), records the
dimension of each ``realize`` result, checks each ``op_norm`` against a full
SVD of its argument's ``entries`` and counts the distinct propagator times.
A function whose argument or return type changed would crash ``--trace 1``
at its first call; these checks fail the suite instead.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from grading_lab import dense, dynamics
from grading_lab.dense import ChainSpec, realize
from grading_lab.dressing import dressed_matrix_unit, dressed_weyl
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
    field = dressed_weyl(1, 1, model.params, model.chain)
    a = realize(field, model.chain)
    return {
        "dense.realize": (dense.realize, (model.hamiltonian, model.chain)),
        "dense.op_norm": (dense.op_norm, (a.commutator(model.dense_hamiltonian),)),
        "dynamics.QuadraticModel.propagator": (dynamics.QuadraticModel.propagator, (model, 0.7)),
        "dynamics.heisenberg_evolve": (dynamics.heisenberg_evolve, (field, model, 0.7)),
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


@pytest.mark.parametrize("name, metric, value", [
    ("dense.realize", "dense.realize.dim_max", 16),
    ("dense.op_norm", "dense.op_norm.exact_frac", 1.0),
    ("dynamics.QuadraticModel.propagator", "dynamics.QuadraticModel.propagator.distinct_frac", 1.0),
])
def test_hook_metric(name, metric, value):
    # one call through the tracer's wrapper runs the hook on the real arguments and result
    tracer = TRACER_MODULE.Tracer()
    assert tracer._hook(name) is not None
    fn, args = _sample_calls()[name]
    tracer._wrap(name, fn)(*args)
    assert tracer.calls[name] == 1
    assert tracer.pass_metrics()[metric] == value


def test_every_hook_has_a_sample_call():
    tracer = TRACER_MODULE.Tracer()
    hooked = {name for name, _, _ in TRACER_MODULE.TARGETS if tracer._hook(name) is not None}
    assert hooked <= set(_sample_calls())


def test_op_norm_hook_reads_eigenbasis_blocks():
    # the exact-norm hook assembles an eigenbasis operator through ``entries``
    # (its basis permuted, its singular values kept), so op_norm of
    # [tau_t(A), B] on the blocks of several joint eigenspaces, as
    # commutator_decay forms it, still reads exact_frac 1.0
    model = dynamics.QuadraticModel(ChainSpec(2, 6), GradingParams(2, 1, 1), Hopping({1: -1j / 16, -1: 1j / 16}))
    pr, ch = model.params, model.chain
    a = dressed_matrix_unit(1, 0, 1, pr, ch) * dressed_matrix_unit(2, 1, 0, pr, ch)
    b = dressed_matrix_unit(3, 0, 1, pr, ch) * dressed_matrix_unit(4, 1, 0, pr, ch)
    m = dynamics.phase_blocks(model.eigenbasis_blocks(a), model.propagator(0.9)).commutator(model.eigenbasis_blocks(b))
    group = len(model.eigensystem.chars)
    assert group > 1 and len({c % group for _, c in m.blocks}) > 1
    tracer = TRACER_MODULE.Tracer()
    tracer._wrap("dense.op_norm", dense.op_norm)(m)
    assert tracer.calls["dense.op_norm"] == 1
    assert tracer.pass_metrics()["dense.op_norm.exact_frac"] == 1.0
