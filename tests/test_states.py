"""Tracial state, two-point functions, clustering envelopes."""

import numpy as np
import pytest
from scipy.special import jv

from grading_lab.dense import ChainSpec, realize
from grading_lab.dressing import dressed_matrix_unit
from grading_lab.dynamics import QuadraticModel, d2_effective_hopping
from grading_lab.oneparticle import Hopping, OneParticleVector, evolve
from grading_lab.states import clustering_report, trace_state, two_point
from grading_lab.weyl import AlgebraElement, GradingParams, WeylMonomial, gauge_rotate

from test_weyl import random_element

D2 = GradingParams(2, 1, 1)


class TestTraceState:
    def test_identity(self):
        assert trace_state(AlgebraElement.identity(3)) == 1.0

    def test_nonzero_label_traceless(self):
        for k, l in ((1, 0), (0, 1), (2, 2)):
            assert trace_state(WeylMonomial.single(3, 0, k, l)) == 0j

    def test_diagonal_dressed_unit(self):
        chain = ChainSpec(3, 4)
        params = GradingParams(3, 1, 1)
        mu = dressed_matrix_unit(1, 2, 2, params, chain)
        assert trace_state(mu) == pytest.approx(1 / 3)
        dense = realize(mu, chain).entries
        assert np.trace(dense) / 81 == pytest.approx(1 / 3)

    def test_tracial_symmetry_exact(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            a = random_element(rng, 3, 4)
            b = random_element(rng, 3, 4)
            assert trace_state(a * b) == pytest.approx(trace_state(b * a), abs=1e-12)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(41)
        a = random_element(rng, 3, 3, terms=5)
        for j in range(3):
            got = trace_state(gauge_rotate(a, 2 * np.pi * j / 3))
            assert got == pytest.approx(trace_state(a), abs=1e-12)

    def test_dense_agreement_random(self):
        rng = np.random.default_rng(42)
        chain = ChainSpec(3, 5)
        for _ in range(10):
            a = random_element(rng, 3, 5, terms=5)
            dense = np.trace(realize(a, chain).entries) / chain.dim
            assert trace_state(a) == pytest.approx(complex(dense), abs=1e-12)


class TestTwoPoint:
    def test_identity_observable_vanishes(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: -0.125j, -1: 0.125j}))
        series = two_point(AlgebraElement.identity(2), WeylMonomial.single(2, 2, 1, 0).as_element(),
                           model, [0.0, 1.0, 2.0])
        assert np.abs(series.values).max() < 1e-13

    def test_tracial_symmetry_dense(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: -0.125j, -1: 0.125j}))
        chain = model.chain
        a = dressed_matrix_unit(1, 0, 1, D2, chain)
        b = dressed_matrix_unit(3, 1, 0, D2, chain)
        from grading_lab.dynamics import heisenberg_evolve

        ad = realize(a, chain).entries
        for t in (0.0, 1.3):
            bt = heisenberg_evolve(realize(b, chain), model, t).entries
            lhs = np.trace(ad @ bt) / chain.dim
            rhs = np.trace(bt @ ad) / chain.dim
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_d2_free_propagator_tracking(self):
        # the creation/annihilation pair tracks (1/4) of the one-particle
        # propagator; the propagator itself is Bessel up to the rate factor
        hop = Hopping({1: -1j / 80, -1: 1j / 80})
        model = QuadraticModel(ChainSpec(2, 10), D2, hop)
        a = dressed_matrix_unit(3, 0, 1, D2, model.chain)
        b = dressed_matrix_unit(5, 1, 0, D2, model.chain)
        times = [0.0, 0.5, 1.0, 1.5]
        series = two_point(a, b, model, times)
        heff = d2_effective_hopping(model)
        delta = OneParticleVector.from_amplitudes(2, 10, {(3, 0): 1.0})
        rate = 8 * 2 * (1 / 80)
        for t, v in zip(series.times, series.values):
            prop = evolve(delta, heff, t).amplitude(5)
            assert abs(v) == pytest.approx(abs(prop) / 4, abs=1e-8)
            assert abs(prop) == pytest.approx(abs(jv(2, rate * t)), abs=1e-8)


class TestClustering:
    def test_charge_selection_rule_at_t0(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: -0.125j, -1: 0.125j}))
        a = WeylMonomial.single(2, 1, 0, 1).as_element()
        b = WeylMonomial.single(2, 4, 1, 0).as_element()
        rep = clustering_report(a, b, model, [0.0, 0.5])
        assert rep.initial < 1e-13

    def test_d2_free_envelope_drops(self):
        # frozen window [0, 15]: the dressed density correlation envelope
        # falls below 0.2 of its initial value before the revival
        model = QuadraticModel(ChainSpec(2, 8), D2, Hopping({1: -1j / 16, -1: 1j / 16}))
        a = dressed_matrix_unit(3, 1, 1, D2, model.chain)
        rep = clustering_report(a, a, model, np.linspace(0.0, 15.0, 16), window=(0.0, 15.0))
        assert rep.initial > 0.1
        assert rep.min_envelope_ratio() < 0.2

    def test_reproducible(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: -0.125j, -1: 0.125j}))
        a = dressed_matrix_unit(2, 1, 1, D2, model.chain)
        r1 = clustering_report(a, a, model, [0.0, 1.0, 2.0])
        r2 = clustering_report(a, a, model, [0.0, 1.0, 2.0])
        assert np.array_equal(r1.envelope, r2.envelope)
        assert np.array_equal(r1.series.values, r2.series.values)
