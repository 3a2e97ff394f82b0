"""Tracial state, two-point functions, clustering envelopes."""

import numpy as np
import pytest
import scipy.linalg

from grading_lab.dense import ChainSpec, realize
from grading_lab.dressing import dressed_matrix_unit
from grading_lab.dynamics import QuadraticModel, generator, one_particle_flow, span_basis
from grading_lab.oneparticle import Hopping
from grading_lab.states import clustering_report, trace_state, two_point
from grading_lab.weyl import AlgebraElement, GradingParams, WeylMonomial

from test_dense import forbid_full_matrix
from test_dynamics import _charged_input, program_evolution
from test_weyl import gauge_rotated, random_element

D2 = GradingParams(2, 1, 1)


class TestTraceState:
    def test_identity(self):
        assert trace_state(AlgebraElement.identity(3)) == 1.0

    def test_nonzero_label_traceless(self):
        for k, l in ((1, 0), (0, 1), (2, 2)):
            assert trace_state(WeylMonomial.single(3, 0, k, l).as_element()) == 0j

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
            got = trace_state(gauge_rotated(a, j))
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
        ad = realize(a, chain).entries
        for evolved in program_evolution(model, b, (0.0, 1.3)):
            bt = evolved.entries
            lhs = np.trace(ad @ bt) / chain.dim
            rhs = np.trace(bt @ ad) / chain.dim
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_d2_free_propagator_tracking(self):
        # tau_t(B_y) = sum_x exp(tM)[x, y] B_x and omega(B_x B_x') vanishes for
        # x != x', so two_point(B_x, B_y) = exp(tM)[x, y] omega(B_x^2) on every
        # pair of the 2L basis monomials (omega(B_y) = 0, B_y has charge 1)
        times = [0.0, 0.5, 1.0, 1.5]
        for hopping in (
            {1: -1j / 16, -1: 1j / 16},
            {1: 0.0375 - 0.05j, -1: 0.0375 + 0.05j, 2: 0.03 + 0.02j, -2: 0.03 - 0.02j},
        ):
            model = QuadraticModel(ChainSpec(2, 8), D2, Hopping(hopping))
            m = generator(model)
            basis = [b.as_element() for b in span_basis(D2, model.chain)[0]]
            for y, by in enumerate(basis):
                delta = np.eye(16)[y].reshape(2, 8)
                columns = [f.reshape(-1) for f in one_particle_flow(m, delta, D2, times)]
                for x, bx in enumerate(basis):
                    series = two_point(bx, by, model, times)
                    want = [col[x] * trace_state(bx * bx) for col in columns]
                    assert np.abs(series.values - want).max() < 1e-12


class TestTwoPointOracle:
    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, Hopping({1: -1j / 16, -1: 1j / 16})),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    @pytest.mark.parametrize("q", [0, 1], ids=["charge0", "charged"])
    def test_matches_expm(self, d, L, hopping, q):
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        chain = model.chain
        # A has charge q and B charge -q, so trace(A tau_t(B)) need not vanish
        a = _charged_input(d, (q,), seed=3 * d)
        b = a.adjoint().scale(0.5) + _charged_input(d, (-q,), seed=3 * d + 1)
        if q == 0:
            # identity parts make omega(A) omega(B) nonzero
            a = a + AlgebraElement.identity(d).scale(0.4)
            b = b + AlgebraElement.identity(d).scale(0.7)
        ad, bd = realize(a, chain).entries, realize(b, chain).entries
        h = model.dense_hamiltonian.entries
        times = [0.0, 0.9, 2.5, 6.3]
        series = two_point(a, b, model, times)
        worst = 0.0
        for t, got in zip(times, series.values):
            bt = scipy.linalg.expm(1j * t * h) @ bd @ scipy.linalg.expm(-1j * t * h)
            want = np.trace(ad @ bt) / chain.dim - np.trace(ad) * np.trace(bd) / chain.dim**2
            worst = max(worst, abs(want))
            assert abs(got - want) < 1e-12
        assert worst > 1e-3

    def test_empty_grid_rejected(self):
        model = QuadraticModel(ChainSpec(2, 4), D2, Hopping({1: -0.125j, -1: 0.125j}))
        a = dressed_matrix_unit(1, 1, 1, D2, model.chain)
        with pytest.raises(ValueError, match="empty time grid"):
            two_point(a, a, model, [])
        with pytest.raises(ValueError, match="empty time grid"):
            clustering_report(a, a, model, [])


class TestClustering:
    def test_charge_selection_rule_at_t0(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: -0.125j, -1: 0.125j}))
        a = WeylMonomial.single(2, 1, 0, 1).as_element()
        b = WeylMonomial.single(2, 4, 1, 0).as_element()
        rep = clustering_report(a, b, model, [0.0, 0.5])
        assert rep.initial < 1e-13

    def test_d2_free_envelope_drops(self):
        # frozen grid [0, 15]: the dressed density correlation envelope
        # falls below 0.2 of its initial value before the revival
        model = QuadraticModel(ChainSpec(2, 8), D2, Hopping({1: -1j / 16, -1: 1j / 16}))
        a = dressed_matrix_unit(3, 1, 1, D2, model.chain)
        rep = clustering_report(a, a, model, np.linspace(0.0, 15.0, 16))
        assert rep.initial > 0.1
        assert rep.envelope.min() / rep.initial < 0.2

    def test_stays_on_blocks(self, monkeypatch):
        # decay_d3's gauge-invariant pair (dressed hopping bilinears on sites
        # 0, 1 and 2, 3) at d = 3, L = 4: no step assembles a full matrix
        chain = ChainSpec(3, 4)
        params = GradingParams(3, 1, 1)
        hopping = Hopping({1: 0.5, -1: 0.5})
        a = dressed_matrix_unit(0, 0, 1, params, chain) * dressed_matrix_unit(1, 1, 0, params, chain)
        b = dressed_matrix_unit(2, 0, 1, params, chain) * dressed_matrix_unit(3, 1, 0, params, chain)
        grid = np.linspace(0.0, 12.0, 49)
        want = clustering_report(a.adjoint(), b, QuadraticModel(chain, params, hopping), grid)
        forbid_full_matrix(monkeypatch)
        got = clustering_report(a.adjoint(), b, QuadraticModel(chain, params, hopping), grid)
        assert np.array_equal(got.series.values, want.series.values)
        assert np.abs(want.series.values).max() > 1e-3

    def test_reproducible(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: -0.125j, -1: 0.125j}))
        a = dressed_matrix_unit(2, 1, 1, D2, model.chain)
        r1 = clustering_report(a, a, model, [0.0, 1.0, 2.0])
        r2 = clustering_report(a, a, model, [0.0, 1.0, 2.0])
        assert np.array_equal(r1.envelope, r2.envelope)
        assert np.array_equal(r1.series.values, r2.series.values)
