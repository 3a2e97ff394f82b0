"""Heisenberg dynamics: Hamiltonian structure, flows, audits, residuals."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import grading_lab.dynamics as dynamics
from grading_lab.dense import ChainSpec, DenseOperator, gauge_project, op_norm, realize
from grading_lab.dressing import dressed_matrix_unit, dressed_weyl, dressed_weyl_rs
from grading_lab.dynamics import (
    FREE_FLOW_RATE_D2,
    QuadraticModel,
    claimed_commutator_audit,
    commutator_decay,
    d2_effective_hopping,
    gauge_invariance_defect,
    heisenberg_evolve,
    phase_blocks,
    reconstruct_spin_evolution,
    smear,
    span_residual,
)
from grading_lab.oneparticle import Hopping, OneParticleVector, evolve
from grading_lab.weyl import AlgebraElement, GradingParams, WeylMonomial, commutation_phase

from test_dense import block_bits, signed_zero_blocks

D2 = GradingParams(2, 1, 1)
D3 = GradingParams(3, 1, 1)
IM_NN = Hopping({1: -1j / 16, -1: 1j / 16})


def d2_model(L=8, scale=1.0):
    return QuadraticModel(ChainSpec(2, L), D2, Hopping({1: -1j * scale / 16, -1: 1j * scale / 16}))


def traced_peak(call):
    """call()'s result and the peak bytes tracemalloc sees allocated while it runs, beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBuildHamiltonian:
    def test_zero_hopping(self):
        model = QuadraticModel(ChainSpec(3, 4), D3, Hopping({}))
        assert not model.hamiltonian.terms

    def test_symbolically_self_adjoint(self):
        model = QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))
        assert model.hamiltonian.isclose(model.hamiltonian.adjoint(), 1e-13)

    def test_gauge_invariant(self):
        for model in (d2_model(), QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))):
            assert model.hamiltonian.is_gauge_invariant(1e-14)
            assert gauge_invariance_defect(model) < 1e-12

    def test_d2_matches_independent_majorana_chain(self):
        # one-sided strings make the d=2 Hamiltonian the one-species
        # Majorana hopping chain sum_{z,x} 2i Im h(x) g_z g_{z+x}; rebuild it
        # from raw Pauli matrices and compare exactly
        L = 6
        model = d2_model(L)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.diag([1.0, -1.0]).astype(complex)

        def gamma(z):
            ops = [np.eye(2, dtype=complex)] * L
            ops[z] = X
            for w in range(z + 1, L):
                ops[w] = Z
            out = np.eye(1, dtype=complex)
            for o in ops:
                out = np.kron(out, o)
            return out

        g = [gamma(z) for z in range(L)]
        ref = np.zeros((2**L, 2**L), dtype=complex)
        for x, a in model.hopping.coefficients.items():
            for z in range(L):
                if 0 <= z + x < L:
                    ref += 2j * a.imag * (g[z] @ g[z + x])
        assert np.abs(model.dense_hamiltonian.entries - ref).max() < 1e-12

    def test_support_too_large(self):
        with pytest.raises(ValueError):
            QuadraticModel(ChainSpec(2, 4), D2, Hopping({4: 1.0, -4: 1.0}))


class TestHeisenbergEvolve:
    def test_t0_is_realization(self):
        model = d2_model(6)
        a = dressed_weyl(2, 1, D2, model.chain).as_element()
        got = heisenberg_evolve(a, model, 0.0).entries
        assert np.abs(got - realize(a, model.chain).entries).max() < 1e-12

    def test_norm_preserved(self):
        model = d2_model(6)
        a = dressed_matrix_unit(2, 0, 1, D2, model.chain)
        n0 = op_norm(realize(a, model.chain))
        nt = op_norm(heisenberg_evolve(a, model, 3.7))
        assert abs(nt - n0) < 1e-10

    def test_group_law(self):
        model = d2_model(6)
        a = realize(dressed_weyl(2, 1, D2, model.chain).as_element(), model.chain)
        one = heisenberg_evolve(heisenberg_evolve(a, model, 1.3), model, 2.1).entries
        two = heisenberg_evolve(a, model, 3.4).entries
        assert np.abs(one - two).max() < 1e-10

    def test_commutes_with_gauge_projection(self):
        model = d2_model(6)
        rng = np.random.default_rng(31)
        m = realize(
            AlgebraElement.from_monomials(
                [
                    (complex(rng.standard_normal(), rng.standard_normal()),
                     WeylMonomial.from_labels(2, {1: (0, 1), 3: (1, 1)})),
                    (complex(rng.standard_normal(), rng.standard_normal()),
                     WeylMonomial.from_labels(2, {2: (1, 0)})),
                ]
            ),
            model.chain,
        )
        lhs = gauge_project(heisenberg_evolve(m, model, 1.9)).entries
        rhs = heisenberg_evolve(gauge_project(m), model, 1.9).entries
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_free_flow_dictionary(self):
        # dense flow of the charge-0-flavor field equals the one-particle
        # multiplier with symbol scaled by FREE_FLOW_RATE_D2; the hopping is
        # kept small so boundary leakage stays far below the tolerance
        model = d2_model(8, scale=0.01)
        f0 = OneParticleVector.from_amplitudes(2, 8, {(3, 0): 1.0, (4, 0): 0.5 - 0.25j})
        heff = d2_effective_hopping(model)
        assert heff.coefficients[1] == pytest.approx(FREE_FLOW_RATE_D2 * (-0.01j / 16))
        a0 = realize(smear(f0, D2, model.chain), model.chain)
        for t in (0.5, 1.5):
            lhs = heisenberg_evolve(a0, model, t).entries
            rhs = realize(smear(evolve(f0, heff, t), D2, model.chain), model.chain).entries
            dev = np.abs(lhs - rhs).max()
            signal = np.abs(lhs - a0.entries).max()
            assert dev < 1e-6
            assert signal > 1e-3  # the comparison tracks a real evolution

    def test_orthogonal_flavor_frozen(self):
        # the charge-1 flavor generators commute with the d=2 Hamiltonian
        model = d2_model(6)
        f1 = OneParticleVector.from_amplitudes(2, 6, {(2, 1): 1.0})
        a = realize(smear(f1, D2, model.chain), model.chain)
        got = heisenberg_evolve(a, model, 2.0).entries
        assert np.abs(got - a.entries).max() < 1e-12


def _charged_input(d, charges, seed):
    """Random combination of two monomials of each listed shift charge mod d."""
    rng = np.random.default_rng(seed)
    pairs = []
    for q in charges:
        q %= d
        for labels in ({1: (0, q), 2: (1, 0)}, {0: (1, 1), 1: (0, (q - 1) % d)}):
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            pairs.append((coeff, WeylMonomial.from_labels(d, labels)))
    return AlgebraElement.from_monomials(pairs, d)


class TestSectorBlocks:
    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    @pytest.mark.parametrize("charges", [(0,), (1,), (0, 1, 2)], ids=["charge0", "charge1", "mixed"])
    def test_matches_full_expm(self, d, L, hopping, charges):
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        a = _charged_input(d, charges, seed=7 * d + len(charges))
        full = realize(a, model.chain).entries
        for t in (0.0, 1.3, 4.1):
            u = scipy.linalg.expm(1j * t * model.dense_hamiltonian.entries)
            want = u @ full @ u.conj().T
            got = heisenberg_evolve(a, model, t).entries
            assert np.abs(got - want).max() < 1e-12

    def test_off_sector_entry_rejected(self, monkeypatch):
        model = QuadraticModel(ChainSpec(2, 4), D2, IM_NN)
        # basis states 0 (|0000>, charge 0) and 1 (|0001>, charge 1) are the
        # first states of their sectors; a hermitian pair keeps the
        # hermiticity check quiet
        pair = np.zeros((8, 8), dtype=complex)
        pair[0, 0] = 1e-9
        realize_h = dynamics.realize

        def realize_leaky(a, chain):
            h = realize_h(a, chain)
            h.blocks[0, 1] = pair
            h.blocks[1, 0] = pair.copy()
            return h

        monkeypatch.setattr(dynamics, "realize", realize_leaky)
        with pytest.raises(ValueError, match="mixes charge sectors"):
            model.eigensystem

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    def test_propagator_matches_expm(self, d, L, hopping):
        # propagator(t) holds the eigenbasis phases; rebuilt in the site basis
        # per sector it is the matching diagonal block of expm(iHt)
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        _, vecs = model.eigensystem
        sectors = model.chain.sectors()
        for t in (0.0, 1.3, 4.1):
            want = scipy.linalg.expm(1j * t * model.dense_hamiltonian.entries)
            phases = model.propagator(t)
            assert phases.shape == (d, d ** (L - 1))
            for c in range(d):
                got = (vecs[c] * phases[c]) @ vecs[c].conj().T
                assert np.abs(got - want[np.ix_(sectors[c], sectors[c])]).max() < 1e-12

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    @pytest.mark.parametrize("charges", [(0,), (1,), (0, 1, 2)], ids=["charge0", "charge1", "mixed"])
    def test_block_max_abs_matches_site_operator(self, d, L, hopping, charges):
        # the entrywise maximum over the nonzero site-basis blocks is the
        # maximum over the assembled matrix: absent blocks are exactly zero
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        rotated = model.eigenbasis_blocks(realize(_charged_input(d, charges, seed=5 * d + len(charges)), model.chain))
        assert len(rotated.blocks) == (d if len(charges) == 1 else d * d)
        for t in (0.0, 1.3):
            site = model.site_blocks(phase_blocks(rotated, model.propagator(t)))
            assert site.max_abs() == float(np.abs(site.entries).max())
        empty = DenseOperator(model.chain, {})
        assert empty.max_abs() == float(np.abs(empty.entries).max()) == 0.0

    def test_phase_blocks_matches_expression_bit_for_bit(self):
        rng = np.random.default_rng(37)
        keys = [(r, c) for r in range(3) for c in range(3) if (r, c) != (1, 2)]
        blocks = signed_zero_blocks(rng, keys, m=9)
        u = np.exp(1j * rng.standard_normal((3, 9)))
        before = block_bits(blocks)
        got = phase_blocks(DenseOperator(ChainSpec(3, 3), blocks), u).blocks
        assert block_bits(blocks) == before
        want = {(r, c): u[r][:, None] * blk * u[c].conj() for (r, c), blk in blocks.items()}
        assert block_bits(got) == block_bits(want)


class TestCommutatorDecay:
    def test_disjoint_supports_start_at_zero(self):
        model = d2_model(8)
        a = dressed_matrix_unit(1, 1, 1, D2, model.chain)
        b = dressed_matrix_unit(5, 1, 1, D2, model.chain)
        res = commutator_decay(a, b, model, [0.0, 0.4])
        assert res.points[0].norm < 1e-12
        assert res.a_gauge_invariant and res.b_gauge_invariant

    def test_series_deterministic_and_sorted(self):
        model = d2_model(6)
        a = dressed_matrix_unit(1, 1, 1, D2, model.chain)
        b = dressed_matrix_unit(3, 1, 1, D2, model.chain)
        r1 = commutator_decay(a, b, model, [2.0, 0.5, 1.0])
        r2 = commutator_decay(a, b, model, [0.5, 1.0, 2.0])
        assert np.array_equal(r1.times, np.array([0.5, 1.0, 2.0]))
        assert np.array_equal(r1.norms, r2.norms)

    def test_d2_free_contrast_frozen(self):
        # peaks checked against a full SVD (L=10, h = -i/16 a = 1):
        # the gauge-invariant density pair dips below 0.1 of its window peak
        # while the bare charged pair never drops below 0.5 of its peak after
        # the front arrives; the asserted property is the ordering
        model = QuadraticModel(ChainSpec(2, 10), D2, IM_NN)
        gi_a = dressed_matrix_unit(3, 1, 1, D2, model.chain)
        gi_b = dressed_matrix_unit(5, 1, 1, D2, model.chain)
        bare_a = WeylMonomial.single(2, 3, 0, 1).as_element()
        bare_b = WeylMonomial.single(2, 5, 0, 1).as_element()
        grid = [0.0, 1.5, 3.0, 4.5, 5.0, 6.0, 7.5, 9.0, 10.5, 11.0, 12.5, 14.0, 15.0]
        gi = commutator_decay(gi_a, gi_b, model, grid)
        bare = commutator_decay(bare_a, bare_b, model, grid)
        assert not bare.a_gauge_invariant
        gi_ratio = gi.norms.min(initial=np.inf, where=gi.times > 0) / gi.norms.max()
        assert gi.norms.max() == pytest.approx(0.2430, abs=0.02)
        assert gi_ratio < 0.1
        ipk = int(np.argmax(bare.norms))
        bare_ratio = bare.norms[ipk:].min() / bare.norms.max()
        assert bare.norms.max() == pytest.approx(1.9998, abs=0.01)
        assert bare_ratio > 0.5
        assert gi_ratio < bare_ratio


class TestCommutatorDecayOracle:
    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    @pytest.mark.parametrize("a_charges, b_charges", [((1,), (1,)), ((0, 1), (0,))], ids=["definite", "mixed"])
    def test_matches_expm(self, monkeypatch, d, L, hopping, a_charges, b_charges):
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        a = _charged_input(d, a_charges, seed=11 * d + len(a_charges))
        b = _charged_input(d, b_charges, seed=13 * d)
        ad, bd = realize(a, model.chain).entries, realize(b, model.chain).entries
        h = model.dense_hamiltonian.entries
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(m):
            shapes.append(np.shape(m))
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        times = [0.0, 1.3, 4.1]
        res = commutator_decay(a, b, model, times)
        worst = 0.0
        for t, p in zip(times, res.points):
            at = scipy.linalg.expm(1j * t * h) @ ad @ scipy.linalg.expm(-1j * t * h)
            want = np.linalg.norm(at @ bd - bd @ at, 2)
            worst = max(worst, want)
            assert abs(p.norm - want) < 1e-12
        assert worst > 1e-3
        # op_norm takes a definite-charge commutator as the largest of d
        # sector-block norms; a mixed one shares sectors and takes the
        # assembled matrix
        m = d ** (L - 1)
        full = len(a_charges) > 1
        assert shapes == ([(d * m, d * m)] * len(times) if full else [(m, m)] * (d * len(times)))


class TestClaimedCommutatorAudit:
    def test_rows_and_statuses(self):
        model = QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))
        rows = claimed_commutator_audit(model, x=3, z=1)
        ids = [r.claim_id for r in rows]
        assert "midpoint_reduction" in ids
        assert "endpoint_reduction_left" in ids
        assert "endpoint_reduction_right" in ids
        for r in rows:
            assert r.status in ("MATCH", "MISMATCH")
            assert r.payload

    def test_derivative_closure_row(self):
        model = QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))
        rows = claimed_commutator_audit(model, x=1, z=2)
        ids = [r.claim_id for r in rows]
        assert "derivative_closure" in ids

    def test_outside_interval_vanishes(self):
        model = QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))
        rows = claimed_commutator_audit(model, x=2, z=3)
        van = [r for r in rows if r.claim_id == "midpoint_vanishing"]
        assert van and van[0].status == "MATCH"


class TestSpanResidual:
    def test_d2_free_closure(self):
        model = d2_model(8)
        f = OneParticleVector.from_amplitudes(2, 8, {(3, 0): 1.0, (4, 1): 0.5, (5, 0): 0.25j})
        res, coeffs = span_residual(model, f)
        assert res < 1e-10
        assert coeffs

    def test_zero_hopping(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({}))
        f = OneParticleVector.from_amplitudes(2, 6, {(2, 0): 1.0})
        res, coeffs = span_residual(model, f)
        assert res == 0.0 and not coeffs

    def test_d3_residual_reported(self):
        model = QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))
        f = OneParticleVector.from_amplitudes(3, 6, {(2, 0): 1.0})
        res, _ = span_residual(model, f)
        assert 0.0 < res <= 1.0


class TestReconstruction:
    def test_t0_identity(self):
        model = d2_model(6)
        (rep,) = reconstruct_spin_evolution(model, [0.0])
        assert rep.deviation < 1e-12

    def test_d2_t1(self):
        (rep,) = reconstruct_spin_evolution(d2_model(8), [1.0])
        assert rep.deviation < 1e-10

    def test_factor_order_irrelevant(self):
        # a.b = exp(2i*pi*c/d) b.a: the reversed factor order, evolved factor
        # by factor with the full site-basis expm(iHt), reconstructs the
        # clock as well
        model = QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))
        d, site, t = 3, 2, 0.8
        ma = dressed_weyl(site, 1, D3, model.chain)
        mb = dressed_weyl_rs(site, 1, -1, D3, model.chain)
        u = scipy.linalg.expm(1j * t * model.dense_hamiltonian.entries)
        lhs, fa_t, fb_t = (
            u @ realize(m, model.chain).entries @ u.conj().T for m in (WeylMonomial.single(d, site, 1, 0), ma, mb)
        )
        phase = np.exp(2j * np.pi / d) * np.exp(2j * np.pi * commutation_phase(ma, mb) / d)
        assert np.abs(lhs - phase * (fb_t @ fa_t)).max() < 1e-10
        (rep,) = reconstruct_spin_evolution(model, [t])
        assert rep.site == site and rep.deviation < 1e-10

    def test_one_report_per_grid_point(self):
        model = QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))
        grid = [0.8, 0.0, 2.5]
        reps = reconstruct_spin_evolution(model, grid)
        assert [rep.t for rep in reps] == grid
        for t, rep in zip(grid, reps):
            assert [rep] == reconstruct_spin_evolution(model, [t])
            assert rep.site == 2
            assert rep.deviation < 1e-10

    def test_one_product_and_back_rotation_per_grid_point(self, monkeypatch):
        model = QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))
        counts = {"product": 0, "site_blocks": 0}
        product, back = DenseOperator.__matmul__, QuadraticModel.site_blocks

        def counting_product(x, y):
            counts["product"] += 1
            return product(x, y)

        def counting_back(self, a):
            counts["site_blocks"] += 1
            return back(self, a)

        monkeypatch.setattr(DenseOperator, "__matmul__", counting_product)
        monkeypatch.setattr(QuadraticModel, "site_blocks", counting_back)
        reconstruct_spin_evolution(model, [0.0, 0.8, 2.5])
        assert counts == {"product": 3, "site_blocks": 3}

    def test_working_set(self):
        # beside the eigenvectors, the three rotated operators and one phased
        # copy per t: 12 blocks of m x m complex entries, the phased factors
        # freed once their product exists
        model = d2_model(8)
        model.eigensystem
        block = 16 * (model.chain.dim // 2) ** 2
        reports, peak = traced_peak(lambda: reconstruct_spin_evolution(model, [0.0, 1.0, 2.0]))
        assert len(reports) == 3
        assert peak <= 13 * block
