"""Heisenberg dynamics: Hamiltonian structure, flows, audits, residuals."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import grading_lab.dynamics as dynamics
from grading_lab.dense import ChainSpec, DenseOperator, gauge_project, op_norm, realize
from grading_lab.dressing import dressed_matrix_unit, dressed_weyl, dressed_weyl_rs
from grading_lab.dynamics import (
    QuadraticModel,
    claimed_commutator_audit,
    commutator_decay,
    gauge_invariance_defect,
    generator,
    heisenberg_evolve,
    phase_blocks,
    reconstruct_spin_evolution,
    smear,
    span_residual,
)
from grading_lab.oneparticle import Hopping
from grading_lab.weyl import AlgebraElement, GradingParams, WeylMonomial, commutation_phase, mono_adjoint, mono_mul

from test_dense import block_bits, signed_zero_blocks

D2 = GradingParams(2, 1, 1)
D3 = GradingParams(3, 1, 1)
IM_NN = Hopping({1: -1j / 16, -1: 1j / 16})


def d2_model(L=8):
    return QuadraticModel(ChainSpec(2, L), D2, IM_NN)


def amplitudes(d, N, values):
    """The (d, N) amplitude array f with f[j, x] = values[x, j]."""
    f = np.zeros((d, N), dtype=complex)
    for (x, j), a in values.items():
        f[j, x] = a
    return f


def program_evolution(model, a, times):
    """tau_t(a) at each t on the path ``evolve`` runs: one rotation into the eigenbasis, then per t the phases and the rotation back."""
    rotated = model.eigenbasis_blocks(a)
    return [model.site_blocks(phase_blocks(rotated, model.propagator(t))) for t in times]


def expm_evolution(model, a, t):
    """exp(iHt) a exp(-iHt) with scipy's expm of the assembled dense H, independent of the eigenbasis path."""
    u = scipy.linalg.expm(1j * t * model.dense_hamiltonian.entries)
    return u @ a.entries @ u.conj().T


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("L", [5, 9])
    def test_bonds_match_dressed_products(self, d, L):
        # each bond is built once on |x| + 1 sites and shifted into place: the
        # same term keys, in the same order, with the same coefficient bytes
        # as the product of the two full-chain dressed generators per bond
        hopping = Hopping({0: 0.5, 1: 0.3 - 0.2j, -1: 0.3 + 0.2j, 3: 0.1j, -3: -0.1j})
        chain = ChainSpec(d, L)
        for j_plus in range(d):
            for j_minus in range(d):
                params = GradingParams(d, j_plus, j_minus)
                pairs = [
                    (a, mono_mul(dressed_weyl(z, 1, params, chain), mono_adjoint(dressed_weyl(z + x, 1, params, chain))))
                    for x, a in sorted(hopping.coefficients.items())
                    for z in range(max(0, -x), min(L, L - x))
                ]
                half = AlgebraElement.from_monomials(pairs, d)
                want = half + half.adjoint()
                got = QuadraticModel(chain, params, hopping).hamiltonian
                assert list(got.terms) == list(want.terms)
                assert np.array(list(got.terms.values())).tobytes() == np.array(list(want.terms.values())).tobytes()

    def test_support_too_large(self):
        with pytest.raises(ValueError):
            QuadraticModel(ChainSpec(2, 4), D2, Hopping({4: 1.0, -4: 1.0}))

    def test_d2_real_hopping_is_empty(self):
        # at d = 2 the real part of h cancels against its adjoint term exactly:
        # every phase is a quarter turn, so no round-off term is left over
        model = QuadraticModel(ChainSpec(2, 10), D2, Hopping({1: 0.0625, -1: 0.0625}))
        assert not model.hamiltonian.terms


class TestHeisenbergEvolve:
    # properties of the evolution ``evolve`` runs; where two evolutions are
    # compared, one side is the expm conjugation
    def test_t0_is_realization(self):
        model = d2_model(6)
        a = realize(dressed_weyl(2, 1, D2, model.chain).as_element(), model.chain)
        (got,) = program_evolution(model, a, [0.0])
        assert np.abs(got.entries - a.entries).max() < 1e-12

    def test_norm_preserved(self):
        model = d2_model(6)
        a = realize(dressed_matrix_unit(2, 0, 1, D2, model.chain), model.chain)
        (at,) = program_evolution(model, a, [3.7])
        assert abs(op_norm(at) - op_norm(a)) < 1e-10

    def test_group_law(self):
        model = d2_model(6)
        a = realize(dressed_weyl(2, 1, D2, model.chain).as_element(), model.chain)
        (at,) = program_evolution(model, a, [1.3])
        (one,) = program_evolution(model, at, [2.1])
        two = expm_evolution(model, a, 3.4)
        assert np.abs(one.entries - two).max() < 1e-10

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
        (mt,) = program_evolution(model, m, [1.9])
        lhs = gauge_project(mt).entries
        rhs = expm_evolution(model, gauge_project(m), 1.9)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_free_flow_dictionary(self):
        # dense flow of the charge-0-flavor field equals the smeared field of
        # the open chain's one-particle flow exp(tM) f0 (see TestGenerator)
        model = d2_model(8)
        f0 = amplitudes(2, 8, {(3, 0): 1.0, (4, 0): 0.5 - 0.25j})
        a0 = realize(smear(f0, D2, model.chain), model.chain)
        times = (0.5, 1.5)
        flows = dynamics.one_particle_flow(generator(model), f0, times)
        for ft, evolved in zip(flows, program_evolution(model, a0, times)):
            lhs = evolved.entries
            rhs = realize(smear(ft, D2, model.chain), model.chain).entries
            dev = np.abs(lhs - rhs).max()
            signal = np.abs(lhs - a0.entries).max()
            assert dev < 1e-12
            assert signal > 1e-3  # the comparison tracks a real evolution

    def test_orthogonal_flavor_frozen(self):
        # the charge-1 flavor generators commute with the d=2 Hamiltonian
        model = d2_model(6)
        f1 = amplitudes(2, 6, {(2, 1): 1.0})
        a = realize(smear(f1, D2, model.chain), model.chain)
        (got,) = program_evolution(model, a, [2.0])
        assert np.abs(got.entries - a.entries).max() < 1e-12


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


GENERATOR_MODELS = pytest.mark.parametrize("L, hopping", [
    (8, {1: -1j / 16, -1: 1j / 16}),
    (7, {1: 0.0375 - 0.05j, -1: 0.0375 + 0.05j, 2: 0.03 + 0.02j, -2: 0.03 - 0.02j}),
    (4, {3: -0.5j, -3: 0.5j, 1: 0.25, -1: 0.25}),
    (10, {1: -0.0625j, -1: 0.0625j}),
    (40, {1: -0.0625j, -1: 0.0625j}),
], ids=["nn", "nnn_complex", "range_3", "evolve_d2", "L40"])


def counted_eigh(monkeypatch):
    """Replace np.linalg.eigh by a wrapper that appends each input's shape to the returned list."""
    eigh = np.linalg.eigh
    calls = []

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def assert_exact_eigensystem(model, blocks):
    """Every sector's eigenpairs solve its realized block (absent: zero) to 1e-12, with orthonormal vectors and the eigvalsh spectrum."""
    values, vectors = model.eigensystem
    zero = np.zeros((values.shape[1],) * 2, dtype=complex)
    for c in range(model.chain.d):
        h, v, w = blocks.get((c, c), zero), vectors[c], values[c]
        assert np.abs(h @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-12
        assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12


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

    @pytest.mark.parametrize("key", [(1, 1), (0, 1)], ids=["diagonal", "absent_partner"])
    def test_non_hermitian_block_rejected(self, monkeypatch, key):
        # an entry that breaks H_rc = H_cr^dag, in a diagonal block or in an
        # off-diagonal block whose partner (1, 0) is absent (H holds diagonal
        # blocks only), fails the hermiticity check, which runs before the
        # charge-sector check
        model = QuadraticModel(ChainSpec(2, 4), D2, IM_NN)
        realize_h = dynamics.realize

        def realize_skewed(a, chain):
            h = realize_h(a, chain)
            blk = h.blocks.setdefault(key, np.zeros((8, 8), dtype=complex))
            blk[0, 1] += 1e-9
            return h

        monkeypatch.setattr(dynamics, "realize", realize_skewed)
        with pytest.raises(ValueError, match="not hermitian"):
            model.eigensystem

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    def test_eigensystem_derives_sectors_from_sector_0(self, d, L, hopping):
        # sector 0 is bit for bit the eigh of its realized block; every other
        # sector is reached through the charge-raising symmetry, so it has
        # the values of its source byte for byte and vectors that diagonalise
        # its own realized block
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        blocks = model.dense_hamiltonian.blocks
        values, vectors = model.eigensystem
        assert values.shape == (d, d ** (L - 1)) and len(vectors) == d
        w, v = np.linalg.eigh(blocks[0, 0])
        assert values[0].tobytes() == w.tobytes()
        assert vectors[0].tobytes() == v.tobytes()
        for c in range(1, d):
            assert values[c].tobytes() == values[c - 1].tobytes()
        assert_exact_eigensystem(model, blocks)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @GENERATOR_MODELS
    def test_one_eigh_per_eigensystem(self, monkeypatch, d, L, hopping):
        # every buildable H commutes with a charge-1 B_xj, so one eigh serves
        # all d sectors, for every (j+, j-)
        L = min(L, {2: 10, 3: 5, 4: 4}[d])
        calls = counted_eigh(monkeypatch)
        for j_plus in range(d):
            for j_minus in range(d):
                model = QuadraticModel(ChainSpec(d, L), GradingParams(d, j_plus, j_minus), Hopping(hopping))
                assert model.raising_symmetry() is not None
                calls.clear()
                model.eigensystem
                assert calls == [(d ** (L - 1),) * 2]
                assert_exact_eigensystem(model, model.dense_hamiltonian.blocks)

    @pytest.mark.parametrize("d, L", [(2, 6), (3, 4)])
    def test_no_raising_symmetry_rejected(self, monkeypatch, d, L):
        # a clock field W_x(1, 0) + h.c. on every site fails to commute with
        # every B_xj (W_x(j, 1) at site x): such an H is rejected before any eigh
        params = GradingParams(d, 1, 1)
        model = QuadraticModel(ChainSpec(d, L), params, Hopping({1: 0.3 - 0.2j, -1: 0.3 + 0.2j}))
        field = AlgebraElement.from_monomials(
            [(0.1 * (x + 1), WeylMonomial.single(d, x, 1, 0)) for x in range(L)], d
        )
        model._hamiltonian = model.hamiltonian + field + field.adjoint()
        assert model.raising_symmetry() is None
        calls = counted_eigh(monkeypatch)
        with pytest.raises(ValueError, match="no charge-raising symmetry"):
            model.eigensystem
        assert calls == []

    def test_broken_raising_symmetry_rejected(self, monkeypatch):
        # block (1, 1) moved by a hermitian 1e-9 passes the hermiticity and
        # sector checks, but no longer equals U H_00 U^dag
        model = QuadraticModel(ChainSpec(2, 4), D2, IM_NN)
        realize_h = dynamics.realize

        def realize_shifted(a, chain):
            h = realize_h(a, chain)
            h.blocks[1, 1][0, 0] += 1e-9
            return h

        monkeypatch.setattr(dynamics, "realize", realize_shifted)
        with pytest.raises(ValueError, match="charge-raising symmetry"):
            model.eigensystem

    def test_eigensystem_working_set(self):
        # the realized H, one hermiticity temporary at a time and the
        # eigenvectors, each diagonal block freed once diagonalised: at most
        # 5 blocks of m x m complex entries
        model = d2_model(8)
        block = 16 * (model.chain.dim // 2) ** 2
        _, peak = traced_peak(lambda: model.eigensystem)
        assert peak <= 5 * block

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
        assert res.norms[0] < 1e-12
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
        for t, norm in zip(times, res.norms):
            at = scipy.linalg.expm(1j * t * h) @ ad @ scipy.linalg.expm(-1j * t * h)
            want = np.linalg.norm(at @ bd - bd @ at, 2)
            worst = max(worst, want)
            assert abs(norm - want) < 1e-12
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


def _dense_span_residual(model, f):
    """``span_residual`` by projection of the realized i[H, W(f)] onto the realized basis."""
    ch, pr = model.chain, model.params
    target = realize(model.hamiltonian.commutator(smear(f, pr, ch)).scale(1j), ch)
    rest, coeffs = target, np.zeros(pr.d * ch.L, dtype=complex)
    for x in range(ch.L):
        for j in range(pr.d):
            basis = realize(dressed_weyl_rs(x, j, 1, pr, ch), ch)
            coeffs[j * ch.L + x] = basis.vdot(target) / ch.dim
            rest = rest.sub(basis, coeffs[j * ch.L + x])
    return float(np.sqrt(rest.vdot(rest).real / target.vdot(target).real)), coeffs


class TestSpanResidual:
    def test_d2_free_closure(self):
        model = d2_model(8)
        f = amplitudes(2, 8, {(3, 0): 1.0, (4, 1): 0.5, (5, 0): 0.25j})
        res, coeffs = span_residual(model, f)
        assert res == 0.0
        assert coeffs.any()

    def test_zero_hopping(self):
        model = QuadraticModel(ChainSpec(2, 6), D2, Hopping({}))
        f = amplitudes(2, 6, {(2, 0): 1.0})
        res, coeffs = span_residual(model, f)
        assert res == 0.0 and not coeffs.any()

    def test_d3_residual_reported(self):
        model = QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5}))
        f = amplitudes(3, 5, {(2, 0): 1.0})
        res, _ = span_residual(model, f)
        assert 0.0 < res <= 1.0

    @pytest.mark.parametrize("model, values", [
        (QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: 0.3 - 0.2j, -1: 0.3 + 0.2j, 2: 0.1j, -2: -0.1j})),
         {(2, 0): 1.0, (3, 1): 0.5 - 0.25j}),
        (QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5, -1: 0.5})), {(2, 0): 1.0}),
        (QuadraticModel(ChainSpec(3, 4), GradingParams(3, 2, 1), Hopping({1: 0.25 - 0.5j, -1: 0.25 + 0.5j})),
         {(1, 0): 1.0, (2, 2): 0.5j}),
    ], ids=["d2", "d3", "d3_grading_charge_1"])
    def test_matches_dense_projection(self, model, values, monkeypatch):
        # the residual and the coefficients are read from labels: nothing is
        # realized, and they are those of the dense Hilbert-Schmidt projection
        # onto the realized basis
        f = amplitudes(model.params.d, model.chain.L, values)
        want, want_coeffs = _dense_span_residual(model, f)

        def forbidden(*args):
            raise AssertionError("span_residual realized an operator")

        monkeypatch.setattr(dynamics, "realize", forbidden)
        res, coeffs = span_residual(model, f)
        assert abs(res - want) <= 1e-12
        assert np.abs(coeffs - want_coeffs).max() <= 1e-12


    @pytest.mark.parametrize("d, L", [(2, 4), (3, 6)])
    def test_split_reads_back_every_flavor(self, d, L):
        # splitting a smeared field returns its amplitudes on every flavor, each
        # basis element's phase divided out; a clock monomial adds its squared
        # coefficient to the weight outside the span
        params, chain = GradingParams(d, 1, 1), ChainSpec(d, L)
        rng = np.random.default_rng(d)
        f = rng.standard_normal((d, L)) + 1j * rng.standard_normal((d, L))
        element = smear(f, params, chain) + WeylMonomial.single(d, 1, 1, 0).as_element().scale(0.5)
        coeffs, outside = dynamics.span_split(element, params, chain)
        assert outside == 0.25
        assert coeffs.shape == (d * L,)
        # coefficient k = j * L + x is f[j, x]: the row-major flattening of f
        assert np.abs(coeffs - f.reshape(-1)).max() <= 1e-15




class TestGenerator:
    @GENERATOR_MODELS
    def test_d2_dictionary(self, L, hopping):
        # at d = 2, j+ = j- = 1 the generator moves the first flavor by
        # M[y + x, y] = 8 Im h(x) on every bond inside the chain (the real part
        # of h drops out of H) and leaves the second flavor frozen; every d = 2
        # phase is exact, so M is exactly real and the realized H exactly hermitian
        model = QuadraticModel(ChainSpec(2, L), D2, Hopping(hopping))
        m = generator(model)
        want = np.zeros((2 * L, 2 * L))
        for x, a in hopping.items():
            for y in range(max(0, -x), min(L, L - x)):
                want[y + x, y] = 8 * a.imag
        assert np.abs(m - want).max() <= 1e-12
        assert not m.imag.any()
        if model.chain.dense_allowed:
            h = model.dense_hamiltonian
            assert (h - h.adjoint()).max_abs() == 0.0

    @GENERATOR_MODELS
    def test_matches_two_product_commutators(self, L, hopping):
        # the columns read from i(H B_k - B_k H), both products formed in full
        model = QuadraticModel(ChainSpec(2, L), D2, Hopping(hopping))
        h = model.hamiltonian
        basis, _ = dynamics.span_basis(D2, model.chain)
        want = np.zeros((2 * L, 2 * L), dtype=complex)
        for k, b in enumerate(basis):
            b = b.as_element()
            want[:, k], outside = dynamics.span_split((h * b - b * h).scale(1j), D2, model.chain)
            assert not outside
        assert generator(model).tobytes() == want.tobytes()

    def test_flow_rejects_input_outside_the_chain(self):
        m = np.zeros((12, 12))
        with pytest.raises(ValueError, match="amplitude at site 8 outside chain 0..5"):
            dynamics.one_particle_flow(m, amplitudes(2, 10, {(8, 1): 5.0}), [1.0])
        with pytest.raises(ValueError, match="amplitudes on 4 sites, chain has 6"):
            dynamics.one_particle_flow(m, amplitudes(2, 4, {(1, 0): 1.0}), [1.0])

    def test_flow_rejects_a_generator_that_is_not_antihermitian(self):
        f = amplitudes(2, 4, {(1, 0): 1.0})
        m = np.zeros((8, 8))
        m[1, 0] = 0.5
        with pytest.raises(ValueError, match="not antihermitian"):
            dynamics.one_particle_flow(m, f, [1.0])
        # d/dt f(0) = -f(1)/2 and d/dt f(1) = f(0)/2: at t = pi the amplitude has turned to -1 at site 0
        m[0, 1] = -0.5
        (ft,) = dynamics.one_particle_flow(m, f, [np.pi])
        assert np.abs(ft - amplitudes(2, 4, {(0, 0): -1.0})).max() < 1e-15

    def test_each_basis_monomial_built_once(self, monkeypatch):
        # generator, span_residual and smear all read the one table of B_xj:
        # on a (params, chain) it has not seen, the three together build each
        # of the d * L monomials once
        built = []
        build = dynamics.dressed_weyl_rs

        def counting(x, r, s, params, chain):
            built.append((x, r, s))
            return build(x, r, s, params, chain)

        dynamics.span_basis.cache_clear()
        monkeypatch.setattr(dynamics, "dressed_weyl_rs", counting)
        model = d2_model(10)
        f = amplitudes(2, 10, {(4, 0): 1.0, (5, 1): 0.5})
        assert generator(model) is not None
        span_residual(model, f)
        smear(f, D2, model.chain)
        assert sorted(built) == [(x, j, 1) for x in range(10) for j in range(2)]

    def test_basis_table_is_read_only(self):
        basis, index = dynamics.span_basis(D3, ChainSpec(3, 4))
        assert len(basis) == len(index) == 12
        assert all(index[b.key()] == k for k, b in enumerate(basis))
        assert basis[2 * 4 + 1] == dressed_weyl_rs(1, 2, 1, D3, ChainSpec(3, 4))
        with pytest.raises(TypeError):
            index[()] = 0
        with pytest.raises(TypeError):
            basis[0] = basis[1]

    def test_none_at_d3(self):
        # at d >= 3 a hopping between distinct sites leaves the span
        assert generator(QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))) is None
        assert not generator(QuadraticModel(ChainSpec(3, 4), D3, Hopping({}))).any()


REFERENCE_SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "make_reference.py"


class TestAmplitudeArrays:
    # an amplitude is a (d, N) array f[j, x] with N >= L, zero past the chain
    D3_CHAIN = ChainSpec(3, 5)

    def test_reference_script_call(self):
        # perfbench/make_reference.py builds evolve_d3's field by this exact
        # call, through the names it imports: a (3, 6) array on the 5-site
        # chain, whose field is that of the (3, 5) array
        spec = importlib.util.spec_from_file_location("perfbench_make_reference", REFERENCE_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        f = script.OneParticleVector.from_amplitudes(3, 6, {(1, 0): 1.0, (2, 0): 0.5})
        got = script.smear(f, GradingParams(3, 1, 1), ChainSpec(3, 5))
        assert got.terms == smear(amplitudes(3, 5, {(1, 0): 1.0, (2, 0): 0.5}), D3, self.D3_CHAIN).terms
        assert got.terms

    def test_amplitude_past_the_chain_rejected(self):
        f = amplitudes(3, 6, {(1, 0): 1.0, (5, 2): 0.5})
        with pytest.raises(ValueError, match="amplitude at site 5 outside chain 0..4"):
            smear(f, D3, self.D3_CHAIN)
        with pytest.raises(ValueError, match="amplitude at site 5 outside chain 0..4"):
            span_residual(QuadraticModel(self.D3_CHAIN, D3, Hopping({1: 0.5, -1: 0.5})), f)

    @pytest.mark.parametrize("shape, match", [
        ((2, 5), "do not fill 15 modes"),
        ((15,), "do not fill 15 modes"),
        ((3, 4), "amplitudes on 4 sites, chain has 5"),
    ], ids=["wrong_d", "flat", "short"])
    def test_smear_rejects_shape(self, shape, match):
        with pytest.raises(ValueError, match=match):
            smear(np.ones(shape), D3, self.D3_CHAIN)

    @pytest.mark.parametrize("shape, match", [
        ((2, 5), "do not fill 15 modes"),
        ((3, 4), "amplitudes on 4 sites, chain has 5"),
    ], ids=["wrong_d", "short"])
    def test_flow_rejects_shape(self, shape, match):
        # M of order 15 is a 3-flavour, 5-site generator: 2 rows do not divide it
        with pytest.raises(ValueError, match=match):
            dynamics.one_particle_flow(np.zeros((15, 15)), np.ones(shape), [1.0])


class TestReconstruction:
    def test_t0_identity(self):
        assert reconstruct_spin_evolution(d2_model(6)) < 1e-12

    def test_d2_t1(self):
        assert reconstruct_spin_evolution(d2_model(8)) < 1e-10

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
        assert reconstruct_spin_evolution(model) < 1e-10

    def test_one_product_and_no_back_rotation_per_run(self, monkeypatch):
        # the deviation is the same at every t and in every orthonormal basis,
        # so it is taken once in the site basis: one dressed product, no
        # rotation either way, and the model is not diagonalised
        model = QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))
        counts = {"product": 0, "eigenbasis_blocks": 0, "site_blocks": 0}
        product, rotate, back = DenseOperator.__matmul__, QuadraticModel.eigenbasis_blocks, QuadraticModel.site_blocks

        def counting_product(x, y):
            counts["product"] += 1
            return product(x, y)

        def counting_rotate(self, a):
            counts["eigenbasis_blocks"] += 1
            return rotate(self, a)

        def counting_back(self, a):
            counts["site_blocks"] += 1
            return back(self, a)

        monkeypatch.setattr(DenseOperator, "__matmul__", counting_product)
        monkeypatch.setattr(QuadraticModel, "eigenbasis_blocks", counting_rotate)
        monkeypatch.setattr(QuadraticModel, "site_blocks", counting_back)
        assert isinstance(reconstruct_spin_evolution(model), float)
        assert counts == {"product": 1, "eigenbasis_blocks": 0, "site_blocks": 0}
        assert model._eig is None

    @pytest.mark.parametrize(
        "model",
        [d2_model(6), QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))],
        ids=["d2", "d3"],
    )
    def test_broken_identity_reads_its_hilbert_schmidt_norm(self, monkeypatch, model):
        # with the second factor's clock exponent dropped the identity fails;
        # the reported deviation is the Frobenius norm of the site-basis
        # difference, rebuilt with the full expm(iHt), of order sqrt(d^L)
        ch, pr = model.chain, model.params
        site, t_grid = ch.L // 2, [0.0, 0.7]
        right = dynamics.dressed_weyl_rs
        monkeypatch.setattr(dynamics, "dressed_weyl_rs", lambda x, r, s, params, chain: right(x, 0, s, params, chain))
        dev = reconstruct_spin_evolution(model)
        h = model.dense_hamiltonian.entries
        clock, fa, fb = (
            realize(m, ch).entries
            for m in (WeylMonomial.single(ch.d, site, 1, 0), dressed_weyl(site, 1, pr, ch),
                      right(site, 0, -1, pr, ch))
        )
        for t in t_grid:
            u = scipy.linalg.expm(1j * t * h)
            lhs, fa_t, fb_t = (u @ m @ u.conj().T for m in (clock, fa, fb))
            want = np.linalg.norm(lhs - np.exp(2j * np.pi / ch.d) * (fa_t @ fb_t))
            assert want > np.sqrt(ch.dim)
            assert abs(dev - want) <= 1e-9

    @pytest.mark.parametrize(
        "model",
        [d2_model(6), QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))],
        ids=["d2", "d3"],
    )
    def test_one_deviation_matches_every_expm_evolution(self, model):
        # tau_t is conjugation by one unitary, so the Hilbert-Schmidt norm of
        # the difference does not depend on t: the one returned value is
        # the site-basis Frobenius norm of each independently evolved
        # difference, built with the full expm(iHt)
        ch, pr = model.chain, model.params
        site, t_grid = ch.L // 2, [0.0, 0.7, 2.5]
        dev = reconstruct_spin_evolution(model)
        h = model.dense_hamiltonian.entries
        clock, fa, fb = (
            realize(m, ch).entries
            for m in (WeylMonomial.single(ch.d, site, 1, 0), dressed_weyl(site, 1, pr, ch),
                      dressed_weyl_rs(site, 1, -1, pr, ch))
        )
        for t in t_grid:
            u = scipy.linalg.expm(1j * t * h)
            lhs, fa_t, fb_t = (u @ m @ u.conj().T for m in (clock, fa, fb))
            want = np.linalg.norm(lhs - np.exp(2j * np.pi / ch.d) * (fa_t @ fb_t))
            assert abs(dev - want) <= 1e-12

    def test_working_set(self):
        # the two realized factors and their product, then the product, the
        # clock realized once the factors are freed and their difference,
        # and no eigenvectors: about 6 blocks of m x m complex entries
        model = d2_model(8)
        block = 16 * (model.chain.dim // 2) ** 2
        dev, peak = traced_peak(lambda: reconstruct_spin_evolution(model))
        assert isinstance(dev, float)
        assert peak <= 7 * block
