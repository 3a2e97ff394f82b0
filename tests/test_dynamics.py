"""Heisenberg dynamics: Hamiltonian structure, flows, audits, residuals."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import grading_lab.dynamics as dynamics
from grading_lab.config import load_config
from grading_lab.dense import ChainSpec, DenseOperator, DimensionCapError, gauge_project, monomial_action, op_norm, realize
from grading_lab.dressing import dressed_matrix_unit, dressed_weyl, dressed_weyl_rs
from grading_lab.dynamics import (
    QuadraticModel,
    claimed_commutator_audit,
    commutator_decay,
    eigenbasis_fields,
    gauge_invariance_defect,
    generator,
    heisenberg_evolve,
    phase_blocks,
    phase_deviation,
    reconstruct_spin_evolution,
    smear,
    span_residual,
)
from grading_lab.oneparticle import Hopping
from grading_lab.weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    commutation_phase,
    mono_adjoint,
    mono_mul,
    phase_value,
)

from test_dense import block_bits, signed_zero_blocks
from test_weyl import isclose

D2 = GradingParams(2, 1, 1)
D3 = GradingParams(3, 1, 1)
IM_NN = Hopping({1: -1j / 16, -1: 1j / 16})
PRESETS = Path(__file__).resolve().parent.parent / "src" / "grading_lab" / "presets"


def d2_model(L=8):
    return QuadraticModel(ChainSpec(2, L), D2, IM_NN)


def amplitudes(d, N, values):
    """The (d, N) amplitude array f with f[j, x] = values[x, j]."""
    f = np.zeros((d, N), dtype=complex)
    for (x, j), a in values.items():
        f[j, x] = a
    return f


def program_evolution(model, a, times):
    """tau_t(a) of an element at each t on the library path, ``heisenberg_evolve``: written into the eigenbasis, phased and mapped back."""
    return [heisenberg_evolve(a, model, t) for t in times]


def assembled_eigenvectors(eig, c):
    """Sector c's m x m eigenvector matrix V_c, its column blocks of ``Eigensystem.columns`` side by side in character order."""
    return np.hstack([eig.columns(c, k) for k in range(len(eig.chars))])


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
        assert isclose(model.hamiltonian, model.hamiltonian.adjoint(), 1e-13)

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
        a = dressed_weyl(2, 1, D2, model.chain).as_element()
        (got,) = program_evolution(model, a, [0.0])
        assert np.abs(got.entries - realize(a, model.chain).entries).max() < 1e-12

    def test_norm_preserved(self):
        model = d2_model(6)
        a = dressed_matrix_unit(2, 0, 1, D2, model.chain)
        (at,) = program_evolution(model, a, [3.7])
        assert abs(op_norm(at) - op_norm(realize(a, model.chain))) < 1e-10

    def test_group_law(self):
        # tau_2.1 after tau_1.3, both as eigenbasis phases, is tau_3.4, and
        # that is the expm evolution to 3.4
        model = d2_model(6)
        a = dressed_weyl(2, 1, D2, model.chain).as_element()
        rotated = model.eigenbasis_blocks(a)
        steps = phase_blocks(phase_blocks(rotated, model.propagator(1.3)), model.propagator(2.1))
        assert (steps - phase_blocks(rotated, model.propagator(3.4))).max_abs() < 1e-12
        (one,) = program_evolution(model, a, [3.4])
        two = expm_evolution(model, realize(a, model.chain), 3.4)
        assert np.abs(one.entries - two).max() < 1e-10

    def test_commutes_with_gauge_projection(self):
        model = d2_model(6)
        rng = np.random.default_rng(31)
        m = AlgebraElement.from_monomials(
            [
                (complex(rng.standard_normal(), rng.standard_normal()),
                 WeylMonomial.from_labels(2, {1: (0, 1), 3: (1, 1)})),
                (complex(rng.standard_normal(), rng.standard_normal()),
                 WeylMonomial.from_labels(2, {2: (1, 0)})),
            ]
        )
        (mt,) = program_evolution(model, m, [1.9])
        lhs = gauge_project(mt).entries
        rhs = expm_evolution(model, gauge_project(realize(m, model.chain)), 1.9)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_free_flow_dictionary(self):
        # dense flow of the charge-0-flavor field equals the smeared field of
        # the open chain's one-particle flow exp(tM) f0 (see TestGenerator)
        model = d2_model(8)
        f0 = amplitudes(2, 8, {(3, 0): 1.0, (4, 0): 0.5 - 0.25j})
        field = smear(f0, D2, model.chain)
        a0 = realize(field, model.chain)
        times = (0.5, 1.5)
        flows = dynamics.one_particle_flow(generator(model), f0, D2, times)
        for ft, evolved in zip(flows, program_evolution(model, field, times)):
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
        a = smear(f1, D2, model.chain)
        (got,) = program_evolution(model, a, [2.0])
        assert np.abs(got.entries - realize(a, model.chain).entries).max() < 1e-12


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
    """Every sector's factored eigenvectors, assembled, are unitary and diagonalise its realized block (absent: zero) to 1e-12, with the eigvalsh spectrum."""
    eig = model.eigensystem
    zero = np.zeros((eig.values.shape[1],) * 2, dtype=complex)
    for c in range(model.chain.d):
        h, v, w = blocks.get((c, c), zero), assembled_eigenvectors(eig, c), eig.values[c]
        assert np.abs(h @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-12
        assert np.abs(v.conj().T @ h @ v - np.diag(w)).max() <= 1e-12
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(h)).max() <= 1e-12


def perturbed_action(monkeypatch, key, change):
    """Make ``dynamics.monomial_action`` return change(rows, phases) for the monomial with this key; other monomials are untouched."""
    action = dynamics.monomial_action

    def patched(mono, chain):
        rows, phases = action(mono, chain)
        return change(rows, phases) if mono.key() == key else (rows, phases)

    monkeypatch.setattr(dynamics, "monomial_action", patched)


def assert_broken_symmetry_rejected(monkeypatch, model, sector, change):
    """change(phases) on the entries of H's first monomial in one sector, where the first block symmetry moves state 0, raises before any eigh."""
    (first, *_) = model.block_symmetries()
    assert monomial_action(first, model.chain)[0][sector, 0] != 0
    key = next(iter(model.hamiltonian.terms))

    def broken(rows, phases):
        phases = phases.copy()
        phases[sector] = change(phases[sector])
        return rows, phases

    perturbed_action(monkeypatch, key, broken)
    calls = counted_eigh(monkeypatch)
    with pytest.raises(ValueError, match="block symmetry"):
        model.eigensystem
    assert calls == []


def entry_shifted(phases):
    """1e-9 added to the entry at position 0 of one sector's phases."""
    phases[0] += 1e-9
    return phases


def entry_turned(phases):
    """The entry at position 0 of one sector's phases turned by exp(1e-9 i), its modulus kept."""
    phases[0] *= np.exp(1e-9j)
    return phases


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
        # a hermitian 1e-9 times the shift at site 3, which moves |0000>
        # (charge 0) to |0001> (charge 1), added to H: the charge check reads
        # the monomials' shift charges exactly, before any eigh
        model = QuadraticModel(ChainSpec(2, 4), D2, IM_NN)
        leak = AlgebraElement.from_monomials([(1e-9, WeylMonomial.single(2, 3, 0, 1))], 2)
        model._hamiltonian = model.hamiltonian + leak
        calls = counted_eigh(monkeypatch)
        with pytest.raises(ValueError, match="mixes charge sectors"):
            model.eigensystem
        assert calls == []

    @pytest.mark.parametrize("make", [
        # at d = 2 each monomial of H is its own adjoint, so its coefficient
        # is pinned: one off by a relative 1e-9 i puts the defect on the
        # diagonal of every adapted block
        lambda: QuadraticModel(ChainSpec(2, 4), D2, IM_NN),
        # at d = 3 a monomial and its adjoint are distinct terms: the first
        # monomial's partner is dropped from H
        lambda: QuadraticModel(ChainSpec(3, 3), D3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ], ids=["diagonal", "absent_partner"])
    def test_non_hermitian_block_rejected(self, monkeypatch, make):
        # either break leaves the charge and symmetry checks quiet (every
        # monomial kept has charge 0 and commutes with G, which reads H's
        # keys only and is unchanged), and fails the hermiticity check of
        # the adapted blocks, before any eigh
        model = make()
        symmetries = model.block_symmetries()
        (_, first), *_ = model.hamiltonian.monomials()
        terms, partner = dict(model.hamiltonian.terms), mono_adjoint(first).key()
        assert (partner == first.key()) == (model.chain.d == 2)
        if partner == first.key():
            terms[partner] *= 1 + 1e-9j
        else:
            del terms[partner]
        model._hamiltonian = AlgebraElement(model.chain.d, terms)
        assert model.block_symmetries() == symmetries and len(symmetries) > 0
        calls = counted_eigh(monkeypatch)
        with pytest.raises(ValueError, match="not hermitian"):
            model.eigensystem
        assert calls == []

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    def test_eigensystem_solves_every_sector(self, d, L, hopping):
        # every sector is diagonalised on its own and solved to 1e-12 against
        # its realized block; a charge-1 B_xj commutes with these H, so the
        # sectors share one spectrum, which the independent solves reproduce
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        blocks = model.dense_hamiltonian.blocks
        eig = model.eigensystem
        group = len(eig.chars)
        size = d ** (L - 1) // group
        assert eig.values.shape == (d, d ** (L - 1)) and eig.vectors.shape == (d, group, size, size)
        assert np.abs(np.sort(eig.values, axis=1) - np.sort(eig.values[0])).max() <= 1e-12
        assert_exact_eigensystem(model, blocks)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @GENERATOR_MODELS
    def test_one_eigh_per_eigensystem(self, monkeypatch, d, L, hopping):
        # the block symmetries split each of the d sectors into G = d^r joint
        # eigenspaces, and each takes one eigh, of size m / G, for every
        # (j+, j-)
        L = min(L, {2: 10, 3: 5, 4: 4}[d])
        m = d ** (L - 1)
        calls = counted_eigh(monkeypatch)
        for j_plus in range(d):
            for j_minus in range(d):
                model = QuadraticModel(ChainSpec(d, L), GradingParams(d, j_plus, j_minus), Hopping(hopping))
                group = d ** len(model.block_symmetries())
                calls.clear()
                model.eigensystem
                assert calls == [(m // group,) * 2] * (d * group)
                assert_exact_eigensystem(model, model.dense_hamiltonian.blocks)

    @pytest.mark.parametrize("name, group", [
        ("block_d2.cfg", 8),
        ("decay_d2.cfg", 32),
        ("decay_d3.cfg", 3),
        ("evolve_d2.cfg", 32),
        ("evolve_d3.cfg", 3),
        ("verify_d2.cfg", 16),
    ])
    def test_preset_symmetry_groups(self, monkeypatch, name, group):
        # the group each shipped preset's model gets (block_d2's H is empty,
        # so every B_xj commutes with it and G = m), and one eigh per joint
        # eigenspace of each sector; verify_d3's chain is above the cap
        cfg = load_config(str(PRESETS / name))
        model = QuadraticModel(ChainSpec(cfg.d, cfg.l), GradingParams(cfg.d, cfg.j_plus, cfg.j_minus), Hopping(cfg.hopping))
        assert cfg.d ** len(model.block_symmetries()) == group
        calls = counted_eigh(monkeypatch)
        model.eigensystem
        assert calls == [(cfg.d ** (cfg.l - 1) // group,) * 2] * (cfg.d * group)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @GENERATOR_MODELS
    def test_block_symmetries_form_a_free_group(self, d, L, hopping):
        # each S_i is charge 0, commutes with every monomial of H and with the
        # other S_j, and S_i^d = 1 after the rescale; the d^r products move
        # every basis state of sector 0, so each orbit holds exactly G states
        L = min(L, {2: 10, 3: 5, 4: 4}[d])
        chain = ChainSpec(d, L)
        for j_plus in range(d):
            for j_minus in range(d):
                model = QuadraticModel(chain, GradingParams(d, j_plus, j_minus), Hopping(hopping))
                terms = [WeylMonomial(d, key, 0) for key in model.hamiltonian.terms]
                symmetries = model.block_symmetries()
                for s in symmetries:
                    assert s.charge() == 0
                    assert not any(commutation_phase(s, t) for t in terms + list(symmetries))
                    assert s.pow(d) == WeylMonomial.identity(d)
                group = [WeylMonomial.identity(d)]
                for s in symmetries:
                    group = [mono_mul(g, s.pow(n)) for g in group for n in range(d)]
                images = np.array([monomial_action(g, chain)[0][0] for g in group])
                assert all(len(set(column)) == len(group) for column in images.T.tolist())

    def test_block_symmetries_need_a_dense_chain(self):
        # the group's shift vectors are listed, and the group is at most a
        # charge sector: above the dense cap it is not formed
        model = QuadraticModel(ChainSpec(2, 40), D2, IM_NN)
        with pytest.raises(DimensionCapError):
            model.block_symmetries()

    def test_broken_block_symmetry_rejected(self, monkeypatch):
        # 1e-9 on the entry of H's first monomial at state 0 of sector 0:
        # every monomial still has charge 0, but S_1 moves state 0, so that
        # monomial's action composed with S_1's differs both ways: no eigh runs
        assert_broken_symmetry_rejected(monkeypatch, d2_model(6), 0, entry_shifted)

    def test_broken_symmetry_in_sector_1_rejected(self, monkeypatch):
        # the same break in sector 1 only, sector 0 untouched: every sector
        # is checked before the first eigh, so no eigh runs
        assert_broken_symmetry_rejected(monkeypatch, d2_model(6), 1, entry_shifted)

    @pytest.mark.parametrize("make", [
        lambda: d2_model(6),
        lambda: QuadraticModel(ChainSpec(3, 5), D3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ], ids=["d2", "d3"])
    def test_phase_error_in_an_action_rejected(self, monkeypatch, make):
        # a 1e-9 phase error, exp(1e-9 i), on one entry of H's first
        # monomial's action: every label is unchanged, so commutation_phase,
        # which chose G, reads 0 with each generator, and only composing the
        # two dense actions sees the error
        model = make()
        (_, first), *_ = model.hamiltonian.monomials()
        assert not any(commutation_phase(s, first) for s in model.block_symmetries())
        assert_broken_symmetry_rejected(monkeypatch, model, 0, entry_turned)

    def test_eigensystem_realizes_nothing(self, monkeypatch):
        # H is written into the adapted blocks from its monomials: no call
        # of realize, and no dense H
        model = d2_model(8)
        calls = []
        build = dynamics.realize

        def counting(a, chain):
            calls.append(a)
            return build(a, chain)

        monkeypatch.setattr(dynamics, "realize", counting)
        model.eigensystem
        assert calls == []
        assert_exact_eigensystem(model, model.dense_hamiltonian.blocks)
        assert len(calls) == 1

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 8, IM_NN),
        (3, 5, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    def test_trivial_group_is_one_eigh(self, d, L, hopping):
        # a clock field on every site leaves no symmetry (G = 1): the split is
        # one block per sector, and its eigenpairs are those of one eigh of
        # the realized sector block, byte for byte
        model = clock_field_model(d, L, hopping)
        assert model.block_symmetries() == ()
        blocks = model.dense_hamiltonian.blocks
        got = model.eigensystem
        for c in range(d):
            w, v = np.linalg.eigh(blocks[c, c])
            assert got.values[c].tobytes() == w.tobytes() and got.vectors[c, 0].tobytes() == v.tobytes()
            assert got.columns(c, 0).tobytes() == v.tobytes()

    def test_eigensystem_working_set(self):
        # the orbit tables and the adapted blocks of H, d m^2 / G entries,
        # each block overwritten by its eigenvectors: 0.47-0.57 blocks of
        # m x m complex entries measured at d = 2, L = 8 (G = 16) and
        # 1.23-1.28 at d = 3, L = 6 (G = 3), plus 15 %
        for model, bound in ((d2_model(8), 0.66), (QuadraticModel(ChainSpec(3, 6), D3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})), 1.47)):
            d = model.chain.d
            block = 16 * (model.chain.dim // d) ** 2
            _, peak = traced_peak(lambda: model.eigensystem)
            assert peak <= bound * block

    def test_eigenbasis_blocks_checks_the_element(self):
        # an element is checked as realize checks it, before any gather: a
        # site past the chain (or below it, which numpy would wrap) is rejected
        model = d2_model(6)
        for site in (6, -1):
            with pytest.raises(ValueError, match="outside chain"):
                model.eigenbasis_blocks(WeylMonomial(2, ((site, (0, 1)),), 0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.eigenbasis_blocks(WeylMonomial.single(3, 1, 0, 1))

    def test_diagonalised_model_holds_no_m_by_m_array(self):
        # on the evolve_d2 chain (G = 32, m = 512) the eigenbasis stays
        # factored: the orbits with their (d, m) position index, the power
        # vectors, the character table, the (d, m) values and one 16 x 16
        # eigenvector block per joint eigenspace, d * m^2 / G entries in all,
        # and no copy of H
        model = d2_model(10)
        eig = model.eigensystem
        m = model.chain.dim // 2
        held = {name: v for name, v in [*vars(model).items(), *vars(eig).items()] if isinstance(v, (np.ndarray, DenseOperator))}
        assert set(held) == {"powers", "chars", "states", "phase", "where", "values", "vectors"}
        assert all(isinstance(v, np.ndarray) for v in held.values())
        assert eig.vectors.shape == (2, 32, 16, 16)
        assert all(v.size <= 2 * m * m // 32 for v in held.values())

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 4, IM_NN),
        (3, 3, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    def test_propagator_matches_expm(self, d, L, hopping):
        # propagator(t) holds the eigenbasis phases; rebuilt in the site basis
        # per sector it is the matching diagonal block of expm(iHt)
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        vecs = [assembled_eigenvectors(model.eigensystem, c) for c in range(d)]
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
        a = _charged_input(d, charges, seed=5 * d + len(charges))
        rotated = model.eigenbasis_blocks(a)
        group = len(model.eigensystem.chars)
        assert len({(r // group, c // group) for r, c in rotated.blocks}) == (d if len(charges) == 1 else d * d)
        for site in program_evolution(model, a, (0.0, 1.3)):
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

    def test_phase_deviation_is_phase_blocks_then_difference(self):
        # the stacked pass equals phase_blocks, -, max_abs exactly, with keys
        # held by one operand only on both sides
        rng = np.random.default_rng(41)
        chain = ChainSpec(3, 3)
        keys = [(r, c) for r in range(3) for c in range(3)]
        a = DenseOperator(chain, signed_zero_blocks(rng, keys[:7], m=9))
        b = DenseOperator(chain, signed_zero_blocks(rng, keys[2:], m=9))
        u = np.exp(1j * rng.standard_normal((3, 9)))
        before = block_bits(a.blocks), block_bits(b.blocks)
        for x, y in [(a, b), (b, a), (a, a), (a, phase_blocks(a, u))]:
            assert phase_deviation(x, u, y) == (phase_blocks(x, u) - y).max_abs()
        assert (block_bits(a.blocks), block_bits(b.blocks)) == before
        assert phase_deviation(a, u, phase_blocks(a, u)) == 0.0
        empty = DenseOperator(chain, {})
        assert phase_deviation(empty, u, empty) == 0.0
        assert phase_deviation(empty, u, b) == b.max_abs()


def clock_field_model(d, L, hopping=Hopping({1: 0.3 - 0.2j, -1: 0.3 + 0.2j})):
    """A hopping plus the clock field W_x(1, 0) + h.c. on every site, which fails to commute with every B_xj (W_x(j, 1) at site x)."""
    model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
    field = AlgebraElement.from_monomials([(0.1 * (x + 1), WeylMonomial.single(d, x, 1, 0)) for x in range(L)], d)
    model._hamiltonian = model.hamiltonian + field + field.adjoint()
    return model


def two_flavour_model(L, seed=5):
    """d = 2 nearest-neighbour hopping of both flavours, sum_z sum_{r,r'} h[r, r'] B_zr B_(z+1)r'^dag + h.c., with a seeded complex 2 x 2 h."""
    model = QuadraticModel(ChainSpec(2, L), D2, Hopping({}))
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    half = AlgebraElement.from_monomials([
        (h[r, s], mono_mul(dressed_weyl_rs(z, r, 1, D2, model.chain), mono_adjoint(dressed_weyl_rs(z + 1, s, 1, D2, model.chain))))
        for z in range(L - 1) for r in range(2) for s in range(2)
    ], 2)
    model._hamiltonian = half + half.adjoint()
    return model


NO_RAISER_MODELS = pytest.mark.parametrize("make", [
    lambda: clock_field_model(2, 6),
    lambda: clock_field_model(3, 4),
    lambda: two_flavour_model(6),
], ids=["clock_d2", "clock_d3", "two_flavour_d2"])


class TestNoCommutingRaiser:
    """Hamiltonians that commute with no B_xj: G = 1, one eigh per sector, checked end to end against expm."""

    @NO_RAISER_MODELS
    def test_one_eigh_per_sector(self, monkeypatch, make):
        model = make()
        d, m = model.chain.d, model.chain.dim // model.chain.d
        basis, _ = dynamics.span_basis(model.params, model.chain)
        terms = [WeylMonomial(d, key, 0) for key in model.hamiltonian.terms]
        assert all(any(commutation_phase(b, t) for t in terms) for b in basis)
        assert model.block_symmetries() == ()
        calls = counted_eigh(monkeypatch)
        model.eigensystem
        assert calls == [(m, m)] * d
        assert_exact_eigensystem(model, model.dense_hamiltonian.blocks)

    @NO_RAISER_MODELS
    def test_heisenberg_evolve_matches_expm(self, make):
        model = make()
        d = model.chain.d
        a = _charged_input(d, tuple(range(d)), seed=17 * d)
        for t in (0.0, 1.3, 4.1):
            want = expm_evolution(model, realize(a, model.chain), t)
            assert np.abs(heisenberg_evolve(a, model, t).entries - want).max() <= 1e-12

    @NO_RAISER_MODELS
    def test_commutator_decay_matches_expm(self, make):
        model = make()
        d = model.chain.d
        a, b = _charged_input(d, (1,), seed=19 * d), _charged_input(d, (0, 1), seed=23 * d)
        ad, bd = realize(a, model.chain), realize(b, model.chain).entries
        times = [0.0, 1.3, 4.1]
        res = commutator_decay(a, b, model, times)
        for t, norm in zip(times, res.norms):
            at = expm_evolution(model, ad, t)
            assert abs(norm - np.linalg.norm(at @ bd - bd @ at, 2)) <= 1e-12


EMPTY_MODELS = pytest.mark.parametrize("make", [
    # at d = 2 with j+ = j- = 1 a real hopping cancels to H = 0 exactly
    lambda: QuadraticModel(ChainSpec(2, 6), D2, Hopping({1: 0.0625, -1: 0.0625})),
    lambda: QuadraticModel(ChainSpec(3, 4), D3, Hopping({})),
], ids=["d2_real_hopping", "d3_no_hopping"])


class TestEmptyHamiltonian:
    """An H with no monomials commutes with every B_xj: the general search gives G = m, one 1 x 1 eigh per joint eigenspace, checked end to end against expm."""

    @EMPTY_MODELS
    def test_one_state_per_eigenspace(self, monkeypatch, make):
        model = make()
        d, m = model.chain.d, model.chain.dim // model.chain.d
        assert not model.hamiltonian.terms
        assert d ** len(model.block_symmetries()) == m
        calls = counted_eigh(monkeypatch)
        model.eigensystem
        assert calls == [(1, 1)] * (d * m)
        assert_exact_eigensystem(model, model.dense_hamiltonian.blocks)

    @EMPTY_MODELS
    def test_heisenberg_evolve_is_realization(self, make):
        model = make()
        d = model.chain.d
        a = _charged_input(d, tuple(range(d)), seed=29 * d)
        want = realize(a, model.chain).entries
        assert np.abs(expm_evolution(model, realize(a, model.chain), 1.3) - want).max() <= 1e-12
        assert np.abs(heisenberg_evolve(a, model, 1.3).entries - want).max() <= 1e-12

    @EMPTY_MODELS
    def test_commutator_decay_is_flat(self, make):
        model = make()
        d = model.chain.d
        # the clock at site 1 fails to commute with a's shift there
        a, b = _charged_input(d, (1,), seed=31 * d), WeylMonomial.single(d, 1, 1, 0).as_element()
        ad, bd = realize(a, model.chain), realize(b, model.chain).entries
        times = [0.0, 1.3, 4.1]
        res = commutator_decay(a, b, model, times)
        assert np.ptp(res.norms) <= 1e-12 and res.norms[0] > 0.1
        for t, norm in zip(times, res.norms):
            at = expm_evolution(model, ad, t)
            assert abs(norm - np.linalg.norm(at @ bd - bd @ at, 2)) <= 1e-12


class TestBlockProduct:
    def test_matches_every_pair_bit_for_bit(self):
        # two eigenbasis operators of a G = 32 model, hundreds of blocks each:
        # the product is that of a scan over every block pair, each (r, c) summed
        # in the order of X's blocks, then of Y's
        model = d2_model(10)
        assert len(model.eigensystem.chars) == 32
        x, y = (model.eigenbasis_blocks(_charged_input(2, (0, 1), seed=s)) for s in (41, 43))
        assert min(len(x.blocks), len(y.blocks)) > 100
        want = {}
        for (r, k), xb in x.blocks.items():
            for (k2, c), yb in y.blocks.items():
                if k == k2:
                    want[r, c] = want[r, c] + xb @ yb if (r, c) in want else xb @ yb
        assert block_bits((x @ y).blocks) == block_bits(want)


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
        # op_norm takes the largest norm over the connected components of
        # the commutator's blocks: on these chains (G = 4 at d = 2, L = 4 and
        # G = 3 at d = 3, L = 3) a definite-charge commutator splits into
        # d * G / 2 resp. d components, a mixed one into fewer and larger
        sizes = {(2, False): [4] * 4, (2, True): [8] * 2, (3, False): [9] * 3, (3, True): [27]}[d, len(a_charges) > 1]
        assert shapes == [(n, n) for n in sizes] * len(times)

    @pytest.mark.parametrize("d, L, hopping", [
        (2, 8, IM_NN),
        (3, 5, Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})),
    ])
    def test_pair_with_several_characters(self, monkeypatch, d, L, hopping):
        # the decay presets' gauge-invariant pair on a smaller chain, each
        # with a clock term added: a's monomials carry several characters of
        # G, so the commutator's blocks link several joint eigenspaces and
        # fall into several components, and the largest component norm is
        # the norm of the full matrix evolved by expm; b's clock at site 0
        # gives the d = 3 components different norms
        model = QuadraticModel(ChainSpec(d, L), GradingParams(d, 1, 1), hopping)
        pr, ch = model.params, model.chain
        a = dressed_matrix_unit(1, 0, 1, pr, ch) * dressed_matrix_unit(2, 1, 0, pr, ch)
        a = a + WeylMonomial.single(d, L - 1, 1, 0).as_element().scale(0.5)
        b = dressed_matrix_unit(3, 0, 1, pr, ch) * dressed_matrix_unit(4, 1, 0, pr, ch)
        b = b + WeylMonomial.single(d, 0, 1, 0).as_element().scale(0.7)
        symmetries = model.block_symmetries()
        characters = {tuple(commutation_phase(s, mono) for s in symmetries) for _, mono in a.monomials()}
        assert len(symmetries) > 0 and len(characters) > 1
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(m):
            shapes.append(np.shape(m))
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        times = [0.0, 0.9, 2.6]
        res = commutator_decay(a, b, model, times)
        monkeypatch.undo()
        assert len(shapes) > len(times) and max(shapes)[0] < ch.dim
        ad, bd, h = realize(a, ch).entries, realize(b, ch).entries, model.dense_hamiltonian.entries
        worst = 0.0
        for t, norm in zip(times, res.norms):
            u = scipy.linalg.expm(1j * t * h)
            at = u @ ad @ u.conj().T
            want = np.linalg.norm(at @ bd - bd @ at, 2)
            worst = max(worst, want)
            assert abs(norm - want) <= 1e-12
        assert worst > 1e-3


class TestClaimedCommutatorAudit:
    def test_rows_and_statuses(self):
        rows = claimed_commutator_audit(D3, ChainSpec(3, 5), x=3, z=1)
        ids = [r.claim_id for r in rows]
        assert "midpoint_reduction" in ids
        assert "endpoint_reduction_left" in ids
        assert "endpoint_reduction_right" in ids
        for r in rows:
            assert r.status in ("MATCH", "MISMATCH")
            assert r.payload

    def test_derivative_closure_row(self):
        rows = claimed_commutator_audit(D3, ChainSpec(3, 5), x=1, z=2)
        ids = [r.claim_id for r in rows]
        assert "derivative_closure" in ids

    def test_outside_interval_vanishes(self):
        rows = claimed_commutator_audit(D3, ChainSpec(3, 5), x=2, z=3)
        van = [r for r in rows if r.claim_id == "midpoint_vanishing"]
        assert van and van[0].status == "MATCH"


def _dense_span_residual(model, f):
    """``span_residual`` by projection of the realized i[H, W(f)] onto the realized basis."""
    ch, pr = model.chain, model.params
    target = realize(model.hamiltonian.commutator(smear(f, pr, ch)).scale(1j), ch).entries
    rest, coeffs = target, np.zeros(pr.d * ch.L, dtype=complex)
    for x in range(ch.L):
        for j in range(pr.d):
            basis = realize(dressed_weyl_rs(x, j, 1, pr, ch), ch).entries
            coeffs[j * ch.L + x] = np.vdot(basis, target) / ch.dim
            rest = rest - coeffs[j * ch.L + x] * basis
    return float(np.linalg.norm(rest) / np.linalg.norm(target)), coeffs


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
            h = model.dense_hamiltonian.entries
            assert np.abs(h - h.conj().T).max() == 0.0

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
            dynamics.one_particle_flow(m, amplitudes(2, 10, {(8, 1): 5.0}), D2, [1.0])
        with pytest.raises(ValueError, match="amplitudes on 4 sites, chain has 6"):
            dynamics.one_particle_flow(m, amplitudes(2, 4, {(1, 0): 1.0}), D2, [1.0])

    def test_flow_rejects_a_generator_that_is_not_antihermitian(self):
        f = amplitudes(2, 4, {(1, 0): 1.0})
        m = np.zeros((8, 8))
        m[1, 0] = 0.5
        with pytest.raises(ValueError, match="not antihermitian"):
            dynamics.one_particle_flow(m, f, D2, [1.0])
        # d/dt f(0) = -f(1)/2 and d/dt f(1) = f(0)/2: at t = pi the amplitude has turned to -1 at site 0
        m[0, 1] = -0.5
        (ft,) = dynamics.one_particle_flow(m, f, D2, [np.pi])
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


class TestEigenbasisFields:
    def test_matches_each_rotated_smear(self, monkeypatch):
        # W(f) is linear in f: the B_k rotated once and combined per f equal
        # each smeared field written into the eigenbasis on its own, to
        # round-off; both flavours carry amplitude, so the B_k fall under
        # several (q, psi) keys, and the flow spreads the first flavour
        model = d2_model(8)
        basis, _ = dynamics.span_basis(D2, model.chain)
        f0 = amplitudes(2, 8, {(3, 0): 1.0, (4, 0): 0.5, (2, 1): 0.25 - 0.5j, (5, 1): 0.75j})
        fs = [f0, *dynamics.one_particle_flow(generator(model), f0, D2, [0.5, 3.0])]
        reached = np.flatnonzero(np.any([f.ravel() for f in fs], axis=0))
        assert len({frozenset(model.eigenbasis_blocks(basis[k]).blocks) for k in reached}) > 1
        rotated = []
        rotate = QuadraticModel.eigenbasis_blocks

        def counting(self, a):
            rotated.append(a)
            return rotate(self, a)

        monkeypatch.setattr(QuadraticModel, "eigenbasis_blocks", counting)
        got = list(eigenbasis_fields(model, fs))
        assert rotated == [basis[k] for k in reached]
        monkeypatch.undo()
        assert len(got) == len(fs)
        for f, field in zip(fs, got):
            want = model.eigenbasis_blocks(smear(f, D2, model.chain))
            assert (field - want).max_abs() <= 1e-13


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
            dynamics.one_particle_flow(np.zeros((15, 15)), np.ones(shape), D3, [1.0])

    def test_flow_rejects_a_wrong_d(self):
        # 3 flavours x 4 sites fill the 12 modes of a 2-flavour, 6-site M as
        # well: only the chain's d tells them apart
        with pytest.raises(ValueError, match=r"shape \(3, 4\) do not fill 12 modes of 2 flavours"):
            dynamics.one_particle_flow(np.zeros((12, 12)), np.ones((3, 4)), D2, [1.0])


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

    def test_no_realize_product_or_rotation_per_run(self, monkeypatch):
        # the deviation is the same at every t and in every orthonormal basis,
        # so it is taken once in the site basis, composed from the monomial
        # actions: nothing realized, no block product, no rotation into the
        # eigenbasis, no eigenvector columns to map back, and the model is
        # not diagonalised
        model = QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))
        counts = {"realize": 0, "product": 0, "eigenbasis_blocks": 0, "columns": 0}
        build, product = dynamics.realize, DenseOperator.__matmul__
        rotate, columns = QuadraticModel.eigenbasis_blocks, dynamics.Eigensystem.columns

        def counting_realize(a, chain):
            counts["realize"] += 1
            return build(a, chain)

        def counting_product(x, y):
            counts["product"] += 1
            return product(x, y)

        def counting_rotate(self, a):
            counts["eigenbasis_blocks"] += 1
            return rotate(self, a)

        def counting_columns(eig, c, k):
            counts["columns"] += 1
            return columns(eig, c, k)

        monkeypatch.setattr(dynamics, "realize", counting_realize)
        monkeypatch.setattr(DenseOperator, "__matmul__", counting_product)
        monkeypatch.setattr(QuadraticModel, "eigenbasis_blocks", counting_rotate)
        monkeypatch.setattr(dynamics.Eigensystem, "columns", counting_columns)
        assert isinstance(reconstruct_spin_evolution(model), float)
        assert counts == {"realize": 0, "product": 0, "eigenbasis_blocks": 0, "columns": 0}
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
        # three monomial actions, the composed product and the column sums:
        # a few (d, m) arrays and no m x m block (8.1 arrays of d x m complex
        # entries measured once the chain's digit tables are cached, bound
        # plus 11 %)
        model = d2_model(8)
        array = 16 * model.chain.dim
        reconstruct_spin_evolution(model)
        dev, peak = traced_peak(lambda: reconstruct_spin_evolution(model))
        assert isinstance(dev, float)
        assert peak <= 9 * array

    @pytest.mark.parametrize("broken", [False, True], ids=["identity", "broken"])
    @pytest.mark.parametrize(
        "model",
        [d2_model(6), QuadraticModel(ChainSpec(3, 4), D3, Hopping({1: 0.5, -1: 0.5}))],
        ids=["d2", "d3"],
    )
    def test_composed_actions_match_the_realized_product(self, monkeypatch, model, broken):
        # the column sums over the composed actions against the Frobenius
        # norm of the realized clock minus omega = exp(2i*pi/d), read from
        # the one table of roots (so exactly -1 at d = 2), times the full
        # product of the realized factors; with the second factor's clock
        # exponent dropped the identity fails, and both read a norm of order
        # sqrt(d^L)
        ch, pr = model.chain, model.params
        site = ch.L // 2
        right = dynamics.dressed_weyl_rs
        if broken:
            monkeypatch.setattr(dynamics, "dressed_weyl_rs", lambda x, r, s, params, chain: right(x, 0, s, params, chain))
        clock, fa, fb = (
            realize(m, ch).entries
            for m in (WeylMonomial.single(ch.d, site, 1, 0), dressed_weyl(site, 1, pr, ch),
                      dynamics.dressed_weyl_rs(site, 1, -1, pr, ch))
        )
        want = np.linalg.norm(clock - phase_value(2, ch.d) * (fa @ fb))
        assert (want > np.sqrt(ch.dim)) == broken
        assert reconstruct_spin_evolution(model) == pytest.approx(want, rel=1e-15, abs=1e-15)
