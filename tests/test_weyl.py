"""Exact algebra of the clock/shift monomial layer."""

import cmath

import numpy as np
import pytest

from grading_lab.dense import ChainSpec, realize
from grading_lab.weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    commutation_phase,
    lattice_shift,
    matrix_unit,
    mono_adjoint,
    mono_mul,
    phase_value,
    roots,
)


def random_monomial(rng, d, L, p_site=0.7):
    labels = {
        x: (int(rng.integers(0, d)), int(rng.integers(0, d)))
        for x in range(L)
        if rng.random() < p_site
    }
    return WeylMonomial.from_labels(d, labels, int(rng.integers(0, 2 * d)))


def random_element(rng, d, L, terms=3):
    out = AlgebraElement.zero(d)
    for _ in range(terms):
        c = complex(rng.standard_normal(), rng.standard_normal())
        out = out + AlgebraElement.from_monomials([(c, random_monomial(rng, d, L))])
    return out


def isclose(a, b, tol=1e-12):
    """Every coefficient of a - b is at most tol in modulus."""
    return max((abs(c) for c in (a - b).terms.values()), default=0.0) <= tol


def gauge_rotated(a, j):
    """a with each monomial of shift charge q times exp(2i*pi*j*q/d), the phase read from ``roots``."""
    d = a.d
    return AlgebraElement(d, {key: c * roots(d)[2 * j * WeylMonomial(d, key, 0).charge() % (2 * d)]
                              for key, c in a.terms.items()})


class TestRoots:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_exact_symmetries(self, d):
        # == compares the bits of a nonzero float, and every entry off the four
        # axes has a nonzero real and imaginary part, so the symmetries are exact
        w = roots(d)
        assert len(w) == 2 * d
        for q in range(2 * d):
            assert w[(q + d) % (2 * d)] == -w[q]
            assert w[-q % (2 * d)] == w[q].conjugate()
            assert abs(w[q] - cmath.exp(1j * cmath.pi * q / d)) <= 2e-15
        axes = {q: w[q] for q in range(2 * d) if 2 * q % d == 0}
        assert axes == ({0: 1, d // 2: 1j, d: -1, 3 * d // 2: -1j} if d % 2 == 0 else {0: 1, d: -1})
        assert all(z.real and z.imag for q, z in enumerate(w) if q not in axes)

    def test_phase_value_reads_the_table(self):
        for d in (2, 3, 5):
            assert [phase_value(q, d) for q in range(-2 * d, 4 * d)] == list(roots(d)) * 3


class TestMonomials:
    def test_generator_product_phase(self):
        # d=3: W(1,0) W(0,1) carries phase exponent 1 on the label (1,1)
        ab = mono_mul(WeylMonomial.single(3, 0, 1, 0), WeylMonomial.single(3, 0, 0, 1))
        assert ab.phase == 1
        assert ab.sites == ((0, (1, 1)),)

    def test_clock_cube_is_identity(self):
        c = mono_mul(WeylMonomial.single(3, 0, 2, 0), WeylMonomial.single(3, 0, 1, 0))
        assert c == WeylMonomial.identity(3)

    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_monomial(rng, 4, 3)
            assert mono_mul(WeylMonomial.identity(4), m) == m
            assert mono_mul(m, WeylMonomial.identity(4)) == m

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mono_mul(WeylMonomial.identity(2), WeylMonomial.identity(3))

    def test_adjoint_involution_and_unitarity(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 5):
            for _ in range(30):
                m = random_monomial(rng, d, 4)
                assert mono_adjoint(mono_adjoint(m)) == m
                assert mono_mul(m, mono_adjoint(m)) == WeylMonomial.identity(d)

    def test_adjoint_of_single_generator(self):
        m = WeylMonomial.single(3, 0, 1, 2)
        assert mono_mul(m, mono_adjoint(m)) == WeylMonomial.identity(3)

    def test_associativity_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = int(rng.choice([2, 3, 4, 5]))
            a, b, c = (random_monomial(rng, d, 4) for _ in range(3))
            assert mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))

    def test_phase_group_z2d(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                m = random_monomial(rng, d, 3)
                q = int(rng.integers(0, 2 * d))
                shifted = mono_mul(m, WeylMonomial.identity(d, phase=q))
                assert shifted.phase == (m.phase + q) % (2 * d)

    def test_commutation_phase_antisymmetric(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4, 5):
            for _ in range(50):
                a, b = random_monomial(rng, d, 4), random_monomial(rng, d, 4)
                assert (commutation_phase(a, b) + commutation_phase(b, a)) % d == 0

    def test_commutation_phase_single_site(self):
        a = WeylMonomial.single(3, 0, 1, 0)
        b = WeylMonomial.single(3, 0, 0, 1)
        assert commutation_phase(a, b) == 1

    def test_commutation_disjoint_sites(self):
        a = WeylMonomial.single(3, 0, 1, 2)
        b = WeylMonomial.single(3, 1, 2, 1)
        assert commutation_phase(a, b) == 0

    def test_commutation_phase_vs_dense(self):
        # a.b = exp(2i*pi*c/d) b.a checked against matrices, d=3, L=4
        rng = np.random.default_rng(5)
        chain = ChainSpec(3, 4)
        for _ in range(100):
            a, b = random_monomial(rng, 3, 4), random_monomial(rng, 3, 4)
            c = commutation_phase(a, b)
            ad = realize(a, chain).entries
            bd = realize(b, chain).entries
            assert np.abs(ad @ bd - np.exp(2j * np.pi * c / 3) * bd @ ad).max() < 1e-12

    def test_shift_group_law(self):
        rng = np.random.default_rng(6)
        m = random_monomial(rng, 3, 4)
        assert lattice_shift(lattice_shift(m, 1), -1) == m
        assert lattice_shift(m, 0) == m

    def test_shift_preserves_commutation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_monomial(rng, 3, 4), random_monomial(rng, 3, 4)
            assert commutation_phase(a, b) == commutation_phase(
                lattice_shift(a, 5), lattice_shift(b, 5)
            )


def summed_labels_product(a, b):
    """a . b by the definition: the raw labels summed site by site, with the symplectic terms, then ``from_labels``."""
    lab = dict(a.sites)
    q = a.phase + b.phase
    for x, (kb, lb) in b.sites:
        ka, la = lab.get(x, (0, 0))
        q += ka * lb - la * kb
        lab[x] = (ka + kb, la + lb)
    return WeylMonomial.from_labels(a.d, lab, q)


def cancelling_partner(rng, a):
    """A monomial that inverts a on a random half of its sites and carries random labels elsewhere, on and off a's support."""
    d = a.d
    labels = {x: (-k, -l) if rng.random() < 0.5 else (int(rng.integers(0, d)), int(rng.integers(0, d))) for x, (k, l) in a.sites}
    labels.update({x: (int(rng.integers(0, d)), int(rng.integers(0, d))) for x in range(6, 9) if rng.random() < 0.5})
    return WeylMonomial.from_labels(d, labels, int(rng.integers(0, 2 * d)))


class TestOnePassProduct:
    # mono_mul merges the two sorted site lists and re-reduces only the
    # shared sites; the definition sums every raw label and reduces them all
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_the_summed_labels(self, d):
        rng = np.random.default_rng(90 + d)
        pairs = []
        for _ in range(100):
            a, b = random_monomial(rng, d, 6), random_monomial(rng, d, 6)
            evens = WeylMonomial(d, tuple(s for s in a.sites if s[0] % 2 == 0), a.phase)
            odds = WeylMonomial(d, tuple(s for s in b.sites if s[0] % 2), b.phase)
            pairs += [
                (a, b),  # overlapping supports
                (a, lattice_shift(b, 6)),  # disjoint, one after the other
                (evens, odds),  # disjoint, interleaved
                (a, cancelling_partner(rng, a)),  # shared sites that cancel to (0, 0) and ones that do not
            ]
        pairs += [(b, a) for a, b in pairs]
        assert len(pairs) == 800
        cancelled = 0
        for a, b in pairs:
            got, want = mono_mul(a, b), summed_labels_product(a, b)
            assert got == want and isinstance(got.sites, tuple)
            cancelled += len(got.sites) < len(set(a.support()) | set(b.support()))
        assert cancelled >= 100

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_inverse_and_powers(self, d):
        # a . a^dag is the identity with phase 0; s^d is the identity with
        # phase 0 or d, the sign block_symmetries reads from s.pow(d).phase
        rng = np.random.default_rng(95 + d)
        signs = set()
        for _ in range(100):
            a = random_monomial(rng, d, 6)
            assert mono_mul(a, mono_adjoint(a)) == mono_mul(mono_adjoint(a), a) == WeylMonomial(d, (), 0)
            power, want = a.pow(d), WeylMonomial.identity(d)
            for _ in range(d):
                want = summed_labels_product(want, a)
            assert power == want and power.sites == ()
            assert power.phase in (0, d)
            signs.add(power.phase)
        assert signs == {0, d}


class TestElements:
    def test_commutator_with_self_vanishes(self):
        rng = np.random.default_rng(8)
        a = random_element(rng, 3, 3)
        assert isclose(a.commutator(a), AlgebraElement.zero(3), 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_commutator_matches_two_products(self, d):
        # the exchange rule forms one product per pair that does not commute
        rng = np.random.default_rng(20 + d)
        for _ in range(20):
            a, b = random_element(rng, d, 5, terms=4), random_element(rng, d, 5, terms=4)
            assert isclose(a.commutator(b), a * b - b * a, 1e-13)

    def test_mul_distributes_vs_dense(self):
        rng = np.random.default_rng(9)
        chain = ChainSpec(3, 4)
        for _ in range(10):
            a, b, c = (random_element(rng, 3, 4) for _ in range(3))
            lhs = realize(a * (b + c), chain).entries
            rhs = realize(a * b + a * c, chain).entries
            assert np.abs(lhs - rhs).max() < 1e-12
            direct = realize(a, chain).entries @ realize(b + c, chain).entries
            assert np.abs(lhs - direct).max() < 1e-12

    def test_adjoint_antihomomorphism(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
            lhs = (a * b).adjoint()
            rhs = b.adjoint() * a.adjoint()
            assert isclose(lhs, rhs, 1e-12)

    def test_scalar_axioms(self):
        rng = np.random.default_rng(11)
        a = random_element(rng, 2, 3)
        assert isclose(2.0 * a - a - a, AlgebraElement.zero(2), 1e-13)

    def test_zero_coefficients_dropped(self):
        a = AlgebraElement(3, {(): 0j})
        assert not a.terms


class TestMatrixUnits:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dense_oracle(self, d):
        chain = ChainSpec(d, 1)
        for r in range(d):
            for s in range(d):
                got = realize(matrix_unit(d, r, s, 0), chain).entries
                ref = np.zeros((d, d), complex)
                ref[r, s] = 1.0
                assert np.abs(got - ref).max() < 1e-13

    def test_resolution_of_identity(self):
        tot = AlgebraElement.zero(3)
        for r in range(3):
            tot = tot + matrix_unit(3, r, r, 1)
        assert isclose(tot, AlgebraElement.identity(3), 1e-13)

    def test_unit_products(self):
        prod = matrix_unit(3, 0, 1, 0) * matrix_unit(3, 1, 2, 0)
        assert isclose(prod, matrix_unit(3, 0, 2, 0), 1e-13)
        zero = matrix_unit(3, 0, 1, 0) * matrix_unit(3, 2, 0, 0)
        assert isclose(zero, AlgebraElement.zero(3), 1e-13)

    def test_d2_frozen_coefficients(self):
        # |0><1| = (1/2) W(0,1) + (i/2) W(1,1), frozen from the dense oracle
        mu = matrix_unit(2, 0, 1, 0)
        key_x = WeylMonomial.single(2, 0, 0, 1).key()
        key_xz = WeylMonomial.single(2, 0, 1, 1).key()
        assert abs(mu.terms[key_x] - 0.5) < 1e-15
        assert abs(mu.terms[key_xz] - 0.5j) < 1e-15

    def test_index_range_rejected(self):
        with pytest.raises(ValueError):
            matrix_unit(3, 3, 0, 0)


class TestGaugeRotate:
    # conjugation by the j-th power of the gauge unitary multiplies a monomial
    # of shift charge q by exp(2i*pi*j*q/d)
    def test_charge_one_phase(self):
        from grading_lab.dense import gauge_unitary

        chain = ChainSpec(3, 1)
        a = realize(WeylMonomial.single(3, 0, 0, 1), chain).entries
        g = gauge_unitary(chain).entries
        assert np.abs(g @ a @ g.conj().T - roots(3)[2] * a).max() < 1e-14

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_matches_dense_conjugation(self, j):
        from grading_lab.dense import gauge_unitary

        rng = np.random.default_rng(13 + j)
        chain = ChainSpec(3, 3)
        a = random_element(rng, 3, 3)
        g = gauge_unitary(chain).entries
        gj = np.linalg.matrix_power(g, j)
        lhs = realize(gauge_rotated(a, j), chain).entries
        rhs = gj @ realize(a, chain).entries @ gj.conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


class TestGradingParams:
    def test_difference_always_canonical(self):
        # both string exponents are reduced mod d, so every difference of them is too
        for d in (2, 3, 4, 5):
            for jp in range(-d, 2 * d):
                for jm in range(-d, 2 * d):
                    params = GradingParams(d, jp, jm)
                    assert (params.j_plus, params.j_minus) == (jp % d, jm % d)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            GradingParams(1, 0, 0)


class TestGaugeCharge:
    def test_charge_zero_is_gauge_invariant(self):
        d = 3
        inv = WeylMonomial.single(d, 0, 1, 0).as_element()
        assert inv.is_gauge_invariant() and inv.charges() == {0}
        charged = WeylMonomial.single(d, 0, 0, 1).as_element()
        assert not charged.is_gauge_invariant() and charged.charges() == {1}
        balanced = AlgebraElement.from_monomials(
            [(1.0, WeylMonomial.from_labels(d, {0: (0, 1), 2: (0, d - 1)}))]
        )
        assert balanced.is_gauge_invariant() and balanced.charges() == {0}
