"""One-particle layer: hoppings, sup-norm decay fits, shifts of (d, N) amplitude arrays; the torus symbol and flow."""

import numpy as np
import pytest
from scipy.special import jv

from grading_lab.dense import ChainSpec
from grading_lab.dynamics import QuadraticModel, generator, one_particle_flow
from grading_lab.oneparticle import (
    Hopping,
    evolve,
    fit_power_law,
    fractional_shift,
    particle_shift,
    symbol,
)
from grading_lab.weyl import GradingParams

COS_HOPPING = Hopping({1: 0.5, -1: 0.5})


def random_amplitudes(rng, d, N):
    return rng.standard_normal((d, N)) + 1j * rng.standard_normal((d, N))


def assert_close(a, b, tol):
    """Same shape, and every entry within tol."""
    np.testing.assert_allclose(a, b, rtol=0, atol=tol)


class TestHopping:
    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            Hopping({1: 1.0})
        with pytest.raises(ValueError):
            Hopping({1: 1.0, -1: 0.5})
        Hopping({1: 0.5 - 0.25j, -1: 0.5 + 0.25j})

    def test_velocity_bound(self):
        assert abs(COS_HOPPING.velocity_bound() - 2.0) < 1e-15


class TestSymbol:
    def test_cos_dispersion(self):
        vals = symbol(COS_HOPPING, 8)
        p = np.arange(8) / 8
        assert np.abs(vals - np.cos(2 * np.pi * p)).max() < 1e-14

    def test_onsite_constant(self):
        vals = symbol(Hopping({0: 1.0}), 6)
        assert np.abs(vals - 1.0).max() < 1e-14

    def test_real_for_random_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            coeffs = {}
            for x in (1, 2, 3):
                z = complex(rng.standard_normal(), rng.standard_normal())
                coeffs[x] = z
                coeffs[-x] = z.conjugate()
            coeffs[0] = float(rng.standard_normal())
            vals = symbol(Hopping(coeffs), 32)
            assert np.isrealobj(vals)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            symbol(Hopping({3: 1.0, -3: 1.0}), 4)


class TestEvolve:
    # the torus flow stays only while perfbench/tracer.py binds it
    def test_t0_identity(self):
        f = np.zeros((2, 16), dtype=complex)
        f[0, 3], f[1, 5] = 1.0, 2.0
        assert_close(evolve(f, COS_HOPPING, 0.0), f, 1e-14)

    def test_bessel_oracle(self):
        # delta input under the cosine dispersion: |f_t(x)| = |J_x(t)|
        f0 = np.zeros((1, 1024), dtype=complex)
        f0[0, 0] = 1.0
        for t in (0.5, 3.0, 7.3, 20.0):
            ft = evolve(f0, COS_HOPPING, t)
            # a negative index reads site x mod 1024 of the torus
            worst = max(
                abs(abs(ft[0, x]) - abs(jv(x, t))) for x in range(-60, 61)
            )
            assert worst < 1e-8

    def test_l2_conserved(self):
        rng = np.random.default_rng(3)
        f = random_amplitudes(rng, 2, 32)
        assert abs(np.linalg.norm(evolve(f, COS_HOPPING, 7.3)) - np.linalg.norm(f)) < 1e-12

    def test_group_law(self):
        rng = np.random.default_rng(4)
        f = random_amplitudes(rng, 1, 64)
        a = evolve(evolve(f, COS_HOPPING, 2.2), COS_HOPPING, 5.1)
        b = evolve(f, COS_HOPPING, 7.3)
        assert_close(a, b, 1e-12)

    def test_commutes_with_lattice_shift(self):
        rng = np.random.default_rng(5)
        f = random_amplitudes(rng, 1, 32)
        a = particle_shift(evolve(f, COS_HOPPING, 1.7), 3)
        b = evolve(particle_shift(f, 3), COS_HOPPING, 1.7)
        assert_close(a, b, 1e-12)


def chain_sups(L, hopping, times):
    """Sup norms of the open chain's flow exp(tM) f0, f0 a delta at flavour-0 site L // 2, d = 2."""
    model = QuadraticModel(ChainSpec(2, L), GradingParams(2, 1, 1), Hopping(hopping))
    f0 = np.zeros((2, L))
    f0[0, L // 2] = 1.0
    return np.array([np.abs(f).max() for f in one_particle_flow(generator(model), f0, times)])


class TestSupDecay:
    # the decay exponent of acceptance 6, on shorter chains and windows
    def test_constant_symbol_flat(self):
        # on-site hopping makes H a multiple of 1, so M = 0 and nothing moves
        times = np.linspace(1, 9, 9)
        sups = chain_sups(16, {0: 2.0}, times)
        assert np.abs(sups - sups[0]).max() < 1e-13
        assert abs(fit_power_law(times, sups, (1, 9))) < 1e-10

    def test_cos_dispersion_exponent(self):
        times = np.linspace(10, 60, 26)
        exponent = fit_power_law(times, chain_sups(160, {1: 1j / 16, -1: -1j / 16}, times), (10, 60))
        assert -0.5 <= exponent <= -0.30

    def test_reproducible(self):
        times = np.linspace(5, 30, 11)
        a = chain_sups(64, {1: 1j / 16, -1: -1j / 16}, times)
        b = chain_sups(64, {1: 1j / 16, -1: -1j / 16}, times)
        assert np.array_equal(a, b)
        assert fit_power_law(times, a, (5, 30)) == fit_power_law(times, b, (5, 30))


class TestFractionalShift:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.f2 = random_amplitudes(rng, 2, 16)
        self.f3 = random_amplitudes(rng, 3, 12)

    def test_integer_is_lattice_shift(self):
        for twist in (0, 1):
            got = fractional_shift(self.f2, 3.0, twist)
            assert_close(got, particle_shift(self.f2, 3), 1e-12)
        got = fractional_shift(self.f3, -2.0, 1)
        assert_close(got, particle_shift(self.f3, -2), 1e-12)

    def test_twisted_group_law(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d1, d2 = rng.uniform(-3, 3, size=2)
            a = fractional_shift(fractional_shift(self.f2, d1, 1), d2, 1)
            b = fractional_shift(self.f2, d1 + d2, 1)
            assert_close(a, b, 1e-12)

    def test_twisted_half_composition(self):
        a = fractional_shift(fractional_shift(self.f2, 0.5, 1), 0.5, 1)
        b = fractional_shift(self.f2, 1.0, 1)
        assert_close(a, b, 1e-12)

    def test_twisted_charge_ladder(self):
        # one step of 1/d moves charge j to j+1, with a carry into position
        f = np.zeros((3, 6), dtype=complex)
        f[0, 2] = 1.0
        g = fractional_shift(f, 1 / 3, 1)
        assert abs(g[1, 2] - 1.0) < 1e-12
        h = fractional_shift(f, 2 / 3, 1)
        assert abs(h[2, 2] - 1.0) < 1e-12

    def test_untwisted_group_failure_is_sector_phase(self):
        # flat charge-1 spectrum: against the plain shift, the doubled
        # half-step deviates by |exp(i*pi) - exp(-2i*pi*p)|, exactly 2 at p=0
        fm = np.fft.ifft(np.vstack([np.zeros(16), np.ones(16)]), axis=1)
        lhs = np.fft.fft(fractional_shift(fractional_shift(fm, 0.5, 0), 0.5, 0), axis=1)
        rhs = np.fft.fft(fractional_shift(fm, 1.0, 0), axis=1)
        dev = np.abs(lhs[1] - rhs[1])
        assert dev.max() == pytest.approx(2.0, abs=1e-12)
        assert dev[0] == pytest.approx(2.0, abs=1e-12)
        # charge-0 components are untouched
        assert np.abs(lhs[0] - rhs[0]).max() < 1e-12

    def test_degenerate_twist_rejected(self):
        f = np.zeros((4, 8))
        with pytest.raises(ValueError):
            fractional_shift(f, 0.25, 2)
