"""One-particle layer: hopping amplitudes, shifts, power-law fits.

An amplitude is a (d, N) complex array f[j, x], charge j in 0..d-1.  The
lab's quasifree flow is the open chain's exp(tM) on the first L <= N sites
(``dynamics.one_particle_flow``), acting on f[:, :L].ravel(), the index
k = j * L + x of ``dynamics.span_basis``.  The torus routines here read the
N sites as a torus and take the momentum form
f_hat(p_k) = sum_x f(x) exp(-2i*pi*k*x/N) as ``np.fft.fft(f, axis=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hopping:
    """Finitely supported hermitian hopping amplitudes h(x)."""

    coefficients: dict[int, complex]

    def __post_init__(self):
        coeffs = {int(x): complex(a) for x, a in self.coefficients.items() if a != 0}
        object.__setattr__(self, "coefficients", coeffs)
        for x, a in coeffs.items():
            b = coeffs.get(-x, 0j)
            if abs(b - a.conjugate()) > 1e-12:
                raise ValueError(f"hopping not hermitian at offset {x}: h({-x})={b} != conj(h({x}))")

    def support_diameter(self) -> int:
        if not self.coefficients:
            return 0
        return 2 * max(abs(x) for x in self.coefficients)

    def velocity_bound(self) -> float:
        """Lieb-Robinson style speed bound 2 * sum |h(x)| * |x|; acceptance 9 reads its pre-recurrence window from it."""
        return 2.0 * sum(abs(a) * abs(x) for x, a in self.coefficients.items())


def symbol(h: Hopping, N: int) -> np.ndarray:
    """Sampled dispersion h_hat(p) = sum_x h(x) e^{2i*pi*p*x} on the N-grid.

    Hermiticity makes the symbol real; the imaginary part is checked to
    vanish within 1e-12 and dropped.  Kept only for ``evolve`` and
    because ``perfbench/tracer.py`` binds it in ``TARGETS``; no command or
    acceptance criterion reads it.
    """
    if h.coefficients and N < h.support_diameter():
        raise ValueError(f"grid N={N} smaller than twice the hopping radius")
    p = np.arange(N) / N
    vals = np.zeros(N, dtype=complex)
    for x, a in h.coefficients.items():
        vals += a * np.exp(2j * np.pi * p * x)
    worst = float(np.abs(vals.imag).max()) if N else 0.0
    if worst > 1e-12:
        raise ValueError(f"dispersion not real (imag part {worst:.3e}); hopping not hermitian?")
    return vals.real


class OneParticleVector:
    """Only ``from_amplitudes``, kept for ``perfbench/make_reference.py`` as ``symbol`` and ``evolve`` are for the tracer.

    An amplitude is a plain (d, N) array; ROADMAP item 1 deletes this class.
    """

    @staticmethod
    def from_amplitudes(d: int, N: int, amplitudes: dict[tuple[int, int], complex]) -> np.ndarray:
        """The (d, N) array f[j, x] holding each amplitude at (x, j), x taken mod N and j mod d."""
        f = np.zeros((d, N), dtype=complex)
        for (x, j), a in amplitudes.items():
            f[j % d, x % N] += a
        return f


def evolve(f: np.ndarray, h: Hopping, t: float) -> np.ndarray:
    """Torus flow of the (d, N) array f: multiply each charge component's momentum form by exp(i*h_hat(p)*t).

    Kept only because ``perfbench/tracer.py`` binds it in ``TARGETS``; no
    command, acceptance criterion or cross-check reads it.  The lab's flow
    is the open chain's exp(tM) (``dynamics.one_particle_flow``).
    """
    mult = np.exp(1j * symbol(h, np.shape(f)[1]) * t)
    return np.fft.ifft(np.fft.fft(f, axis=1) * mult, axis=1)


def particle_shift(f: np.ndarray, n: int) -> np.ndarray:
    """Integer lattice translation f(x) -> f(x - n) of the (d, N) array f on the torus."""
    return np.roll(f, n, axis=1)


def fit_power_law(times: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares slope of log(value) vs log(t) over the window; acceptance 6 reads the decay exponent from it."""
    lo, hi = window
    mask = (times >= lo) & (times <= hi) & (values > 0)
    if mask.sum() < 2:
        raise ValueError("fit window selects fewer than two points")
    x = np.log(times[mask])
    y = np.log(values[mask])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def fractional_shift(f: np.ndarray, delta: float, twist: int) -> np.ndarray:
    """Continuously extended shift of the (d, N) array f by delta, with a charge-twist convention.

    twist != 0 (the d-twisted, Fermi-type convention): the charge index is
    interleaved into a refined lattice with spacing 1/d (charge j sits at
    sub-site twist*j mod d) and the whole family is the translation group
    of that lattice, implemented as the momentum multiplier
    exp(-2i*pi*delta*P) on the refined grid.  One step of 1/d ladders the
    charge; integer delta reduces to the plain lattice shift.

    twist == 0 (the untwisted, spin convention): the integer part acts as
    the lattice shift and the fractional part as the gauge rotation
    exp(2i*pi*(delta)*q/d) on charge q.  The family fails the group law at
    integer crossings by the sector phase exp(2i*pi*q/d).
    """
    d, N = np.shape(f)
    twist = twist % d
    if twist == 0:
        n = int(np.floor(delta))
        frac = delta - n
        phases = np.exp(2j * np.pi * frac * np.arange(d) / d)
        return phases[:, None] * np.roll(f, n, axis=1)
    if d > 2 and np.gcd(twist, d) != 1:
        raise ValueError(f"twist {twist} shares a factor with d={d}; refined lattice degenerate")
    refined = np.zeros(N * d, dtype=complex)
    for j in range(d):
        refined[(twist * j) % d :: d] = f[j]
    spectrum = np.fft.fft(refined)
    spectrum *= np.exp(-2j * np.pi * np.fft.fftfreq(N * d) * d * delta)
    refined = np.fft.ifft(spectrum)
    out = np.empty((d, N), dtype=complex)
    for j in range(d):
        out[j] = refined[(twist * j) % d :: d]
    return out
