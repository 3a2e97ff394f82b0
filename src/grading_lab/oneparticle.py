"""One-particle layer: hopping symbols, quasifree flow, decay, shifts.

Amplitudes f(x, j) live on an N-site position torus (N a multiple of d)
with a charge index j in 0..d-1.  The momentum form holds N uniform
samples per charge of f_hat(p_k) = sum_x f(x) exp(-2i*pi*k*x/N); all
gridded integrals are plain Riemann sums so results are bit-reproducible.

The quasifree flow multiplies each charge component by exp(i*h_hat(p)*t)
with h_hat(p) = sum_x h(x) exp(2i*pi*p*x), the unique Fourier-multiplier
solution of the position-space convolution flow generated by the hopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIT_T_MIN = 5.0  # default fit windows start here, past the pre-asymptotic regime
CONSTRAINT_TOL = 1e-12  # largest |fine - blocked| that counts as equal


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
        """Lieb-Robinson style speed bound 2 * sum |h(x)| * |x|."""
        return 2.0 * sum(abs(a) * abs(x) for x, a in self.coefficients.items())


def symbol(h: Hopping, N: int) -> np.ndarray:
    """Sampled dispersion h_hat(p) = sum_x h(x) e^{2i*pi*p*x} on the N-grid.

    Hermiticity makes the symbol real; the imaginary part is checked to
    vanish within 1e-12 and dropped.
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
    """Finitely supported amplitude f(x, j) with a momentum-grid form."""

    __slots__ = ("d", "N", "position")

    def __init__(self, d: int, N: int, position: np.ndarray):
        if N % d != 0:
            raise ValueError(f"grid size {N} not divisible by d={d}")
        self.d = d
        self.N = N
        self.position = np.asarray(position, dtype=complex).reshape(d, N)

    @staticmethod
    def from_amplitudes(d: int, N: int, amplitudes: dict[tuple[int, int], complex]) -> "OneParticleVector":
        pos = np.zeros((d, N), dtype=complex)
        for (x, j), a in amplitudes.items():
            pos[j % d, x % N] += a
        return OneParticleVector(d, N, pos)

    @staticmethod
    def from_momentum(d: int, N: int, momentum: np.ndarray) -> "OneParticleVector":
        mom = np.asarray(momentum, dtype=complex).reshape(d, N)
        return OneParticleVector(d, N, np.fft.ifft(mom, axis=1))

    @property
    def momentum(self) -> np.ndarray:
        """(d, N) samples of f_hat(p_k) per charge, p_k = k/N."""
        return np.fft.fft(self.position, axis=1)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.position))

    def momentum_l2_norm(self) -> float:
        return float(np.linalg.norm(self.momentum) / np.sqrt(self.N))

    def sup_abs(self) -> float:
        return float(np.abs(self.position).max())

    def amplitude(self, x: int, j: int = 0) -> complex:
        return complex(self.position[j % self.d, x % self.N])

    def isclose(self, other: "OneParticleVector", tol: float = 1e-12) -> bool:
        return (
            self.d == other.d
            and self.N == other.N
            and float(np.abs(self.position - other.position).max()) <= tol
        )


def evolve(f: OneParticleVector, h: Hopping, t: float) -> OneParticleVector:
    """Quasifree flow: multiply each charge component by exp(i*h_hat(p)*t)."""
    mult = np.exp(1j * symbol(h, f.N) * t)
    return OneParticleVector.from_momentum(f.d, f.N, f.momentum * mult[None, :])


def particle_shift(f: OneParticleVector, n: int) -> OneParticleVector:
    """Integer lattice translation f(x) -> f(x - n) on the torus."""
    return OneParticleVector(f.d, f.N, np.roll(f.position, n, axis=1))


@dataclass
class DecaySeries:
    """Sup-norm decay measurements with a power-law fit helper."""

    times: np.ndarray
    sups: np.ndarray
    fit_window: tuple[float, float]
    fit_exponent: float

    def rows(self):
        return list(zip(self.times.tolist(), self.sups.tolist()))


def fit_power_law(times: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares slope of log(value) vs log(t) over the window."""
    lo, hi = window
    mask = (times >= lo) & (times <= hi) & (values > 0)
    if mask.sum() < 2:
        raise ValueError("fit window selects fewer than two points")
    x = np.log(times[mask])
    y = np.log(values[mask])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def sup_decay(
    f: OneParticleVector,
    h: Hopping,
    t_grid,
    fit_window: tuple[float, float] | None = None,
) -> DecaySeries:
    """Series of (t, sup_{x,j} |f_t(x,j)|) with a log-log exponent fit.

    The fit excludes t below ``FIT_T_MIN`` unless an explicit window is
    given, to avoid pre-asymptotic bias.
    """
    times = np.asarray(sorted(float(t) for t in t_grid))
    if len(times) == 0:
        raise ValueError("empty time grid")
    sups = np.array([evolve(f, h, t).sup_abs() for t in times])
    if fit_window is None:
        fit_window = (max(FIT_T_MIN, float(times[0])), float(times[-1]))
    exponent = fit_power_law(times, sups, fit_window)
    return DecaySeries(times=times, sups=sups, fit_window=fit_window, fit_exponent=exponent)


def fractional_shift(f: OneParticleVector, delta: float, twist: int) -> OneParticleVector:
    """Continuously extended shift by delta with a charge-twist convention.

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
    d, N = f.d, f.N
    twist = twist % d
    if twist == 0:
        n = int(np.floor(delta))
        frac = delta - n
        out = np.roll(f.position, n, axis=1)
        phases = np.exp(2j * np.pi * frac * np.arange(d) / d)
        return OneParticleVector(d, N, phases[:, None] * out)
    if d > 2 and np.gcd(twist, d) != 1:
        raise ValueError(f"twist {twist} shares a factor with d={d}; refined lattice degenerate")
    refined = np.zeros(N * d, dtype=complex)
    for j in range(d):
        refined[(twist * j) % d :: d] = f.position[j]
    spectrum = np.fft.fft(refined)
    spectrum *= np.exp(-2j * np.pi * np.fft.fftfreq(N * d) * d * delta)
    refined = np.fft.ifft(spectrum)
    out = np.empty((d, N), dtype=complex)
    for j in range(d):
        out[j] = refined[(twist * j) % d :: d]
    return OneParticleVector(d, N, out)


def sector_translate(f: OneParticleVector, j: int, k: int) -> OneParticleVector:
    """Translate the momentum samples by (j-k)/d of a period."""
    step = ((j - k) % f.d) * (f.N // f.d)
    mom = f.momentum
    # f'(p) = f(p + (j-k)/d): sample m picks up sample m + step
    shifted = np.roll(mom, -step, axis=1)
    return OneParticleVector.from_momentum(f.d, f.N, shifted)


@dataclass
class ConstraintRow:
    l: int
    p: float
    fine_value: float
    blocked_value: float
    equal: bool


@dataclass
class ConstraintReport:
    k: int
    rows: list[ConstraintRow]
    coincide: bool


def blocked_symbol_constraints(h: Hopping, k: int) -> ConstraintReport:
    """Dispersion values at p = l/k for a hopping and its k-blocked reindexing.

    The blocked lattice keeps the hopping between block origins,
    h_B(X) = h(k*X); the report states whether the two constraint sets
    coincide within ``CONSTRAINT_TOL``, with no further interpretation.
    """
    if k < 1:
        raise ValueError("block size must be >= 1")
    hb = Hopping({x // k: a for x, a in h.coefficients.items() if x % k == 0})
    rows = []
    for l in range(k):
        p = l / k
        fine = sum((a * np.exp(2j * np.pi * p * x)).real for x, a in h.coefficients.items())
        blocked = sum((a * np.exp(2j * np.pi * p * x)).real for x, a in hb.coefficients.items())
        rows.append(ConstraintRow(l=l, p=p, fine_value=float(fine), blocked_value=float(blocked),
                                  equal=abs(fine - blocked) <= CONSTRAINT_TOL))
    return ConstraintReport(k=k, rows=rows, coincide=all(r.equal for r in rows))
