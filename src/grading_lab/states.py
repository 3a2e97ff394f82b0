"""Tracial-state evaluation, two-point functions, and clustering reports.

The tracial state of a Weyl monomial is its scalar phase when every site
label is trivial and zero otherwise (clock and shift powers are traceless
unless both exponents vanish mod d); the extension to elements is linear
and needs no dense matrices.  Dynamical two-point functions evaluate the
normalized matrix trace in the per-sector eigenbasis of the Hamiltonian,
where the Heisenberg evolution is an element-wise phase, over the whole
time grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import realize
from .dynamics import QuadraticModel
from .weyl import AlgebraElement, WeylMonomial


def trace_state(a: AlgebraElement | WeylMonomial) -> complex:
    """Exact tracial-state value of a symbolic element."""
    if isinstance(a, WeylMonomial):
        return a.phase_factor() if a.is_identity() else 0j
    return complex(a.terms.get((), 0j))


@dataclass
class CorrelationSeries:
    """Truncated two-point values <A tau_t B> - <A><B> over a time grid."""

    a_label: str
    b_label: str
    times: np.ndarray
    values: np.ndarray

    def rows(self):
        return list(zip(self.times.tolist(), self.values.tolist()))


def two_point(
    a: AlgebraElement,
    b: AlgebraElement,
    model: QuadraticModel,
    t_grid,
    a_label: str = "A",
    b_label: str = "B",
) -> CorrelationSeries:
    """Evaluate omega(A tau_t(B)) - omega(A) omega(B) with the trace state.

    With blocks X~_rc = V_r^dag X_rc V_c in the per-sector eigenbasis,
    trace(A tau_t(B)) = sum over blocks (r, c) and entries (m, n) of
    A~_cr[n, m] B~_rc[m, n] exp(i (E_r[m] - E_c[n]) t): one product of the
    (time, level) phase table with each nonzero block pair covers the grid.
    omega(A) and omega(B) are the exact symbolic ``trace_state`` values.
    Raises ValueError on an empty grid.
    """
    times = np.array(sorted(float(t) for t in t_grid))
    if not times.size:
        raise ValueError("empty time grid")
    ch = model.chain
    at = model.eigenbasis_blocks(realize(a, ch))
    bt = model.eigenbasis_blocks(realize(b, ch))
    phase = np.stack([model.propagator(t) for t in times])  # (time, sector, level)
    acc = np.zeros(times.size, dtype=complex)
    for (r, c), bb in bt.blocks.items():
        if (c, r) in at.blocks:
            acc += np.sum((phase[:, r] @ (at.blocks[c, r].T * bb)) * phase[:, c].conj(), axis=1)
    return CorrelationSeries(
        a_label=a_label, b_label=b_label, times=times, values=acc / ch.dim - trace_state(a) * trace_state(b)
    )


@dataclass
class ClusteringReport:
    """Envelope of |truncated correlation| and its ratio to the t=0 value."""

    series: CorrelationSeries
    envelope: np.ndarray
    initial: float
    window: tuple[float, float]

    def min_envelope_ratio(self) -> float:
        if self.initial == 0.0:
            return 0.0
        lo, hi = self.window
        mask = (self.series.times >= lo) & (self.series.times <= hi)
        if not mask.any():
            return float("nan")
        return float(self.envelope[mask].min() / self.initial)


def clustering_report(
    a: AlgebraElement,
    b: AlgebraElement,
    model: QuadraticModel,
    t_grid,
    window: tuple[float, float] | None = None,
) -> ClusteringReport:
    """Running-maximum envelope of the truncated correlation magnitude.

    The envelope at time t is the maximum of |correlation| over the grid
    points at or after t; the window defaults to the full grid and is
    normally set from the light-cone guard by the caller.
    """
    series = two_point(a, b, model, t_grid)
    mags = np.abs(series.values)
    envelope = np.maximum.accumulate(mags[::-1])[::-1]
    if window is None:
        window = (float(series.times[0]), float(series.times[-1]))
    return ClusteringReport(series=series, envelope=envelope, initial=float(mags[0]), window=window)
