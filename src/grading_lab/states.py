"""Tracial-state evaluation, two-point functions, and clustering reports.

The tracial state of a Weyl monomial is its scalar phase when every site
label is trivial and zero otherwise (clock and shift powers are traceless
unless both exponents vanish mod d); the extension to elements is linear
and needs no dense matrices.  Dynamical two-point functions evaluate the
normalized matrix trace against the dense Heisenberg evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import realize
from .dynamics import QuadraticModel, heisenberg_evolve
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
    """Evaluate omega(A tau_t(B)) - omega(A) omega(B) with the trace state."""
    ch = model.chain
    ad = realize(a, ch).entries
    bd = realize(b, ch)
    dim = ch.dim
    wa = np.trace(ad) / dim
    wb = np.trace(bd.entries) / dim
    times = sorted(float(t) for t in t_grid)
    vals = []
    for t in times:
        bt = heisenberg_evolve(bd, model, t).entries
        # trace(A B_t) = sum_ij A_ij (B_t)_ji without forming the product
        vals.append(complex(np.sum(ad * bt.T) / dim - wa * wb))
    return CorrelationSeries(
        a_label=a_label, b_label=b_label, times=np.array(times), values=np.array(vals)
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
