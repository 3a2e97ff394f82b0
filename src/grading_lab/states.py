"""Tracial-state evaluation, two-point functions, and clustering reports.

The tracial state of a Weyl monomial is its scalar phase when every site
label is trivial and zero otherwise (clock and shift powers are traceless
unless both exponents vanish mod d); the extension to elements is linear
and needs no dense matrices.  Dynamical two-point functions evaluate the
normalized matrix trace in the eigenbasis of the Hamiltonian, block by block,
where the Heisenberg evolution is an element-wise phase, over the whole
time grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QuadraticModel
from .weyl import AlgebraElement


def trace_state(a: AlgebraElement) -> complex:
    """Exact tracial-state value of a symbolic element."""
    return complex(a.terms.get((), 0j))


@dataclass
class CorrelationSeries:
    """Truncated two-point values <A tau_t B> - <A><B> over a time grid."""

    times: np.ndarray
    values: np.ndarray

    def rows(self):
        return list(zip(self.times.tolist(), self.values.tolist()))


def two_point(
    a: AlgebraElement,
    b: AlgebraElement,
    model: QuadraticModel,
    t_grid,
) -> CorrelationSeries:
    """Evaluate omega(A tau_t(B)) - omega(A) omega(B) with the trace state.

    With blocks X~_rc of the eigenbasis (``QuadraticModel.eigenbasis_blocks``),
    trace(A tau_t(B)) = sum over blocks (r, c) and entries (m, n) of
    A~_cr[n, m] B~_rc[m, n] exp(i (E_r[m] - E_c[n]) t): one product of the
    (time, level) phase table, read in parts of the blocks' size, with each
    nonzero block pair covers the grid.  omega(A) and omega(B) are the
    exact symbolic ``trace_state`` values.  Raises ValueError on an empty
    grid.
    """
    times = np.array(sorted(float(t) for t in t_grid))
    if not times.size:
        raise ValueError("empty time grid")
    at = model.eigenbasis_blocks(a)
    bt = model.eigenbasis_blocks(b)
    phase = np.stack([model.propagator(t) for t in times])  # (time, sector, level)
    acc = np.zeros(times.size, dtype=complex)
    for (r, c), bb in bt.blocks.items():
        if (c, r) in at.blocks:
            parts = phase.reshape(times.size, -1, len(bb))
            acc += np.sum((parts[:, r] @ (at.blocks[c, r].T * bb)) * parts[:, c].conj(), axis=1)
    return CorrelationSeries(times=times, values=acc / model.chain.dim - trace_state(a) * trace_state(b))


@dataclass
class ClusteringReport:
    """Envelope of |truncated correlation| and its value at the first grid time."""

    series: CorrelationSeries
    envelope: np.ndarray
    initial: float


def clustering_report(a: AlgebraElement, b: AlgebraElement, model: QuadraticModel, t_grid) -> ClusteringReport:
    """Running-maximum envelope of the truncated correlation magnitude.

    The envelope at time t is the maximum of |correlation| over the grid
    points at or after t.
    """
    series = two_point(a, b, model, t_grid)
    mags = np.abs(series.values)
    envelope = np.maximum.accumulate(mags[::-1])[::-1]
    return ClusteringReport(series=series, envelope=envelope, initial=float(mags[0]))
