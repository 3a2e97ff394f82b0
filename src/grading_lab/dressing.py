"""String-dressed Weyl operators and matrix units on a finite chain.

The charge-1 generator at site x is dressed with clock strings running to
both chain boundaries:

    dressed(x, s) = W_x(0, s) * prod_{y > x} W_y(1, 0)^(s*j_plus)
                              * prod_{y < x} W_y(1, 0)^(s*(j_minus - 1))

The unit offset between the two string exponents normalizes the exchange
relation: for x < y and any equal pair j_plus = j_minus the dressed
generators obey

    dressed(x, 1) dressed(y, 1) = exp(2i*pi/d) dressed(y, 1) dressed(x, 1)

exactly, and at d = 2 with j_plus = j_minus = 1 they reduce to one-sided
Jordan-Wigner Majorana operators.  In general the exchange exponent is
1 + j_plus - j_minus mod d.  The symmetric two-sided exponents (j_plus,
j_minus) without the offset would make equal-parameter generators commute
at distance, which breaks the fixed-phase exchange contract; see the
module's docs for the convention discussion.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dense import ChainSpec, realize
from .weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    lattice_shift_mono,
    mono_adjoint,
    mono_mul,
)


def exchange_exponent(params: GradingParams) -> int:
    """Symbolic exchange exponent of two dressed generators at x < y."""
    return (1 + params.j_plus - params.j_minus) % params.d


def dressing_string(x: int, s: int, params: GradingParams, chain: ChainSpec) -> WeylMonomial:
    """Charge-s clock string around site x (site x itself excluded)."""
    d = params.d
    if d != chain.d:
        raise ValueError(f"dimension mismatch: params d={d}, chain d={chain.d}")
    if not 0 <= x < chain.L:
        raise ValueError(f"site {x} outside chain 0..{chain.L - 1}")
    s = s % d
    up = (s * params.j_plus) % d
    down = (s * (params.j_minus - 1)) % d
    labels: dict[int, tuple[int, int]] = {}
    for y in range(x + 1, chain.L):
        labels[y] = (up, 0)
    for y in range(x):
        labels[y] = (down, 0)
    return WeylMonomial.from_labels(d, labels)


def dressed_weyl(x: int, s: int, params: GradingParams, chain: ChainSpec) -> WeylMonomial:
    """Charge-s dressed generator at site x (a single unitary monomial)."""
    s = s % params.d
    if s == 0:
        # validate arguments even in the trivial case
        return dressing_string(x, 0, params, chain)
    return mono_mul(
        WeylMonomial.single(params.d, x, 0, s), dressing_string(x, s, params, chain)
    )


def dressed_weyl_rs(x: int, r: int, s: int, params: GradingParams, chain: ChainSpec) -> WeylMonomial:
    """Dressed two-label operator W(r, 0) * dressed(x, s) at site x."""
    return mono_mul(WeylMonomial.single(params.d, x, r, 0), dressed_weyl(x, s, params, chain))


def dressed_matrix_unit(x: int, r: int, s: int, params: GradingParams, chain: ChainSpec) -> AlgebraElement:
    """Dressed rank-one unit: the matrix-unit Fourier sum over dressed operators.

    Same coefficients as the undressed unit |r><s|; each clock term W(k, .)
    is replaced by its dressed counterpart of charge r - s.
    """
    d = params.d
    if not (0 <= r < d and 0 <= s < d):
        raise ValueError(f"matrix-unit indices out of range for d={d}: ({r},{s})")
    m = (r - s) % d
    string = dressing_string(x, m, params, chain)
    pairs = []
    for k in range(d):
        site_term = WeylMonomial.single(d, x, k, r - s, phase=-k * (r + s))
        pairs.append((1.0 / d, mono_mul(site_term, string)))
    return AlgebraElement.from_monomials(pairs, d)


@dataclass
class ExchangeReport:
    """Oracle reordering data for a pair of dressed matrix units."""

    x: int
    y: int
    jk: tuple[int, int]
    ln: tuple[int, int]
    closes: bool
    oracle_phase: complex | None
    residual: float
    symbolic_exponent: int
    claimed_phase_raw: complex
    claimed_phase_scaled: complex
    status: str


def dressed_commutation_report(
    x: int,
    y: int,
    j: int,
    k: int,
    l: int,
    n: int,
    params: GradingParams,
    chain: ChainSpec,
) -> ExchangeReport:
    """Compare the oracle exchange of two dressed units with the claimed law.

    The claimed reordering phase exp(i*pi*(j-k-l+n)*(x-y)) is checked both
    as written and with the exponent divided by d; the dense oracle is the
    ground truth and a single-phase closure is detected numerically.  Both
    products are formed on charge blocks, and the phase and the residual
    are Hilbert-Schmidt inner products summed over those blocks.
    """
    if x == y:
        raise ValueError("exchange report requires distinct sites")
    d = params.d
    u = realize(dressed_matrix_unit(x, j, k, params, chain), chain)
    v = realize(dressed_matrix_unit(y, l, n, params, chain), chain)
    uv, vu = u @ v, v @ u
    nvu = np.sqrt(vu.vdot(vu).real)
    if nvu < 1e-14:
        phase = None
        residual = float(np.sqrt(uv.vdot(uv).real))
        closes = residual < 1e-14
    else:
        phase = complex(vu.vdot(uv) / nvu**2)
        rest = uv.sub(vu, phase)
        residual = float(np.sqrt(rest.vdot(rest).real) / nvu)
        closes = residual < 1e-12
    sym = ((j - k) * (l - n) * exchange_exponent(params)) % d
    if x > y:
        sym = (-sym) % d
    raw = cmath.exp(1j * cmath.pi * (j - k - l + n) * (x - y))
    scaled = cmath.exp(1j * cmath.pi * (j - k - l + n) * (x - y) / d)
    if phase is None:
        status = "DEGENERATE"
    elif abs(phase - raw) < 1e-9 or abs(phase - scaled) < 1e-9:
        status = "MATCH"
    else:
        status = "MISMATCH"
    return ExchangeReport(
        x=x,
        y=y,
        jk=(j, k),
        ln=(l, n),
        closes=closes,
        oracle_phase=phase,
        residual=residual,
        symbolic_exponent=sym,
        claimed_phase_raw=raw,
        claimed_phase_scaled=scaled,
        status=status,
    )


@dataclass
class ShiftDefect:
    """Local implementer of the shifted-vs-unshifted string rotation."""

    x: int
    defect: WeylMonomial
    truncation_mismatch: WeylMonomial
    dense_deviation: float


def _rotation_string(center: int, params: GradingParams, chain: ChainSpec) -> WeylMonomial:
    """Clock string implementing the two half-line rotations around a site."""
    labels = {}
    for y in range(chain.L):
        if y > center:
            labels[y] = (params.j_plus, 0)
        elif y < center:
            labels[y] = (params.j_minus, 0)
    return WeylMonomial.from_labels(params.d, labels)


def shift_covariance_defect(x: int, params: GradingParams, chain: ChainSpec) -> ShiftDefect:
    """Local monomial by which the half-line rotation fails shift covariance.

    The rotation rule around site x composed with the inverse rule around
    site 0 has finite support {0..x}: exponent j_minus at 0, j_minus-j_plus
    strictly inside, -j_plus at x.  The dense deviation compares the
    realized defect against the explicit ratio of the two rotation strings.
    The truncation mismatch records the extra factor picked up when the
    site-0 dressed generator is literally translated instead of re-dressed
    (its string does not shift covariantly on a truncated chain); its
    support splits into (0, x] and the out-of-chain shadow [L, L+x).
    """
    if not 0 < x < chain.L:
        raise ValueError(f"need 0 < x < L, got x={x}, L={chain.L}")
    defect = mono_mul(_rotation_string(x, params, chain), mono_adjoint(_rotation_string(0, params, chain)))

    a = dressed_weyl(x, 1, params, chain)
    b = lattice_shift_mono(dressed_weyl(0, 1, params, chain), x)
    mismatch = mono_mul(mono_mul(a, mono_adjoint(b)), mono_adjoint(defect))

    ux = realize(_rotation_string(x, params, chain), chain)
    u0 = realize(_rotation_string(0, params, chain), chain)
    dev = (realize(defect, chain) - ux @ u0.adjoint()).max_abs()
    return ShiftDefect(x=x, defect=defect, truncation_mismatch=mismatch, dense_deviation=dev)


@dataclass
class BilinearConnection:
    """Charge-balanced dressed bilinear and the claimed undressed expansion."""

    x: int
    y: int
    lhs: AlgebraElement
    rhs: AlgebraElement
    deviation: float
    correction: WeylMonomial | None


def bilinear_connection(x: int, y: int, params: GradingParams, chain: ChainSpec) -> BilinearConnection:
    """Dressed hopping bilinear versus the claimed spin-side string form.

    lhs = dressed(x, 1) dressed(y, -1) is gauge invariant and supported on
    [x, y].  rhs is the claimed expansion
    W_x(0,1) W_x(1,0)^j+ prod_{x<z<y} W_z(1,0)^(j+ + j-) W_y(1,0)^-j+ W_y(0,-1);
    its dense deviation from lhs is reported, together with the exact
    correction monomial lhs * rhs^-1 when both are single monomials.
    """
    if not 0 <= x < y < chain.L:
        raise ValueError(f"need 0 <= x < y < L, got ({x},{y}), L={chain.L}")
    d = params.d
    lhs_mono = mono_mul(
        dressed_weyl(x, 1, params, chain), mono_adjoint(dressed_weyl(y, 1, params, chain))
    )
    labels = {x: (params.j_plus, 1), y: (-params.j_plus, -1)}
    for z in range(x + 1, y):
        labels[z] = (params.j_plus + params.j_minus, 0)
    # claimed ordered product W_x(0,1) W_x(1,0)^j+ carries the corresponding
    # reordering phase relative to the canonical label form
    rhs_mono = mono_mul(
        mono_mul(WeylMonomial.single(d, x, 0, 1), WeylMonomial.single(d, x, params.j_plus, 0)),
        mono_mul(
            WeylMonomial.from_labels(d, {z: (params.j_plus + params.j_minus, 0) for z in range(x + 1, y)}),
            mono_mul(WeylMonomial.single(d, y, -params.j_plus, 0), WeylMonomial.single(d, y, 0, -1)),
        ),
    )
    lhs = AlgebraElement.from_monomials([(1.0, lhs_mono)])
    rhs = AlgebraElement.from_monomials([(1.0, rhs_mono)])
    dev = (realize(lhs, chain) - realize(rhs, chain)).max_abs()
    correction = None
    if dev > 1e-12:
        correction = mono_mul(lhs_mono, mono_adjoint(rhs_mono))
    return BilinearConnection(x=x, y=y, lhs=lhs, rhs=rhs, deviation=dev, correction=correction)
