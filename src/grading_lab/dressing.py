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

from dataclasses import dataclass

from .dense import ChainSpec, action_deviation, action_distance, action_product, action_vdot, adjoint_action, dense_actions
from .weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    matrix_unit,
    mono_adjoint,
    mono_mul,
    phase_value,
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
    """Dressed rank-one unit: the undressed unit |r><s| at x times the charge r - s string.

    Same coefficients as ``matrix_unit``: each of its monomials W_x(k, r - s)
    times the string, which lives off site x, is its dressed counterpart.
    """
    return matrix_unit(params.d, r, s, x) * dressing_string(x, r - s, params, chain)


@dataclass
class ExchangeReport:
    """Oracle reordering data for a pair of dressed matrix units."""

    oracle_phase: complex | None
    residual: float
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
    ground truth.  Each unit is read by ``dense_actions`` and both products
    are composed from those actions (``action_product``), with no block
    formed: the phase is the Hilbert-Schmidt projection of uv on vu
    (``action_vdot``) and the residual the Hilbert-Schmidt norm of
    uv - phase * vu relative to that of vu (``action_distance``).
    """
    if x == y:
        raise ValueError("exchange report requires distinct sites")
    d = params.d
    u = dense_actions(dressed_matrix_unit(x, j, k, params, chain), chain)
    v = dense_actions(dressed_matrix_unit(y, l, n, params, chain), chain)
    uv, vu = action_product(u, v), action_product(v, u)
    nvu = action_distance(vu, [])
    if nvu < 1e-14:
        phase = None
        residual = action_distance(uv, [])
    else:
        phase = complex(action_vdot(vu, uv) / nvu**2)
        residual = action_distance(uv, [(rows, phase * values, q) for rows, values, q in vu]) / nvu
    raw = phase_value(d * (j - k - l + n) * (x - y), d)
    scaled = phase_value((j - k - l + n) * (x - y), d)
    if phase is None:
        status = "DEGENERATE"
    elif abs(phase - raw) < 1e-9 or abs(phase - scaled) < 1e-9:
        status = "MATCH"
    else:
        status = "MISMATCH"
    return ExchangeReport(oracle_phase=phase, residual=residual, status=status)


@dataclass
class ShiftDefect:
    """Local implementer of the shifted-vs-unshifted string rotation."""

    defect: WeylMonomial
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
    defect's action against the explicit ratio of the two rotation strings,
    composed from u_x's action and the adjoint of u_0's, which is read from
    u_0's action, not from ``mono_adjoint``.
    """
    if not 0 < x < chain.L:
        raise ValueError(f"need 0 < x < L, got x={x}, L={chain.L}")
    ux, u0 = _rotation_string(x, params, chain), _rotation_string(0, params, chain)
    defect = mono_mul(ux, mono_adjoint(u0))
    ratio = action_product(dense_actions(ux, chain), [adjoint_action(p) for p in dense_actions(u0, chain)])
    dev = action_deviation(dense_actions(defect, chain), ratio)
    return ShiftDefect(defect=defect, dense_deviation=dev)


@dataclass
class BilinearConnection:
    """How far the claimed undressed expansion is from the charge-balanced dressed bilinear."""

    deviation: float
    correction: WeylMonomial | None


def bilinear_connection(x: int, y: int, params: GradingParams, chain: ChainSpec) -> BilinearConnection:
    """Dressed hopping bilinear versus the claimed spin-side string form.

    lhs = dressed(x, 1) dressed(y, -1) is gauge invariant and supported on
    [x, y].  rhs is the claimed expansion
    W_x(0,1) W_x(1,0)^j+ prod_{x<z<y} W_z(1,0)^(j+ + j-) W_y(1,0)^-j+ W_y(0,-1);
    its dense deviation from lhs, the largest entry of the difference of the
    two monomials' actions, is reported, together with the exact correction
    monomial lhs * rhs^-1.
    """
    if not 0 <= x < y < chain.L:
        raise ValueError(f"need 0 <= x < y < L, got ({x},{y}), L={chain.L}")
    d = params.d
    lhs_mono = mono_mul(
        dressed_weyl(x, 1, params, chain), mono_adjoint(dressed_weyl(y, 1, params, chain))
    )
    # claimed ordered product W_x(0,1) W_x(1,0)^j+ carries the corresponding
    # reordering phase relative to the canonical label form
    rhs_mono = mono_mul(
        mono_mul(WeylMonomial.single(d, x, 0, 1), WeylMonomial.single(d, x, params.j_plus, 0)),
        mono_mul(
            WeylMonomial.from_labels(d, {z: (params.j_plus + params.j_minus, 0) for z in range(x + 1, y)}),
            mono_mul(WeylMonomial.single(d, y, -params.j_plus, 0), WeylMonomial.single(d, y, 0, -1)),
        ),
    )
    dev = action_deviation(dense_actions(lhs_mono, chain), dense_actions(rhs_mono, chain))
    correction = None
    if dev > 1e-12:
        correction = mono_mul(lhs_mono, mono_adjoint(rhs_mono))
    return BilinearConnection(deviation=dev, correction=correction)
