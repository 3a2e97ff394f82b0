"""Exact symbolic algebra of multi-site qudit clock/shift (Weyl) monomials.

A single-site generator ``W(k, l)`` carries a clock exponent ``k`` and a
shift exponent ``l``, both mod ``d``, and obeys the multiplication rule

    W(k, l) W(m, n) = exp(i*pi*(k*n - l*m)/d) W(k+m, l+n),   W(d, 0) = 1.

All scalar prefactors are 2d-th roots of unity and are tracked as integer
exponents ``q`` mod ``2d`` (the scalar is ``exp(i*pi*q/d)``), so monomial
arithmetic is exact.  An exponent becomes a complex number only through
``phase_value``, which reads the one cached table ``roots(d)``.  The
concrete matrix convention used by the dense layer assigns ``W(1, 0)`` to
the diagonal clock matrix and ``W(0, 1)`` to the cyclic shift matrix; the
formula ``W(k, l) = exp(-i*pi*k*l/d) Z^k X^l`` reproduces the rule above
for all integer exponents.

Multi-site monomials are tensor products over a site -> (k, l) map; sites
not listed carry the identity.  Finite linear combinations are held in
``AlgebraElement`` with plain complex coefficients keyed by phase-stripped
monomials.
"""

from __future__ import annotations

import bisect
import cmath
import functools
from dataclasses import dataclass


@functools.cache
def roots(d: int) -> tuple[complex, ...]:
    """exp(i*pi*q/d) for q = 0..2d-1, the one table of every phase value.

    Only the angles in [0, pi/2] are evaluated, the quarter turn exactly as
    i; the rest follow by negation and conjugation, so w^(q+d) = -w^q and
    w^(2d-q) = conj(w^q) hold exactly and 1, i, -1, -i are exact.
    """
    quarter = [1j if 2 * q == d else cmath.exp(1j * cmath.pi * q / d) for q in range(d // 2 + 1)]
    half = quarter + [-quarter[d - q].conjugate() for q in range(d // 2 + 1, d)]
    return tuple(half + [-w for w in half])


def phase_value(q: int, d: int) -> complex:
    """Numeric value exp(i*pi*q/d) of a phase exponent, read from ``roots(d)``."""
    return roots(d)[q % (2 * d)]


@dataclass(frozen=True)
class WeylMonomial:
    """A scalar phase times a product of single-site Weyl generators.

    ``sites`` is a tuple of ``(site, (k, l))`` sorted by site, with both
    labels canonical in [0, d) and the trivial label (0, 0) omitted.
    ``phase`` is the exponent q of the scalar exp(i*pi*q/d), 0 <= q < 2d.
    """

    d: int
    sites: tuple[tuple[int, tuple[int, int]], ...]
    phase: int = 0

    @staticmethod
    def identity(d: int, phase: int = 0) -> "WeylMonomial":
        return WeylMonomial(d, (), phase % (2 * d))

    @staticmethod
    def from_labels(d: int, labels: dict[int, tuple[int, int]], phase: int = 0) -> "WeylMonomial":
        """Build a monomial from raw integer labels, canonicalizing everything.

        Each label (k, l) is reduced to (k mod d, l mod d), and the phase
        exponent takes the adjustment k' l' - k l that the multiplication rule
        with W(d, 0) = W(0, d) = 1 gives; a label that reduces to (0, 0) is
        dropped.
        """
        if d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {d}")
        q = phase
        kept = []
        for x in sorted(labels):
            k, l = labels[x]
            kc, lc = k % d, l % d
            q += kc * lc - k * l
            if kc or lc:
                kept.append((x, (kc, lc)))
        return WeylMonomial(d, tuple(kept), q % (2 * d))

    @staticmethod
    def single(d: int, site: int, k: int, l: int, phase: int = 0) -> "WeylMonomial":
        return WeylMonomial.from_labels(d, {site: (k, l)}, phase)

    # -- queries ---------------------------------------------------------

    def labels(self) -> dict[int, tuple[int, int]]:
        return dict(self.sites)

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.sites)

    def charge(self) -> int:
        """Total shift charge: sum of shift exponents mod d."""
        return sum(l for _, (_, l) in self.sites) % self.d

    def key(self) -> tuple:
        """Phase-stripped identity of the monomial, used as element key."""
        return self.sites

    def phase_factor(self) -> complex:
        return phase_value(self.phase, self.d)

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "WeylMonomial") -> "WeylMonomial":
        return mono_mul(self, other)

    def adjoint(self) -> "WeylMonomial":
        return mono_adjoint(self)

    def pow(self, s: int) -> "WeylMonomial":
        if s < 0:
            return self.adjoint().pow(-s)
        out = WeylMonomial.identity(self.d)
        for _ in range(s):
            out = mono_mul(out, self)
        return out

    def as_element(self) -> "AlgebraElement":
        return AlgebraElement(self.d, {self.sites: self.phase_factor()})

    def __str__(self) -> str:
        body = " ".join(f"W_{x}({k},{l})" for x, (k, l) in self.sites) or "1"
        return f"e^(i*pi*{self.phase}/{self.d}) {body}"


def mono_mul(a: WeylMonomial, b: WeylMonomial) -> WeylMonomial:
    """Product of two monomials with exact phase bookkeeping.

    Both site lists are sorted, so b's labels are merged into a's in one
    pass.  A site that one factor carries keeps its canonical label; a site
    that both carry adds the symplectic term k_a l_b - l_a k_b to the phase
    exponent and takes the summed label, reduced as ``from_labels`` reduces
    it, and is dropped when it cancels to (0, 0).
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} != {b.d}")
    d = a.d
    q = a.phase + b.phase
    sa, sb = a.sites, b.sites
    na, nb = len(sa), len(sb)
    sites = []
    i = j = 0
    while i < na and j < nb:
        xa, xb = sa[i][0], sb[j][0]
        if xa < xb:
            sites.append(sa[i])
            i += 1
        elif xb < xa:
            sites.append(sb[j])
            j += 1
        else:
            (ka, la), (kb, lb) = sa[i][1], sb[j][1]
            k, l = ka + kb, la + lb
            kc, lc = k % d, l % d
            q += ka * lb - la * kb + kc * lc - k * l
            if kc or lc:
                sites.append((xa, (kc, lc)))
            i += 1
            j += 1
    sites += sa[i:]
    sites += sb[j:]
    return WeylMonomial(d, tuple(sites), q % (2 * d))


def mono_adjoint(a: WeylMonomial) -> WeylMonomial:
    """Adjoint (= inverse) of a unitary monomial: labels and phase negated."""
    lab = {x: (-k, -l) for x, (k, l) in a.sites}
    return WeylMonomial.from_labels(a.d, lab, -a.phase)


def commutation_phase(a: WeylMonomial, b: WeylMonomial) -> int:
    """Exchange exponent c with a.b = exp(2i*pi*c/d) b.a, computed exactly.

    The symplectic form sums k_a*l_b - l_a*k_b over shared sites; operators
    on disjoint sites commute.  The form is antisymmetric, so the shorter
    site list is walked and each of its sites is bisected in the longer one
    (``sites`` is sorted).
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} != {b.d}")
    short, longer, sign = (a.sites, b.sites, 1) if len(a.sites) <= len(b.sites) else (b.sites, a.sites, -1)
    c = 0
    for x, (ks, ls) in short:
        i = bisect.bisect_left(longer, (x,))
        if i < len(longer) and longer[i][0] == x:
            kl, ll = longer[i][1]
            c += ks * ll - ls * kl
    return sign * c % a.d


@dataclass(frozen=True)
class GradingParams:
    """Dimension and the two half-line string exponents of the dressing."""

    d: int
    j_plus: int = 1
    j_minus: int = 1

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "j_plus", self.j_plus % self.d)
        object.__setattr__(self, "j_minus", self.j_minus % self.d)


class AlgebraElement:
    """Finite complex-linear combination of phase-stripped Weyl monomials."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[tuple, complex] | None = None):
        self.d = d
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(d: int) -> "AlgebraElement":
        return AlgebraElement(d, {})

    @staticmethod
    def identity(d: int) -> "AlgebraElement":
        return AlgebraElement(d, {(): 1.0 + 0j})

    @staticmethod
    def from_monomials(pairs, d: int | None = None) -> "AlgebraElement":
        """Combine ``(coefficient, monomial)`` pairs, folding monomial phases."""
        pairs = list(pairs)
        if d is None:
            if not pairs:
                raise ValueError("cannot infer dimension from no terms")
            d = pairs[0][1].d
        out: dict[tuple, complex] = {}
        for c, m in pairs:
            if m.d != d:
                raise ValueError(f"dimension mismatch: {m.d} != {d}")
            key = m.key()
            out[key] = out.get(key, 0j) + c * m.phase_factor()
        return AlgebraElement(d, out)

    # -- structure -------------------------------------------------------

    def monomials(self):
        """Iterate ``(coefficient, WeylMonomial)`` with phase exponent 0."""
        for key, c in self.terms.items():
            yield c, WeylMonomial(self.d, key, 0)

    def support(self) -> tuple[int, ...]:
        s = set()
        for key in self.terms:
            s.update(x for x, _ in key)
        return tuple(sorted(s))

    def charges(self) -> set[int]:
        """Set of shift charges carried by the stored monomials."""
        return {WeylMonomial(self.d, key, 0).charge() for key in self.terms}

    def is_gauge_invariant(self, tol: float = 0.0) -> bool:
        return all(
            WeylMonomial(self.d, key, 0).charge() == 0
            for key, c in self.terms.items()
            if abs(c) > tol
        )

    def prune(self, tol: float) -> "AlgebraElement":
        return AlgebraElement(self.d, {k: v for k, v in self.terms.items() if abs(v) > tol})

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0j) + v
        return AlgebraElement(self.d, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "AlgebraElement":
        return AlgebraElement(self.d, {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, float, complex)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if isinstance(other, WeylMonomial):
            other = other.as_element()
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out: dict[tuple, complex] = {}
        for ka, ca in self.terms.items():
            ma = WeylMonomial(self.d, ka, 0)
            for kb, cb in other.terms.items():
                m = mono_mul(ma, WeylMonomial(self.d, kb, 0))
                key = m.key()
                out[key] = out.get(key, 0j) + ca * cb * m.phase_factor()
        return AlgebraElement(self.d, out)

    def adjoint(self) -> "AlgebraElement":
        out: dict[tuple, complex] = {}
        for key, c in self.terms.items():
            m = mono_adjoint(WeylMonomial(self.d, key, 0))
            out[m.key()] = out.get(m.key(), 0j) + c.conjugate() * m.phase_factor()
        return AlgebraElement(self.d, out)

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        """[A, B] with one product per pair of monomials that do not commute.

        For monomials with a.b = exp(2i*pi*c/d) b.a (``commutation_phase``),
        b.a = exp(-2i*pi*c/d) a.b, so the pair contributes
        (1 - exp(-2i*pi*c/d)) a.b, the phase read by ``phase_value``, and
        nothing when c = 0.
        """
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        d = self.d
        out: dict[tuple, complex] = {}
        others = [(WeylMonomial(d, kb, 0), cb) for kb, cb in other.terms.items()]
        for ka, ca in self.terms.items():
            ma = WeylMonomial(d, ka, 0)
            for mb, cb in others:
                c = commutation_phase(ma, mb)
                if c:
                    m = mono_mul(ma, mb)
                    key = m.key()
                    out[key] = out.get(key, 0j) + ca * cb * (1 - phase_value(-2 * c, d)) * m.phase_factor()
        return AlgebraElement(d, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            body = " ".join(f"W_{x}({k},{l})" for x, (k, l) in key) or "1"
            bits.append(f"({self.terms[key]:.6g})*{body}")
        return " + ".join(bits)


def matrix_unit(d: int, r: int, s: int, site: int) -> AlgebraElement:
    """Rank-one unit |r><s| at one site as a d-term Weyl combination.

    With the clock/shift matrix convention of the dense layer,

        |r><s| = (1/d) * sum_k exp(-i*pi*k*(r+s)/d) W(k, r-s)

    where the raw label (k, r-s) is canonicalized.  The coefficients are
    frozen against the dense oracle in the test suite.
    """
    if not (0 <= r < d and 0 <= s < d):
        raise ValueError(f"matrix-unit indices out of range for d={d}: ({r},{s})")
    pairs = []
    for k in range(d):
        m = WeylMonomial.single(d, site, k, r - s, phase=-k * (r + s))
        pairs.append((1.0 / d, m))
    return AlgebraElement.from_monomials(pairs, d)


def lattice_shift(a: WeylMonomial, n: int) -> WeylMonomial:
    """Relabel every site x -> x+n; the phase is unchanged."""
    return WeylMonomial(a.d, tuple((x + n, kl) for x, kl in a.sites), a.phase)
