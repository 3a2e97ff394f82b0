"""Finite-chain Heisenberg dynamics for the quadratic dressed Hamiltonian.

The Hamiltonian is the charge-balanced hopping form

    H = sum_z sum_x h(x) dressed(z, 1) dressed(z+x, 1)^dag  +  adjoint terms

with every pair kept inside the open chain.  It is gauge invariant and
self-adjoint by construction.  It therefore commutes with the gauge
unitary and splits into d charge sectors of d^(L-1) states each, and every
dense computation uses one cached per-sector eigendecomposition per model,
read from the diagonal charge blocks of the dense H, which it does not keep.
There is one evolution: the charge blocks of an operator are rotated once
into that eigenbasis, where exp(iHt) is the phase table
``QuadraticModel.propagator(t)`` and tau_t multiplies block entry [m, n] by
exp(i (E_m - E_n) t).  A caller with a time grid (``evolve``, the
reconstruction check) rotates each operator once and only phases it per t,
holding one phased copy at a time.
Every step takes and returns a ``DenseOperator``, whose blocks are in the
site basis or, between ``eigenbasis_blocks`` and ``site_blocks``, in the
eigenbasis.  Products, differences and norms are its block-wise methods,
and entrywise checks map the blocks back to the site basis first, so no
evolution or check assembles the full d^L x d^L matrix.

At d = 2 the dressed generators are one-sided Majorana operators and the
model closes on the smeared charge-0 flavor: the induced one-particle flow
is the Fourier multiplier with symbol 8 * h_hat (one factor 2 from the
explicit adjoint sum duplicating each bond, one from the Majorana
normalization gamma^2 = 1, one from folding the odd part of the kernel),
while the orthogonal flavor commutes with H and stays frozen.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dense import ChainSpec, DenseOperator, gauge_unitary, op_norm, realize
from .dressing import dressed_weyl, dressed_weyl_rs
from .oneparticle import Hopping, OneParticleVector
from .weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    mono_adjoint,
    mono_mul,
)

# effective one-particle rate of the d=2 lattice model relative to h_hat
FREE_FLOW_RATE_D2 = 8.0


class QuadraticModel:
    """Chain + grading + hopping with cached symbolic and dense Hamiltonian."""

    def __init__(self, chain: ChainSpec, params: GradingParams, hopping: Hopping):
        if chain.d != params.d:
            raise ValueError("chain and grading dimensions differ")
        if hopping.coefficients and hopping.support_diameter() // 2 >= chain.L:
            raise ValueError("hopping support does not fit in the chain")
        self.chain = chain
        self.params = params
        self.hopping = hopping
        self._hamiltonian: AlgebraElement | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def hamiltonian(self) -> AlgebraElement:
        if self._hamiltonian is None:
            half = AlgebraElement.zero(self.chain.d)
            for x, a in sorted(self.hopping.coefficients.items()):
                for z in range(self.chain.L):
                    if not 0 <= z + x < self.chain.L:
                        continue
                    term = mono_mul(
                        dressed_weyl(z, 1, self.params, self.chain),
                        mono_adjoint(dressed_weyl(z + x, 1, self.params, self.chain)),
                    )
                    half = half + AlgebraElement.from_monomials([(a, term)], self.chain.d)
            self._hamiltonian = half + half.adjoint()
        return self._hamiltonian

    @property
    def dense_hamiltonian(self) -> DenseOperator:
        """H realized on its charge blocks, afresh on each call."""
        return realize(self.hamiltonian, self.chain)

    @property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sector eigenvalues (d, m) and eigenvectors (d, m, m), m = d^(L-1).

        Block c is H restricted to the basis states ``chain.sectors()[c]``.
        Raises ValueError unless H is hermitian and maps every charge sector
        into itself.  H is realized for this call only, so a diagonalised
        model holds the eigenvectors and no copy of H.
        """
        if self._eig is None:
            h = self.dense_hamiltonian
            if (h - h.adjoint()).max_abs() > 1e-12:
                raise ValueError("dense Hamiltonian is not hermitian")
            if DenseOperator(h.chain, {(r, c): blk for (r, c), blk in h.blocks.items() if r != c}).max_abs() > 1e-12:
                raise ValueError("dense Hamiltonian mixes charge sectors")
            zero = np.zeros((self.chain.dim // self.chain.d,) * 2, dtype=complex)
            self._eig = np.linalg.eigh(np.stack([h.blocks.get((c, c), zero) for c in range(self.chain.d)]))
        return self._eig

    def propagator(self, t: float) -> np.ndarray:
        """exp(iHt) in the per-sector eigenbasis: the (d, m) phases exp(iEt)."""
        return np.exp(1j * t * self.eigensystem[0])

    def eigenbasis_blocks(self, a: DenseOperator) -> DenseOperator:
        """The operator a with its charge blocks rotated into the per-sector eigenbasis.

        Block (r, c) is V_r^dag A_rc V_c for each block that a holds.  In this
        basis exp(iHt) . exp(-iHt) multiplies entry [m, n] of block (r, c) by
        the phase exp(i (E_r[m] - E_c[n]) t).  Products, differences and
        ``op_norm`` of operators in this basis are those of the site-basis
        operators, rotated block by block.
        """
        _, vecs = self.eigensystem
        return DenseOperator(a.chain, {(r, c): vecs[r].conj().T @ blk @ vecs[c] for (r, c), blk in a.blocks.items()})

    def site_blocks(self, a: DenseOperator) -> DenseOperator:
        """Inverse of ``eigenbasis_blocks``, block by block: (r, c) maps back to V_r X_rc V_c^dag."""
        _, vecs = self.eigensystem
        return DenseOperator(a.chain, {(r, c): vecs[r] @ blk @ vecs[c].conj().T for (r, c), blk in a.blocks.items()})


def phase_blocks(a: DenseOperator, u: np.ndarray) -> DenseOperator:
    """Evolve an operator held in the eigenbasis by u = ``propagator(t)``.

    Entry [m, n] of block (r, c) gains u[r][m] conj(u[c][n]).  Each phased
    block is one new array, u[r][m] times the input entry and then times
    conj(u[c][n]) in place; the input blocks are left unchanged.
    """
    out = {}
    for (r, c), blk in a.blocks.items():
        phased = u[r][:, None] * blk
        phased *= u[c].conj()
        out[r, c] = phased
    return DenseOperator(a.chain, out)


def heisenberg_evolve(a: AlgebraElement | DenseOperator, model: QuadraticModel, t: float) -> DenseOperator:
    """Conjugate by exp(iHt): the Heisenberg picture at time t, in the site basis.

    The charge blocks are rotated into the eigenbasis, phased and rotated
    back block by block, so an operator of definite charge costs d blocks
    and no full matrix is formed.
    """
    dense = a if isinstance(a, DenseOperator) else realize(a, model.chain)
    return model.site_blocks(phase_blocks(model.eigenbasis_blocks(dense), model.propagator(t)))


def smear(f: OneParticleVector, params: GradingParams, chain: ChainSpec, truncate: bool = False) -> AlgebraElement:
    """Smeared charge-1 field: sum_{x,j} f(x,j) dressed_rs(x, j, 1)."""
    if f.d != params.d:
        raise ValueError("charge index dimension differs from qudit dimension")
    pairs = []
    for j in range(f.d):
        for x in range(f.N):
            a = f.position[j, x]
            if a == 0:
                continue
            if x >= chain.L:
                if truncate:
                    continue
                raise ValueError(f"amplitude at site {x} outside chain 0..{chain.L - 1}")
            pairs.append((a, dressed_weyl_rs(x, j, 1, params, chain)))
    if not pairs:
        return AlgebraElement.zero(params.d)
    return AlgebraElement.from_monomials(pairs, params.d)


def d2_effective_hopping(model: QuadraticModel) -> Hopping:
    """One-particle hopping whose multiplier matches the d=2 dense flow."""
    if model.params.d != 2:
        raise ValueError("the free-flow dictionary is established for d=2 only")
    return model.hopping.scaled(FREE_FLOW_RATE_D2)


@dataclass
class DecayPoint:
    t: float
    norm: float


@dataclass
class DecayResult:
    """Commutator-norm series with gauge metadata, sorted by t."""

    points: list[DecayPoint]
    a_gauge_invariant: bool
    b_gauge_invariant: bool

    @property
    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    @property
    def norms(self) -> np.ndarray:
        return np.array([p.norm for p in self.points])

    def envelope(self) -> np.ndarray:
        """Running maximum over the remaining window."""
        return np.maximum.accumulate(self.norms[::-1])[::-1]


def commutator_decay(
    a: AlgebraElement,
    b: AlgebraElement,
    model: QuadraticModel,
    t_grid,
) -> DecayResult:
    """Series of (t, ||[tau_t(a), b]||) over a sorted time grid.

    The norm is unitarily invariant, and the eigenbasis rotation is block
    diagonal, so both operators are rotated once into the per-sector
    eigenbasis (``QuadraticModel.eigenbasis_blocks``), where tau_t is an
    element-wise phase and the commutator is formed block by block and
    normed there by ``op_norm``.
    """
    at = model.eigenbasis_blocks(realize(a, model.chain))
    bt = model.eigenbasis_blocks(realize(b, model.chain))
    pts = []
    for t in sorted(float(t) for t in t_grid):
        a_t = phase_blocks(at, model.propagator(t))
        pts.append(DecayPoint(t=t, norm=op_norm(a_t.commutator(bt))))
    return DecayResult(
        points=pts,
        a_gauge_invariant=a.is_gauge_invariant(1e-14),
        b_gauge_invariant=b.is_gauge_invariant(1e-14),
    )


@dataclass
class AuditRow:
    """One claimed reduction identity compared against the oracle."""

    claim_id: str
    params: str
    status: str
    deviation: float
    payload: str


def _compare_claim(
    claim_id: str,
    params: str,
    lhs: AlgebraElement,
    candidates: list[AlgebraElement],
    chain: ChainSpec,
    tol: float = 1e-9,
) -> AuditRow:
    lhs_d = realize(lhs, chain)
    devs = [(lhs_d - realize(c, chain)).max_abs() for c in candidates]
    best = min(devs) if devs else float("inf")
    status = "MATCH" if best <= tol else "MISMATCH"
    payload = str(lhs.prune(1e-12))
    return AuditRow(claim_id=claim_id, params=params, status=status, deviation=best, payload=payload)


def claimed_commutator_audit(model: QuadraticModel, x: int, z: int) -> list[AuditRow]:
    """Audit the catalogued commutator reduction claims on one chain.

    The audited claims, for B = dressed(0,-1) dressed(x,1):
      midpoint_reduction   [B, dressed(z,1)] with 0 < z < x reduces to the
                           gauge-string commutator with prefactor
                           exp(2i*pi*(j+ + j-)/d)
      endpoint_reduction_left   [B, dressed(0,1)] = cos(2*pi*j+/d) *
                                W_x(1,0)^j- dressed(x,1)
      endpoint_reduction_right  [B + B^dag, dressed(x,1)] = cos(2*pi*j+/d) *
                                W_x(1,0)^-j- dressed(0,1)
      derivative_closure   i[H_x, dressed(z,1)] matches
                           coeff * (dressed_rs(z+x, 2j+, 1) + dressed_rs(z-x, 2j+, 1))
                           with coeff either cos(2*pi*j+) or cos(2*pi*j+/d)
    The oracle decomposition of each left side rides along as the payload.
    """
    ch, pr = model.chain, model.params
    d = pr.d
    if not 0 < x < ch.L:
        raise ValueError("need 0 < x < L")
    rows: list[AuditRow] = []
    big_b = AlgebraElement.from_monomials(
        [(1.0, mono_mul(mono_adjoint(dressed_weyl(0, 1, pr, ch)), dressed_weyl(x, 1, pr, ch)))], d
    )
    ptag = f"d={d};j+={pr.j_plus};j-={pr.j_minus};x={x};z={z}"

    lhs = big_b.commutator(dressed_weyl(z, 1, pr, ch).as_element())
    if 0 < z < x:
        string = WeylMonomial.single(d, z, pr.j_plus + pr.j_minus, 0).as_element()
        rhs = string.commutator(dressed_weyl(z, 1, pr, ch).as_element()).scale(
            cmath.exp(2j * cmath.pi * (pr.j_plus + pr.j_minus) / d)
        )
        rows.append(_compare_claim("midpoint_reduction", ptag, lhs, [rhs], ch))
    else:
        rows.append(_compare_claim("midpoint_vanishing", ptag, lhs, [AlgebraElement.zero(d)], ch, tol=1e-12))

    coeff = np.cos(2 * np.pi * pr.j_plus / d)
    lhs = big_b.commutator(dressed_weyl(0, 1, pr, ch).as_element())
    rhs = AlgebraElement.from_monomials(
        [(coeff, mono_mul(WeylMonomial.single(d, x, pr.j_minus, 0), dressed_weyl(x, 1, pr, ch)))], d
    )
    rows.append(_compare_claim("endpoint_reduction_left", ptag, lhs, [rhs], ch))

    lhs = (big_b + big_b.adjoint()).commutator(dressed_weyl(x, 1, pr, ch).as_element())
    rhs = AlgebraElement.from_monomials(
        [(coeff, mono_mul(WeylMonomial.single(d, x, -pr.j_minus, 0), dressed_weyl(0, 1, pr, ch)))], d
    )
    rows.append(_compare_claim("endpoint_reduction_right", ptag, lhs, [rhs], ch))

    if 0 <= z - x and z + x < ch.L:
        sep_model = QuadraticModel(ch, pr, Hopping({x: 1.0, -x: 1.0}))
        lhs = sep_model.hamiltonian.commutator(dressed_weyl(z, 1, pr, ch).as_element()).scale(1j)
        targets = AlgebraElement.from_monomials(
            [
                (1.0, dressed_weyl_rs(z + x, 2 * pr.j_plus, 1, pr, ch)),
                (1.0, dressed_weyl_rs(z - x, 2 * pr.j_plus, 1, pr, ch)),
            ],
            d,
        )
        cands = [
            targets.scale(np.cos(2 * np.pi * pr.j_plus)),
            targets.scale(np.cos(2 * np.pi * pr.j_plus / d)),
        ]
        rows.append(_compare_claim("derivative_closure", ptag, lhs, cands, ch))
    return rows


def span_residual(model: QuadraticModel, f: OneParticleVector) -> tuple[float, dict[tuple[int, int], complex]]:
    """Relative residual of i[H, W(f)] outside span{dressed_rs(x, j, 1)}.

    Projection uses the Hilbert-Schmidt inner product; the dressed basis
    operators are unitary monomials with distinct labels, hence mutually
    orthogonal with squared norm d^L.  Residual 0 means the quasifree
    reduction closes exactly on this chain.
    """
    ch, pr = model.chain, model.params
    target = realize(model.hamiltonian.commutator(smear(f, pr, ch)).scale(1j), ch)
    tnorm = float(np.sqrt(target.vdot(target).real))
    coeffs: dict[tuple[int, int], complex] = {}
    if tnorm == 0.0:
        return 0.0, coeffs
    proj = DenseOperator(ch, {})
    for xx in range(ch.L):
        for j in range(pr.d):
            basis = realize(dressed_weyl_rs(xx, j, 1, pr, ch), ch)
            c = basis.vdot(target) / ch.dim
            if abs(c) > 1e-15:
                coeffs[(xx, j)] = c
                proj = proj.sub(basis, -c)
    rest = target - proj
    residual = float(np.sqrt(rest.vdot(rest).real) / tnorm)
    return residual, coeffs


@dataclass
class ReconstructionReport:
    site: int
    t: float
    deviation: float


def reconstruct_spin_evolution(model: QuadraticModel, t_grid, site: int | None = None) -> list[ReconstructionReport]:
    """Evolve the bare clock generator directly and as a dressed product; one report per t.

    The identity W_x(1, 0) = exp(2i*pi/d) dressed(x, 0, 1) dressed_rs(x, 1, -1)
    holds exactly (the strings cancel), so the two evolutions agree up to
    round-off.  Each operator is rotated into the eigenbasis once and phased
    per t, the dressed product is formed block by block there in the factor
    order of the identity only, and the difference is compared entrywise
    over its site-basis sector blocks.  The working set beside the
    eigenvectors is the three rotated operators and one phased copy per t:
    the phased factors are freed once their product exists, and only then
    is the clock phased and the product subtracted from it.
    """
    ch, pr = model.chain, model.params
    if site is None:
        site = ch.L // 2
    ma = dressed_weyl(site, 1, pr, ch)
    mb = dressed_weyl_rs(site, 1, -1, pr, ch)
    clock = WeylMonomial.single(ch.d, site, 1, 0)
    lhs, fa, fb = (model.eigenbasis_blocks(realize(m, ch)) for m in (clock, ma, mb))
    phase = cmath.exp(2j * cmath.pi / ch.d)
    reports = []
    for t in t_grid:
        u = model.propagator(t)
        # the phased factors go once their product exists, the product once
        # it is subtracted and the difference once it is checked
        product = phase_blocks(fa, u) @ phase_blocks(fb, u)
        difference = phase_blocks(lhs, u).sub(product, phase)
        del product
        dev = model.site_blocks(difference).max_abs()
        del difference
        reports.append(ReconstructionReport(site=site, t=float(t), deviation=dev))
    return reports


def gauge_invariance_defect(model: QuadraticModel) -> float:
    """Operator norm of [H, G] for the global gauge unitary G."""
    g = gauge_unitary(model.chain)
    return op_norm(model.dense_hamiltonian.commutator(g))
