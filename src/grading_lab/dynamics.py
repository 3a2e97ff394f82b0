"""Finite-chain Heisenberg dynamics for the quadratic dressed Hamiltonian.

The Hamiltonian is the charge-balanced hopping form

    H = sum_z sum_x h(x) dressed(z, 1) dressed(z+x, 1)^dag  +  adjoint terms

with every pair kept inside the open chain.  It is gauge invariant and
self-adjoint by construction.  It therefore commutes with the gauge
unitary and splits into d charge sectors of d^(L-1) states each, and every
dense computation uses one cached per-sector eigendecomposition per model.
``heisenberg_evolve`` returns site-basis entries: it conjugates an operator
block by block, sector r to sector c, by the memoised propagator.  The
unitarily invariant commutator-norm series instead rotates both operators
into the per-sector eigenbasis once, where the evolution is an element-wise
phase exp(i (E_m - E_n) t), and takes norms block by block.

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

from .dense import (
    ChainSpec,
    DenseOperator,
    gauge_unitary,
    op_norm,
    realize,
    sector_blocks,
    sector_unblock,
)
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
        self._dense: DenseOperator | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._prop: tuple[float, np.ndarray] | None = None

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
        if self._dense is None:
            self._dense = realize(self.hamiltonian, self.chain)
        return self._dense

    @property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sector eigenvalues (d, m) and eigenvectors (d, m, m), m = d^(L-1).

        Block c is H restricted to the basis states ``chain.sectors()[c]``.
        Raises ValueError unless H is hermitian and maps every charge sector
        into itself.
        """
        if self._eig is None:
            hm = self.dense_hamiltonian.entries
            if float(np.abs(hm - hm.conj().T).max()) > 1e-12:
                raise ValueError("dense Hamiltonian is not hermitian")
            blocked = sector_blocks(hm, self.chain)
            diag = np.arange(self.chain.d)
            blocks = blocked[diag, :, diag, :]
            blocked[diag, :, diag, :] = 0.0
            if float(np.abs(blocked).max()) > 1e-12:
                raise ValueError("dense Hamiltonian mixes charge sectors")
            self._eig = np.linalg.eigh(blocks)
        return self._eig

    def propagator(self, t: float) -> np.ndarray:
        """Stacked sector blocks (d, m, m) of exp(iHt); the last t is memoised."""
        if self._prop is None or self._prop[0] != t:
            vals, vecs = self.eigensystem
            u = (vecs * np.exp(1j * vals * t)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            u.flags.writeable = False  # shared by every caller at this t
            self._prop = (t, u)
        return self._prop[1]

    def eigenbasis_blocks(self, a: DenseOperator) -> dict[tuple[int, int], np.ndarray]:
        """Nonzero sector blocks of a in the per-sector eigenbasis.

        Block (r, c) is V_r^dag A_rc V_c; blocks that are exactly zero in the
        site basis are left out.  In this basis exp(iHt) . exp(-iHt) multiplies
        entry [m, n] of block (r, c) by the phase exp(i (E_r[m] - E_c[n]) t).
        """
        _, vecs = self.eigensystem
        blocks = sector_blocks(a.entries, self.chain)
        return {
            (int(r), int(c)): vecs[r].conj().T @ blocks[r, :, c, :] @ vecs[c]
            for r, c in zip(*np.nonzero(blocks.any(axis=(1, 3))))
        }

    def velocity_bound(self) -> float:
        """Speed bound 2 * sum |h(x)| * |x| of the shipped hopping."""
        return self.hopping.velocity_bound()


def heisenberg_evolve(a: AlgebraElement | DenseOperator, model: QuadraticModel, t: float) -> DenseOperator:
    """Conjugate by exp(iHt): the Heisenberg picture at time t, in the site basis.

    Each block A_rc (rows in sector r, columns in sector c) maps to
    u_r A_rc u_c^dag; blocks that are exactly zero stay zero, so an operator
    of definite charge costs d block conjugations.
    """
    dense = a if isinstance(a, DenseOperator) else realize(a, model.chain)
    u = model.propagator(t)
    blocks = sector_blocks(dense.entries, model.chain)
    for r, c in zip(*np.nonzero(blocks.any(axis=(1, 3)))):
        blocks[r, :, c, :] = u[r] @ blocks[r, :, c, :] @ u[c].conj().T
    return DenseOperator(model.chain, sector_unblock(blocks, model.chain))


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

    The norm is unitarily invariant, so both operators are rotated once into
    the per-sector eigenbasis (``QuadraticModel.eigenbasis_blocks``), where
    tau_t is an element-wise phase and the commutator is formed block by
    block.  When no two commutator blocks share a row sector or a column
    sector, as for any pair of definite charge, the norm is the largest
    block norm; otherwise it is the norm of the assembled matrix.
    """
    at = model.eigenbasis_blocks(realize(a, model.chain))
    bt = model.eigenbasis_blocks(realize(b, model.chain))
    vals, _ = model.eigensystem
    d, m = vals.shape
    # block (r, c) of A B sums A_rk B_kc over k, and likewise for B A
    ab = [(r, k, c) for r, k in at for k2, c in bt if k == k2]
    ba = [(r, k, c) for r, k in bt for k2, c in at if k == k2]
    keys = sorted({(r, c) for r, _, c in ab + ba})
    disjoint = len({r for r, _ in keys}) == len(keys) == len({c for _, c in keys})
    pts = []
    for t in sorted(float(t) for t in t_grid):
        ph = np.exp(1j * t * vals)
        a_t = {(r, c): ph[r][:, None] * blk * ph[c].conj() for (r, c), blk in at.items()}
        comm = {key: np.zeros((m, m), dtype=complex) for key in keys}
        for r, k, c in ab:
            comm[r, c] += a_t[r, k] @ bt[k, c]
        for r, k, c in ba:
            comm[r, c] -= bt[r, k] @ a_t[k, c]
        if disjoint:
            norm = max((op_norm(blk) for blk in comm.values()), default=0.0)
        else:
            full = np.zeros((d, m, d, m), dtype=complex)
            for (r, c), blk in comm.items():
                full[r, :, c, :] = blk
            norm = op_norm(full.reshape(d * m, d * m))
        pts.append(DecayPoint(t=t, norm=norm))
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
    lhs_d = realize(lhs, chain).entries
    devs = [float(np.abs(lhs_d - realize(c, chain).entries).max()) for c in candidates]
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

    if 0 < z < x:
        lhs = big_b.commutator(dressed_weyl(z, 1, pr, ch).as_element())
        string = WeylMonomial.single(d, z, pr.j_plus + pr.j_minus, 0).as_element()
        rhs = string.commutator(dressed_weyl(z, 1, pr, ch).as_element()).scale(
            cmath.exp(2j * cmath.pi * (pr.j_plus + pr.j_minus) / d)
        )
        rows.append(_compare_claim("midpoint_reduction", ptag, lhs, [rhs], ch))
    else:
        lhs = big_b.commutator(dressed_weyl(z, 1, pr, ch).as_element())
        rows.append(
            AuditRow(
                claim_id="midpoint_vanishing",
                params=ptag,
                status="MATCH" if realize(lhs, ch).max_abs() <= 1e-12 else "MISMATCH",
                deviation=realize(lhs, ch).max_abs(),
                payload=str(lhs.prune(1e-12)),
            )
        )

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
    target = realize(model.hamiltonian.commutator(smear(f, pr, ch)).scale(1j), ch).entries
    tnorm = float(np.linalg.norm(target))
    coeffs: dict[tuple[int, int], complex] = {}
    if tnorm == 0.0:
        return 0.0, coeffs
    dim = ch.dim
    proj = np.zeros_like(target)
    for xx in range(ch.L):
        for j in range(pr.d):
            basis = realize(dressed_weyl_rs(xx, j, 1, pr, ch), ch).entries
            c = complex(np.vdot(basis, target) / dim)
            if abs(c) > 1e-15:
                coeffs[(xx, j)] = c
                proj += c * basis
    residual = float(np.linalg.norm(target - proj) / tnorm)
    return residual, coeffs


@dataclass
class ReconstructionReport:
    site: int
    t: float
    deviation: float
    deviation_reversed: float


def reconstruct_spin_evolution(model: QuadraticModel, t: float, site: int | None = None) -> ReconstructionReport:
    """Evolve the bare clock generator directly and as a dressed product.

    The identity W_x(1, 0) = exp(2i*pi/d) dressed(x, 0, 1) dressed_rs(x, 1, -1)
    holds exactly (the strings cancel), so the two evolutions agree up to
    the multiplicativity error of the dense propagator.
    """
    ch, pr = model.chain, model.params
    if site is None:
        site = ch.L // 2
    from .weyl import commutation_phase

    ma = dressed_weyl(site, 1, pr, ch)
    mb = dressed_weyl_rs(site, 1, -1, pr, ch)
    lhs = heisenberg_evolve(WeylMonomial.single(ch.d, site, 1, 0).as_element(), model, t).entries
    fa = heisenberg_evolve(ma.as_element(), model, t).entries
    fb = heisenberg_evolve(mb.as_element(), model, t).entries
    phase = cmath.exp(2j * cmath.pi / ch.d)
    dev = float(np.abs(lhs - phase * fa @ fb).max())
    # a.b = exp(2i*pi*c/d) b.a fixes the phase of the reversed factor order
    exch = cmath.exp(2j * cmath.pi * commutation_phase(ma, mb) / ch.d)
    dev_rev = float(np.abs(lhs - phase * exch * fb @ fa).max())
    return ReconstructionReport(site=site, t=t, deviation=dev, deviation_reversed=dev_rev)


def gauge_invariance_defect(model: QuadraticModel) -> float:
    """Operator norm of [H, G] for the global gauge unitary G."""
    g = gauge_unitary(model.chain)
    return op_norm(model.dense_hamiltonian.commutator(g))
