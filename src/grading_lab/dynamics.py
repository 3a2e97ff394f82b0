"""Finite-chain Heisenberg dynamics for the quadratic dressed Hamiltonian.

The Hamiltonian is the charge-balanced hopping form

    H = sum_z sum_x h(x) dressed(z, 1) dressed(z+x, 1)^dag  +  adjoint terms

with every pair kept inside the open chain.  It is gauge invariant and
self-adjoint by construction.  It therefore commutes with the gauge
unitary and splits into d charge sectors of d^(L-1) states each.  Every
evolution uses one cached per-sector eigendecomposition per model, read
from the diagonal charge blocks of the dense H, which it does not keep.
It takes one eigh, of sector 0: every H built here commutes with some
charge-1 B_xj (below), a phased permutation U that maps sector c onto
sector c + 1, whose vectors are the row gather U V_c.  An H with no such
U, or whose realized blocks break H_{c+1,c+1} = U H_cc U^dag entrywise,
raises ValueError before any eigh.  There is one evolution: the charge
blocks of an operator are rotated once into that eigenbasis, where
exp(iHt) is the phase table ``QuadraticModel.propagator(t)`` and tau_t
multiplies block entry [m, n] by exp(i (E_m - E_n) t).  Every step takes
and returns a ``DenseOperator``, whose blocks are in the site basis or,
between ``eigenbasis_blocks`` and ``site_blocks``, in the eigenbasis, so
no evolution or check assembles the full d^L x d^L matrix.

The one-particle flow is read from the symbolic H.  For a (d, N) array
f[j, x], zero past the chain, the smeared field W(f) = sum_{x,j} f[j, x] B_xj
lies in the span of B_xj = dressed_rs(x, j, 1), listed once per
(params, chain) by ``span_basis`` in the order k = j * L + x of
f[:, :L].ravel(); when every i[H, B_k] stays in that span, its coefficient
vectors (``span_split``) are the columns of the generator M and
tau_t(W(f)) = W(exp(tM) f) on the open chain.  At
d = 2 this is the Lieb-Schultz-Mattis reduction; at d >= 3 the span is not
invariant and there is no generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dense import ChainSpec, DenseOperator, gauge_unitary, monomial_action, op_norm, realize
from .dressing import dressed_weyl, dressed_weyl_rs
from .oneparticle import Hopping
from .weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    commutation_phase,
    lattice_shift,
    mono_adjoint,
    mono_mul,
    phase_value,
)

class QuadraticModel:
    """Chain + grading + hopping with a cached symbolic Hamiltonian and per-sector eigensystem.

    The dense H is realized afresh on each request and never kept.
    """

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
            pr, L = self.params, self.chain.L
            pairs = []
            for x, a in sorted(self.hopping.coefficients.items()):
                # the two strings cancel outside the bond, so it is built once
                # on |x| + 1 sites and shifted to each of its places
                bond_chain, z0 = ChainSpec(pr.d, abs(x) + 1), max(0, -x)
                bond = mono_mul(dressed_weyl(z0, 1, pr, bond_chain), mono_adjoint(dressed_weyl(z0 + x, 1, pr, bond_chain)))
                pairs += [(a, lattice_shift(bond, z - z0)) for z in range(z0, min(L, L - x))]
            half = AlgebraElement.from_monomials(pairs, pr.d)
            self._hamiltonian = half + half.adjoint()
        return self._hamiltonian

    @property
    def dense_hamiltonian(self) -> DenseOperator:
        """H realized on its charge blocks, afresh on each call."""
        return realize(self.hamiltonian, self.chain)

    def raising_symmetry(self) -> WeylMonomial | None:
        """The first B_xj of ``span_basis`` (each of shift charge 1) that commutes with every monomial of H, or None.

        Exact: ``commutation_phase`` is integer arithmetic.  At d = 2 with
        j+ = j- (mod 2) it is the frozen second-flavour generator at site
        0; the others found are end-site B_xj too.
        """
        basis, _ = span_basis(self.params, self.chain)
        terms = [WeylMonomial(self.chain.d, key, 0) for key in self.hamiltonian.terms]
        return next((b for b in basis if not any(commutation_phase(b, t) for t in terms)), None)

    @property
    def eigensystem(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Per-sector eigenvalues (d, m) and eigenvectors, one m x m array per sector, m = d^(L-1).

        Block c is H restricted to the basis states ``chain.sectors()[c]``.
        Only sector 0 is diagonalised.  Every H that ``hamiltonian`` builds
        commutes with a charge-raising U (``raising_symmetry``), so
        H_{c+1,c+1} = U_{c+1,c} H_cc U_{c+1,c}^dag and sector c + 1 has the
        values of sector c and the vectors U_{c+1,c} V_c, a phased row
        gather.  Raises ValueError, before any eigh, when H has no such U,
        is not hermitian, mixes charge sectors, or breaks that premise
        entrywise on the realized blocks.  H is realized for this call only
        and each diagonal block is freed once it is no longer needed, so a
        diagonalised model holds the eigenvectors and no copy of H.
        """
        if self._eig is None:
            raising = self.raising_symmetry()
            if raising is None:
                raise ValueError("Hamiltonian has no charge-raising symmetry")
            h = self.dense_hamiltonian
            if h.hermiticity_defect() > 1e-12:
                raise ValueError("dense Hamiltonian is not hermitian")
            if DenseOperator(h.chain, {(r, c): blk for (r, c), blk in h.blocks.items() if r != c}).max_abs() > 1e-12:
                raise ValueError("dense Hamiltonian mixes charge sectors")
            d, m = self.chain.d, self.chain.dim // self.chain.d
            diagonal = [h.blocks.pop((c, c), None) for c in range(d)]
            diagonal = [np.zeros((m, m), dtype=complex) if blk is None else blk for blk in diagonal]
            rows, phases = monomial_action(raising, self.chain)
            # U_{c+1,c} as a row gather: row r of U X is gain[c, r] X[source[c, r]]
            source = np.argsort(rows, axis=1)
            gain = np.take_along_axis(phases, source, axis=1)
            for c in range(d - 1):
                want = diagonal[c][np.ix_(source[c], source[c])]
                want *= gain[c][:, None]
                want *= gain[c].conj()
                if np.abs(np.subtract(want, diagonal[c + 1], out=want)).max() > 1e-12:
                    raise ValueError("dense Hamiltonian does not commute with its charge-raising symmetry")
                del want
            del diagonal[1:]
            w, v = np.linalg.eigh(diagonal.pop())
            vectors = [v]
            for c in range(1, d):
                v = vectors[-1][source[c - 1]]
                v *= gain[c - 1][:, None]
                vectors.append(v)
            self._eig = np.array([w] * d), tuple(vectors)
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


@functools.cache
def span_basis(params: GradingParams, chain: ChainSpec) -> tuple[tuple[WeylMonomial, ...], MappingProxyType]:
    """The d * L monomials B_xj = dressed_rs(x, j, 1) in index order k = j * L + x, and a read-only key -> k index."""
    basis = tuple(dressed_weyl_rs(x, j, 1, params, chain) for j in range(params.d) for x in range(chain.L))
    return basis, MappingProxyType({b.key(): k for k, b in enumerate(basis)})


def _chain_vector(f: np.ndarray, d: int, n: int) -> np.ndarray:
    """The (d, N) array f[j, x] as the length-n vector f[:, :L].ravel() over ``span_basis``, L = n / d.

    ValueError unless f has d rows, d divides n, N >= L and f is 0 past site L - 1.
    """
    f = np.asarray(f, dtype=complex)
    L = n // d
    if f.ndim != 2 or len(f) != d or d * L != n:
        raise ValueError(f"amplitudes of shape {f.shape} do not fill {n} modes of {d} flavours")
    if f.shape[1] < L:
        raise ValueError(f"amplitudes on {f.shape[1]} sites, chain has {L}")
    outside = np.flatnonzero(f[:, L:].any(axis=0))
    if outside.size:
        raise ValueError(f"amplitude at site {L + outside[0]} outside chain 0..{L - 1}")
    return f[:, :L].reshape(-1)


def smear(f: np.ndarray, params: GradingParams, chain: ChainSpec) -> AlgebraElement:
    """Smeared charge-1 field of the (d, N) array f: sum_k f_k B_k over the B_k of ``span_basis``."""
    basis, _ = span_basis(params, chain)
    pairs = [(a, b) for a, b in zip(_chain_vector(f, params.d, len(basis)), basis) if a != 0]
    return AlgebraElement.from_monomials(pairs, params.d)


def span_split(a: AlgebraElement, params: GradingParams, chain: ChainSpec) -> tuple[np.ndarray, float]:
    """Coefficients of a on the B_k of ``span_basis``, a length-d*L vector, and the weight of a outside their span.

    Distinct monomials are Hilbert-Schmidt orthogonal with squared norm d^L, so
    both are read from the labels through the key index of ``span_basis``:
    c_k is the coefficient at the label of B_k over the phase of B_k, and
    the weight ||rest||^2 / d^L sums |coefficient|^2 over every other label.
    Nothing is built or realized.
    """
    basis, index = span_basis(params, chain)
    coeffs = np.zeros(len(basis), dtype=complex)
    for key, c in a.terms.items():
        if key in index:
            coeffs[index[key]] = c / basis[index[key]].phase_factor()
    return coeffs, sum(abs(c) ** 2 for key, c in a.terms.items() if key not in index)


def generator(model: QuadraticModel) -> np.ndarray | None:
    """M with i[H, B_k] = sum_k' M[k', k] B_k', B_k the k-th monomial of ``span_basis``, each column read by ``span_split``.

    None when some i[H, B_k] has weight outside the span: at d >= 3 for any
    hopping between distinct sites, and at d = 2 with j_plus != j_minus
    (mod 2) for one with a real part (H then holds Re h alone, which moves
    the flavour-1 generators out of the span).
    """
    ch, pr = model.chain, model.params
    basis, _ = span_basis(pr, ch)
    m = np.zeros((len(basis),) * 2, dtype=complex)
    for k, b in enumerate(basis):
        m[:, k], outside = span_split(model.hamiltonian.commutator(b.as_element()).scale(1j), pr, ch)
        if outside:
            return None
    return m


def one_particle_flow(m: np.ndarray, f: np.ndarray, t_grid) -> list[np.ndarray]:
    """exp(tM) f on the chain of M, one (d, L) array per t, from one eigh of iM (M antihermitian to 1e-12, as i ad_H is).

    f is a (d, N) array, d dividing the order d * L of M, checked as ``smear`` checks it.
    """
    if np.abs(m + m.conj().T).max() > 1e-12:
        raise ValueError("one-particle generator is not antihermitian")
    f0 = _chain_vector(f, len(f), len(m))
    w, v = np.linalg.eigh(1j * m)
    c0 = v.conj().T @ f0
    return [(v @ (np.exp(-1j * t * w) * c0)).reshape(len(f), -1) for t in t_grid]


@dataclass
class DecayResult:
    """Commutator norms at sorted times, with gauge metadata."""

    times: np.ndarray
    norms: np.ndarray
    a_gauge_invariant: bool
    b_gauge_invariant: bool


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
    times = np.array(sorted(float(t) for t in t_grid))
    norms = np.array([op_norm(phase_blocks(at, model.propagator(t)).commutator(bt)) for t in times])
    return DecayResult(
        times=times,
        norms=norms,
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
            phase_value(2 * (pr.j_plus + pr.j_minus), d)
        )
        rows.append(_compare_claim("midpoint_reduction", ptag, lhs, [rhs], ch))
    else:
        rows.append(_compare_claim("midpoint_vanishing", ptag, lhs, [AlgebraElement.zero(d)], ch, tol=1e-12))

    coeff = phase_value(2 * pr.j_plus, d).real
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
            targets.scale(phase_value(2 * d * pr.j_plus, d).real),
            targets.scale(coeff),
        ]
        rows.append(_compare_claim("derivative_closure", ptag, lhs, cands, ch))
    return rows


def span_residual(model: QuadraticModel, f: np.ndarray) -> tuple[float, np.ndarray]:
    """Relative Hilbert-Schmidt residual of i[H, W(f)] outside span{dressed_rs(x, j, 1)}, and its coefficient vector on it.

    Read from the labels by ``span_split``.  Residual 0 means the quasifree
    reduction closes exactly on this chain.
    """
    ch, pr = model.chain, model.params
    target = model.hamiltonian.commutator(smear(f, pr, ch)).scale(1j)
    coeffs, outside = span_split(target, pr, ch)
    total = sum(abs(c) ** 2 for c in target.terms.values())
    return (float(np.sqrt(outside / total)) if total else 0.0), coeffs


def reconstruct_spin_evolution(model: QuadraticModel) -> float:
    """Check the clock generator at site L // 2 against its dressed product: one deviation per model.

    The identity W_x(1, 0) = exp(2i*pi/d) dressed(x, 0, 1) dressed_rs(x, 1, -1)
    holds exactly (the strings cancel), so the deviation is round-off.
    tau_t is conjugation by the one unitary exp(iHt), so the Hilbert-Schmidt
    norm of tau_t(W) - omega tau_t(a) tau_t(b) is that of W - omega a b at
    every t and in every orthonormal basis: the one value returned holds for
    every t, and it is taken in the site basis, with no diagonalisation.  It
    compares two independent computations, the realized W against the
    block-wise product of the realized factors, and bounds the operator norm
    and hence every entry.  The factors are freed once their product exists,
    and only then is W realized.
    """
    ch, pr = model.chain, model.params
    site = ch.L // 2
    fa = realize(dressed_weyl(site, 1, pr, ch), ch)
    fb = realize(dressed_weyl_rs(site, 1, -1, pr, ch), ch)
    product = fa @ fb
    del fa, fb
    difference = realize(WeylMonomial.single(ch.d, site, 1, 0), ch).sub(product, phase_value(2, ch.d))
    return float(np.sqrt(difference.vdot(difference).real))


def gauge_invariance_defect(model: QuadraticModel) -> float:
    """Operator norm of [H, G] for the global gauge unitary G."""
    g = gauge_unitary(model.chain)
    return op_norm(model.dense_hamiltonian.commutator(g))
