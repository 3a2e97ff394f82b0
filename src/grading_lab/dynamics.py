"""Finite-chain Heisenberg dynamics for the quadratic dressed Hamiltonian.

The Hamiltonian is the charge-balanced hopping form

    H = sum_z sum_x h(x) dressed(z, 1) dressed(z+x, 1)^dag  +  adjoint terms

with every pair kept inside the open chain.  It is gauge invariant and
self-adjoint by construction.  It therefore commutes with the gauge
unitary and splits into d charge sectors of d^(L-1) states each.  Every
evolution uses one cached eigendecomposition per model, written straight
from H's monomials; the dense H is never realized for it.  The
charge-0 products U_a^dag U_b of two charge-1 B_xj (below) that commute
with H commute with it as well; a group G of them
(``QuadraticModel.block_symmetries``) splits every charge sector into its
joint eigenspaces, one eigh of d^(L-1) / |G| states each.  An H with no
monomials commutes with every B_xj and gets G = d^(L-1), one state per
joint eigenspace; G = 1, one eigh per sector, arises only when no two
B_xj commute with H.  The eigenbasis stays split: an ``Eigensystem``
holds G's orbits, its character table and one eigenvector block per
joint eigenspace, never an m x m array unless G = 1.  An H with
a monomial that fails to commute with a generator of G, its monomial
action composed with the generator's both ways, raises ValueError before
any eigh.  There is one evolution: an
element is written once into that eigenbasis
(``QuadraticModel.eigenbasis_blocks``), one block per pair of joint
eigenspaces it links, since each of its monomials carries one character of
G; there exp(iHt) is the phase table ``QuadraticModel.propagator(t)`` and
tau_t multiplies block entry [m, n] by exp(i (E_m - E_n) t).  Every step
takes and returns a ``DenseOperator``, whose blocks are charge blocks in the
site basis or, from ``eigenbasis_blocks`` on, blocks of joint eigenspaces;
only ``heisenberg_evolve`` maps the latter back, through
``Eigensystem.columns``, and no evolution or check assembles the full
d^L x d^L matrix.

The one-particle flow is read from the symbolic H.  For a (d, N) array
f[j, x], zero past the chain, the smeared field W(f) = sum_{x,j} f[j, x] B_xj
lies in the span of B_xj = dressed_rs(x, j, 1), listed once per
(params, chain) by ``span_basis`` in the order k = j * L + x of
f[:, :L].ravel(); when every i[H, B_k] stays in that span, its coefficient
vectors (``span_split``) are the columns of the generator M and
tau_t(W(f)) = W(exp(tM) f) on the open chain.  At
d = 2 this is the Lieb-Schultz-Mattis reduction; at d >= 3 the span is not
invariant and there is no generator.  W(f) is linear in f, so
``eigenbasis_fields`` writes the fields of many f into the eigenbasis from
each B_k rotated once.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dense import (
    ChainSpec,
    DenseOperator,
    action_deviation,
    action_distance,
    compose,
    dense_actions,
    dense_element,
    monomial_action,
    op_norm,
    realize,
)
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
    roots,
)

class QuadraticModel:
    """Chain + grading + hopping with a cached symbolic Hamiltonian and per-sector eigensystem.

    The eigensystem is written from H's monomials; the dense H is realized
    only on request (``dense_hamiltonian``), afresh each time, and never kept.
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
        self._eig: Eigensystem | None = None

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

    def block_symmetries(self) -> tuple[WeylMonomial, ...]:
        """Generators S_1..S_r of a group G of d^r charge-0 monomials that commute with H and with each other.

        Each S_i is a product U_a^dag U_b of two B_xj of ``span_basis`` (each
        of shift charge 1) that commute with every monomial of H.  The pairs
        a < b of those B_xj are walked in basis order and one is kept when it
        commutes with every S already kept and its shift vector adds d new
        cosets to the group the kept ones span (n l is outside it for
        n = 1..d-1), so the d^r products have distinct shift vectors: G moves
        every basis state and each orbit holds d^r states.  S^d is the
        identity monomial times +-1; where it is -1 the phase exponent is
        lowered by 1, so S_i^d = 1 and the joint eigenvalues are d-th roots of
        unity.  Every B_xj commutes with an H with no monomials, and G
        reaches the size m of a sector, one state per joint eigenspace; an
        H with no two such B_xj keeps none (G = 1), and ``eigensystem`` runs
        one eigh per sector.  Exact: every step is integer label
        arithmetic.  Dense chains only
        (``ChainSpec.check_dense``), since the shift vectors of G are listed
        and G is at most the size of a charge sector.
        """
        self.chain.check_dense()
        d, L = self.chain.d, self.chain.L
        basis, _ = span_basis(self.params, self.chain)
        terms = [WeylMonomial(d, key, 0) for key in self.hamiltonian.terms]
        raisers = [b for b in basis if not any(commutation_phase(b, t) for t in terms)]
        kept: list[WeylMonomial] = []
        shifts = {(0,) * L}
        for a, ua in enumerate(raisers):
            for ub in raisers[a + 1 :]:
                s = mono_mul(mono_adjoint(ua), ub)
                if any(commutation_phase(s, k) for k in kept):
                    continue
                labels = s.labels()
                multiples = [tuple(n * labels.get(x, (0, 0))[1] % d for x in range(L)) for n in range(d)]
                if any(v in shifts for v in multiples[1:]):
                    continue
                shifts = {tuple((p + q) % d for p, q in zip(v, n_l)) for v in shifts for n_l in multiples}
                kept.append(s if s.pow(d).phase == 0 else WeylMonomial(d, s.sites, (s.phase - 1) % (2 * d)))
        return tuple(kept)

    @property
    def eigensystem(self) -> Eigensystem:
        """The eigenbasis of every sector, held on the joint eigenspaces of G (``Eigensystem``).

        Block c of H is H restricted to the basis states
        ``chain.sectors()[c]``.  The group G of ``block_symmetries`` has charge
        0, so it maps every sector onto itself and splits it into its joint
        eigenspaces.  H is not realized: each block <o, k|H|o', k> of
        m / |G| states is summed from H's monomials on the orbit bases
        (``_orbit_sums``, as ``eigenbasis_blocks`` sums an element, here with
        q = 0, psi = 0 and no rotation) and takes one eigh.  Raises
        ValueError, before any eigh, when a monomial of H has nonzero shift
        charge (H mixes charge sectors), when a monomial's action and a
        generator's, composed both ways, do not commute
        (``_commuting_actions``), or when the adapted blocks'
        ``DenseOperator.hermiticity_defect`` exceeds 1e-12.  A diagonalised
        model holds the factored eigenbasis and no copy of H.
        """
        if self._eig is None:
            h = dense_element(self.hamiltonian, self.chain)
            if any(mono.charge() for _, mono in h.monomials()):
                raise ValueError("Hamiltonian mixes charge sectors")
            orbits = _orbits(self.block_symmetries(), self.chain)
            sums = _orbit_sums(_commuting_actions(h, orbits.symmetries, self.chain), orbits)
            d, group, size = orbits.states.shape
            key = (0,) * (1 + len(orbits.symmetries))
            blocks = sums[key][1] if key in sums else np.zeros((d, group, size, size), dtype=complex)
            adapted = DenseOperator(self.chain, {(c * group + k,) * 2: blocks[c, k] for c in range(d) for k in range(group)})
            if adapted.hermiticity_defect() > 1e-12:
                raise ValueError("Hamiltonian is not hermitian")
            values = np.empty((d, group * size))
            for c in range(d):
                for k in range(group):
                    # each block is overwritten by its eigenvectors
                    values[c, k * size : (k + 1) * size], blocks[c, k] = np.linalg.eigh(blocks[c, k])
            self._eig = Eigensystem(**vars(orbits), values=values, vectors=blocks)
        return self._eig

    def propagator(self, t: float) -> np.ndarray:
        """exp(iHt) in the eigenbasis: the (d, m) phases exp(iEt), in the (character, level) order of ``Eigensystem.values``."""
        return np.exp(1j * t * self.eigensystem.values)

    def eigenbasis_blocks(self, a: AlgebraElement | WeylMonomial) -> DenseOperator:
        """The element a in the eigenbasis: one n x n block (n = m / G) per pair of joint eigenspaces it links.

        The monomials of a are summed on the orbit bases of ``Eigensystem``
        by their (shift charge q, character psi) (``_orbit_sums``), and each
        sum, which maps eigenspace k of sector c into eigenspace k + psi of
        sector c + q, is rotated once, R_(k+psi)^dag X R_k, so no m x m array
        is formed unless G = 1.  Block (c + q) * G + k + psi, c * G + k is
        that of ``DenseOperator``: G = 1 gives the charge blocks (c + q, c).
        Blocks that come out exactly zero are left out, and a is checked as
        ``realize`` checks it.  In this basis exp(iHt) . exp(-iHt) multiplies
        entry [m, n] of a block by exp(i (E[m] - E[n]) t), and products,
        differences and ``op_norm`` are those of the site-basis operators.
        """
        a = dense_element(a, self.chain)
        eig = self.eigensystem
        d, group = self.chain.d, len(eig.chars)
        sums = _orbit_sums(((coeff, mono, *monomial_action(mono, self.chain)) for coeff, mono in a.monomials()), eig)
        blocks = {}
        for (q, *_), (shift, acc) in sums.items():
            for c in range(d):
                rotated = eig.vectors[(c + q) % d][shift].conj().transpose(0, 2, 1) @ (acc[c] @ eig.vectors[c])
                for k in np.flatnonzero(rotated.any(axis=(1, 2))).tolist():
                    blocks[(c + q) % d * group + int(shift[k]), c * group + k] = rotated[k]
        return DenseOperator(self.chain, blocks)


@dataclass(frozen=True)
class Orbits:
    """The orbits of H's block symmetry group G on every sector, and G's character table.

    G has the d^r elements g_n = prod S_i^(n_i) of the generators
    ``symmetries`` (none for G = 1), indexed by the power vectors
    powers[g] = n in lexicographic order, that is counting in base d; a
    character k is indexed the same way, and chars[n, k] = exp(2i pi n.k / d)
    is what g_n reads on the joint eigenspace k.  In sector c, the orbit of
    representative o (its least state) is
    g|rep_o> = phase[c, g, o] |states[c, g, o]>, positions in the sector,
    with g = 0 the identity, and where[c, states[c, g, o]] = g * n + o is
    its inverse, n = m / G; on eigenspace k the vectors
    |o, k> = G^(-1/2) sum_g conj(chars[g, k]) g|rep_o> are orthonormal.
    """

    symmetries: tuple[WeylMonomial, ...]
    powers: np.ndarray  # (G, r)
    chars: np.ndarray  # (G, G)
    states: np.ndarray  # (d, G, n)
    phase: np.ndarray  # (d, G, n)
    where: np.ndarray  # (d, m)


@dataclass(frozen=True)
class Eigensystem(Orbits):
    """The eigenbasis of H, sector by sector, on the joint eigenspaces of its block symmetry group G.

    Column j of vectors[c, k] is eigenvector j of H on the orbit basis
    |o, k> of sector c (``Orbits``), with eigenvalue values[c, k * n + j],
    n = m / G: (character, level) order, ascending within each character.
    No array holds m x m entries unless G = 1.
    """

    values: np.ndarray  # (d, m)
    vectors: np.ndarray  # (d, G, n, n)

    def columns(self, c: int, k: int) -> np.ndarray:
        """The m x n site-basis columns of sector c's eigenvectors on joint eigenspace k.

        Eigenvector j has entry conj(chars[g, k]) phase[c, g, o] vectors[c, k][o, j] / sqrt(G)
        at position states[c, g, o] of the sector.  The G column blocks of a
        sector, side by side, are a unitary V_c with
        V_c^dag H_cc V_c = diag(values[c]).
        """
        group, size = self.states.shape[1:]
        weight = self.chars[:, k].conj()[:, None] * self.phase[c] / np.sqrt(group)
        out = np.empty((group * size, size), dtype=complex)
        out[self.states[c].ravel()] = (weight[:, :, None] * self.vectors[c, k]).reshape(-1, size)
        return out


def _orbits(symmetries: tuple[WeylMonomial, ...], chain: ChainSpec) -> Orbits:
    """The ``Orbits`` of the group the symmetries generate on every sector of the chain.

    The r generators S_i (S_i^d = 1, commuting with each other) give
    G = d^r elements g_n = prod S_i^(n_i), each realized on every sector by
    ``monomial_action``, so every phase is read from ``weyl.roots``.  G has
    charge 0 and acts freely, so each sector's states fall into m / G orbits
    of G states, each represented by its least state.
    """
    d, m = chain.d, chain.dim // chain.d
    powers = np.array(list(itertools.product(range(d), repeat=len(symmetries))), dtype=np.int64)
    group = len(powers)
    rows = np.empty((group, d, m), dtype=np.int64)
    phases = np.empty((group, d, m), dtype=complex)
    for g, n in enumerate(powers.tolist()):
        element = functools.reduce(mono_mul, map(WeylMonomial.pow, symmetries, n), WeylMonomial.identity(d))
        rows[g], phases[g] = monomial_action(element, chain)
    size = m // group
    states = np.empty((d, group, size), dtype=np.int64)
    phase = np.empty((d, group, size), dtype=complex)
    for c in range(d):
        reps = np.flatnonzero(rows[:, c].min(axis=0) == np.arange(m))
        states[c], phase[c] = rows[:, c, reps], phases[:, c, reps]
    where = np.empty((d, m), dtype=np.int64)
    where[np.arange(d)[:, None], states.reshape(d, -1)] = np.arange(m)
    chars = np.array(roots(d))[2 * (powers @ powers.T) % (2 * d)]
    return Orbits(symmetries=symmetries, powers=powers, chars=chars, states=states, phase=phase, where=where)


Action = tuple[complex, WeylMonomial, np.ndarray, np.ndarray]  # (coefficient, X, rows, phases), the last two X's monomial_action


def _commuting_actions(a: AlgebraElement, generators: tuple[WeylMonomial, ...], chain: ChainSpec) -> Iterator[Action]:
    """The ``monomial_action`` of each charge-0 monomial X of a, checked against the action of each charge-0 generator S before it is yielded.

    X S and S X are composed from the two actions by ``dense.compose``;
    ValueError unless the rows agree exactly and the entries to 1e-12.  The
    check reads the actions, not the ``commutation_phase`` that chose the
    generators, so it compares two independent computations.
    """
    actions = [monomial_action(s, chain) for s in generators]
    for coeff, mono in a.monomials():
        action = monomial_action(mono, chain)
        for s_action in actions:
            (xs_rows, xs), (sx_rows, sx) = compose(action, s_action, 0), compose(s_action, action, 0)
            if (xs_rows != sx_rows).any() or np.abs(xs - sx).max() > 1e-12:
                raise ValueError("Hamiltonian does not commute with its block symmetry")
        yield coeff, mono, *action


def _orbit_sums(actions: Iterator[Action], orbits: Orbits) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """The monomials of ``actions`` on the orbit bases, summed by (shift charge q, character psi).

    A monomial X of shift charge q has one character psi under G
    (g X g^dag = chars[g, psi] X, psi read from ``commutation_phase`` with
    the generators), so it maps eigenspace k of sector c into eigenspace
    k + psi of sector c + q (characters add digit by digit mod d).  On the
    orbit bases it is a generalised permutation: X|rep_o> = x_o
    |states[c + q, h, o']> gives X|o, k> = x_o conj(phase[c + q, h, o'])
    chars[h, k + psi] |o', k + psi>, read from its action at the
    representatives.  Returns (q, *psi) -> (the index of k + psi for every
    k, the (d, G, n, n) sums), acc[c, k] the sum from eigenspace k of sector
    c.
    """
    d, group, size = orbits.states.shape
    place = d ** np.arange(len(orbits.symmetries))[::-1]
    reps = orbits.states[:, 0]  # g = 0 is the identity
    sums: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for coeff, mono, rows, phases in actions:
        q, psi = mono.charge(), np.array([commutation_phase(s, mono) for s in orbits.symmetries], dtype=np.int64)
        key = (q, *psi.tolist())
        if key not in sums:
            sums[key] = (orbits.powers + psi) % d @ place, np.zeros((d, group, size, size), dtype=complex)
        shift, acc = sums[key]
        target = (np.arange(d)[:, None] + q) % d
        h, o = np.divmod(orbits.where[target, np.take_along_axis(rows, reps, axis=1)], size)
        x = coeff * np.take_along_axis(phases, reps, axis=1) * orbits.phase[target, h, o].conj()
        for c in range(d):
            # X on the orbit bases of sector c, for every character k at once: column o to row o[c, o]
            acc[c][:, o[c], np.arange(size)] += x[c] * orbits.chars[h[c]][:, shift].T
    return sums


def phase_blocks(a: DenseOperator, u: np.ndarray) -> DenseOperator:
    """Evolve an operator held in the eigenbasis by u = ``propagator(t)``.

    Read as parts of n states, the size of a's blocks (u.reshape(-1, n)[r]
    is part r), entry [m, n] of block (r, c) gains u[r][m] conj(u[c][n]).
    Each phased block is one new array, u[r][m] times the input entry and
    then times conj(u[c][n]) in place; the input blocks are left unchanged.
    """
    out = {}
    for (r, c), blk in a.blocks.items():
        parts = u.reshape(-1, len(blk))
        phased = parts[r][:, None] * blk
        phased *= parts[c].conj()
        out[r, c] = phased
    return DenseOperator(a.chain, out)


def phase_deviation(a: DenseOperator, u: np.ndarray, b: DenseOperator) -> float:
    """Largest entry modulus of ``phase_blocks(a, u) - b``, the blocks of each stacked into one array.

    Every block of an eigenbasis operator is n x n, so the blocks of the
    keys either operand holds, an absent one read as zero, are phased and
    compared in one pass each: the same products, differences and moduli,
    entry for entry, as ``phase_blocks`` then ``DenseOperator.__sub__`` and
    ``max_abs``, so the same value; 0.0 when neither holds a block.
    """
    keys = list(a.blocks.keys() | b.blocks.keys())
    if not keys:
        return 0.0
    n = len(next(iter({**a.blocks, **b.blocks}.values())))
    zero = np.zeros((n, n), dtype=complex)
    parts = u.reshape(-1, n)
    r, c = np.array(keys).T
    # one stacked copy of a is phased and differenced in place
    phased = np.stack([a.blocks.get(key, zero) for key in keys])
    np.multiply(parts[r][:, :, None], phased, out=phased)
    phased *= parts[c].conj()[:, None, :]
    phased -= np.stack([b.blocks.get(key, zero) for key in keys])
    return float(np.abs(phased).max())


def heisenberg_evolve(a: AlgebraElement | WeylMonomial, model: QuadraticModel, t: float) -> DenseOperator:
    """Conjugate by exp(iHt): the Heisenberg picture at time t, in the site basis.

    The element is written into the eigenbasis and phased there; block
    (c' * G + k', c * G + k) then adds V_c'k' X V_ck^dag to charge block
    (c', c), with V_ck the m x n columns of ``Eigensystem.columns``, so no
    full matrix is formed.
    """
    eig = model.eigensystem
    group = len(eig.chars)
    out: dict[tuple[int, int], np.ndarray] = {}
    for (r, c), blk in phase_blocks(model.eigenbasis_blocks(a), model.propagator(t)).blocks.items():
        (sr, kr), (sc, kc) = divmod(r, group), divmod(c, group)
        out[sr, sc] = eig.columns(sr, kr) @ blk @ eig.columns(sc, kc).conj().T + out.get((sr, sc), 0.0)
    return DenseOperator(model.chain, out)


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


def eigenbasis_fields(model: QuadraticModel, fs: list[np.ndarray]) -> Iterator[DenseOperator]:
    """W(f) in the eigenbasis for each (d, N) array f of fs, in order: ``eigenbasis_blocks(smear(f))`` to round-off.

    W(f) = sum_k f_k B_k is linear in f, so each B_k of ``span_basis`` on
    which some f is nonzero is written into the eigenbasis once, before the
    first field is yielded, and its blocks are stacked by key; each W(f) is
    then one contraction of its coefficients with every stack.  Only the
    sums' order differs from ``eigenbasis_blocks(smear(f))``, which adds the
    B_k on the orbit bases before rotating.  Each f is checked as ``smear``
    checks it.
    """
    basis, _ = span_basis(model.params, model.chain)
    coeffs = np.array([_chain_vector(f, model.params.d, len(basis)) for f in fs]).reshape(len(fs), len(basis))
    reached = np.flatnonzero(coeffs.any(axis=0))
    stacks: dict[tuple[int, int], np.ndarray] = {}  # key -> (n, n, len(reached)), zero where B_k holds no such block
    for i, k in enumerate(reached):
        for key, blk in model.eigenbasis_blocks(basis[k]).blocks.items():
            if key not in stacks:
                stacks[key] = np.zeros((*blk.shape, len(reached)), dtype=complex)
            stacks[key][..., i] = blk
    for c in coeffs[:, reached]:
        yield DenseOperator(model.chain, {key: stack @ c for key, stack in stacks.items()})


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


def one_particle_flow(m: np.ndarray, f: np.ndarray, params: GradingParams, t_grid) -> list[np.ndarray]:
    """exp(tM) f on the chain of M, one (d, L) array per t, from one eigh of iM (M antihermitian to 1e-12, as i ad_H is).

    f is a (d, N) array over the d = params.d flavours of M's chain, L = len(M) / d, checked as ``smear`` checks it.
    """
    if np.abs(m + m.conj().T).max() > 1e-12:
        raise ValueError("one-particle generator is not antihermitian")
    f0 = _chain_vector(f, params.d, len(m))
    w, v = np.linalg.eigh(1j * m)
    c0 = v.conj().T @ f0
    return [(v @ (np.exp(-1j * t * w) * c0)).reshape(params.d, -1) for t in t_grid]


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

    The norm is unitarily invariant, so both elements are written once into
    the eigenbasis (``QuadraticModel.eigenbasis_blocks``), where tau_t is an
    element-wise phase and the commutator is formed block by block and
    normed there by ``op_norm``, one connected component of its blocks at a
    time.
    """
    at = model.eigenbasis_blocks(a)
    bt = model.eigenbasis_blocks(b)
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
    """The best of the candidates against lhs, by the largest entry of their difference (``dense.action_deviation``)."""
    lhs_d = dense_actions(lhs, chain)
    devs = [action_deviation(lhs_d, dense_actions(c, chain)) for c in candidates]
    best = min(devs) if devs else float("inf")
    status = "MATCH" if best <= tol else "MISMATCH"
    payload = str(lhs.prune(1e-12))
    return AuditRow(claim_id=claim_id, params=params, status=status, deviation=best, payload=payload)


def claimed_commutator_audit(params: GradingParams, chain: ChainSpec, x: int, z: int) -> list[AuditRow]:
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
    The claims read the grading and the chain only; the derivative claim
    builds its own separation-x model.
    """
    d = params.d
    if not 0 < x < chain.L:
        raise ValueError("need 0 < x < L")
    rows: list[AuditRow] = []
    big_b = AlgebraElement.from_monomials(
        [(1.0, mono_mul(mono_adjoint(dressed_weyl(0, 1, params, chain)), dressed_weyl(x, 1, params, chain)))], d
    )
    ptag = f"d={d};j+={params.j_plus};j-={params.j_minus};x={x};z={z}"

    lhs = big_b.commutator(dressed_weyl(z, 1, params, chain).as_element())
    if 0 < z < x:
        string = WeylMonomial.single(d, z, params.j_plus + params.j_minus, 0).as_element()
        rhs = string.commutator(dressed_weyl(z, 1, params, chain).as_element()).scale(
            phase_value(2 * (params.j_plus + params.j_minus), d)
        )
        rows.append(_compare_claim("midpoint_reduction", ptag, lhs, [rhs], chain))
    else:
        rows.append(_compare_claim("midpoint_vanishing", ptag, lhs, [AlgebraElement.zero(d)], chain, tol=1e-12))

    coeff = phase_value(2 * params.j_plus, d).real
    lhs = big_b.commutator(dressed_weyl(0, 1, params, chain).as_element())
    rhs = AlgebraElement.from_monomials(
        [(coeff, mono_mul(WeylMonomial.single(d, x, params.j_minus, 0), dressed_weyl(x, 1, params, chain)))], d
    )
    rows.append(_compare_claim("endpoint_reduction_left", ptag, lhs, [rhs], chain))

    lhs = (big_b + big_b.adjoint()).commutator(dressed_weyl(x, 1, params, chain).as_element())
    rhs = AlgebraElement.from_monomials(
        [(coeff, mono_mul(WeylMonomial.single(d, x, -params.j_minus, 0), dressed_weyl(0, 1, params, chain)))], d
    )
    rows.append(_compare_claim("endpoint_reduction_right", ptag, lhs, [rhs], chain))

    if 0 <= z - x and z + x < chain.L:
        sep_model = QuadraticModel(chain, params, Hopping({x: 1.0, -x: 1.0}))
        lhs = sep_model.hamiltonian.commutator(dressed_weyl(z, 1, params, chain).as_element()).scale(1j)
        targets = AlgebraElement.from_monomials(
            [
                (1.0, dressed_weyl_rs(z + x, 2 * params.j_plus, 1, params, chain)),
                (1.0, dressed_weyl_rs(z - x, 2 * params.j_plus, 1, params, chain)),
            ],
            d,
        )
        cands = [
            targets.scale(phase_value(2 * d * params.j_plus, d).real),
            targets.scale(coeff),
        ]
        rows.append(_compare_claim("derivative_closure", ptag, lhs, cands, chain))
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
    every t, and it is taken in the site basis, with no diagonalisation.

    W, a and b are generalised permutations, one entry per column, each read
    from its ``monomial_action`` (checked for the chain as ``realize`` checks
    it), and the product a b is composed from two of them by
    ``dense.compose``; the norm is ``dense.action_distance`` of the clock's
    action against omega times the product's.  So it still compares two
    independent computations, and bounds the operator norm and hence every
    entry; its working set is a few (d, m) arrays, with no m x m array
    formed.
    """
    ch, pr = model.chain, model.params
    site = ch.L // 2
    monos = WeylMonomial.single(ch.d, site, 1, 0), dressed_weyl(site, 1, pr, ch), dressed_weyl_rs(site, 1, -1, pr, ch)
    for mono in monos:
        dense_element(mono, ch)
    (rows_w, p), action_a, action_b = (monomial_action(mono, ch) for mono in monos)
    shift_w, shift_a, shift_b = (mono.charge() for mono in monos)
    rows, phases = compose(action_a, action_b, shift_b)
    # each (d, m) array is dropped once read, which keeps the working set at a few of them
    del action_a, action_b
    product = (rows, phase_value(2, ch.d) * phases, shift_a + shift_b)
    del rows, phases
    return action_distance([(rows_w, p, shift_w)], [product])


def gauge_invariance_defect(model: QuadraticModel) -> float:
    """Largest |coefficient| of a monomial of H with nonzero shift charge; 0.0 when there is none.

    A construction check, read from H's labels in O(terms): a monomial of
    shift charge q maps charge sector c into c + q, so H commutes with the
    global gauge unitary exactly when no monomial shifts, and the norm of
    [H, G] is nonzero exactly when this is.
    """
    return max((abs(coeff) for coeff, mono in model.hamiltonian.monomials() if mono.charge()), default=0.0)
