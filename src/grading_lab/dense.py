"""Brute-force dense realization of the symbolic algebra on a finite chain.

Basis convention: site 0 is the slowest-varying tensor index, so the basis
state |t_0, ..., t_{L-1}> has index sum_x t_x * d^(L-1-x).  The clock
generator W(1, 0) realizes as diag(w^t) with w = exp(2i*pi/d) and the shift
generator W(0, 1) maps |t> -> |t+1 mod d>.  Every monomial is therefore a
generalized permutation matrix and is realized by exact index/phase
arithmetic, written once in ``monomial_action``, and the product of two
such actions once in ``compose``; each entry's phase is one exponent mod
2d, looked up in ``weyl.roots``, so floating point enters only through
that table and the coefficients.  The adjoint of an action
(``adjoint_action``) and the largest entry of the difference of two
(``action_deviation``) are index arithmetic too, so an identity between
monomials is checked on a few (d, m) arrays, with no block formed.  The
gauge unitary and k-site blocking are built from ``realize``, blocking
with ``weyl.matrix_unit``.

A monomial of shift charge q maps charge sector c (digit sum mod d) into
sector c + q, so a dense operator is held as its nonzero blocks, each its
own array, and its arithmetic (product, difference, entry maximum,
hermiticity defect and Hilbert-Schmidt inner product) is a set of
``DenseOperator`` methods that work block by block.  In the site basis a
block is a charge-sector block; the same type carries blocks in any
finer per-sector basis, such as the symmetry-adapted eigenbasis of
``dynamics``, whose blocks split each sector into equal parts.  The full
site-basis matrix is assembled only on request (``DenseOperator.entries``),
which only the cross-chain identity of ``block_sites`` needs: its two
chains have different sector structures, so the site basis is their one
common basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .weyl import AlgebraElement, WeylMonomial, matrix_unit, roots

DEFAULT_DIM_CAP = 4096
HERMITICITY_TILE = 32  # rows of a block compared at a time by DenseOperator.hermiticity_defect

Blocks = dict[tuple[int, int], np.ndarray]  # blocks (r, c) of one partition of the basis; an absent block is zero
Permutation = tuple[np.ndarray, np.ndarray, int]  # (rows, phases, shift charge): a monomial_action and the charge it moves by


@dataclass(frozen=True)
class ChainSpec:
    """Finite chain of L qudits of dimension d, sites 0..L-1.

    The cap bounds dense work only; symbolic operations may use chains of
    any length.  Dense entry points reject chains with d^L above the cap.
    """

    d: int
    L: int
    cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.d < 2 or self.L < 1:
            raise ValueError(f"invalid chain: d={self.d}, L={self.L}")
        if self.cap < 1:
            raise ValueError(f"dimension cap must be >= 1, got {self.cap}")

    @property
    def dim(self) -> int:
        return self.d ** self.L

    def check_dense(self) -> None:
        if self.dim > self.cap:
            raise DimensionCapError(
                f"dense dimension {self.d}**{self.L} = {self.dim} exceeds cap {self.cap}"
            )

    @property
    def dense_allowed(self) -> bool:
        return self.dim <= self.cap

    @functools.cache
    def digits(self) -> np.ndarray:
        """(L, dim) read-only array: digits[x, v] = t_x of basis state v."""
        v = np.arange(self.dim)
        out = np.array([(v // self.d ** (self.L - 1 - x)) % self.d for x in range(self.L)])
        out.flags.writeable = False
        return out

    def digit_sums(self) -> np.ndarray:
        """Integer digit sums (not reduced mod d) of every basis state."""
        return self.digits().sum(axis=0)

    @functools.cache
    def sectors(self) -> np.ndarray:
        """(d, d^(L-1)) read-only array: row c lists, ascending, the basis states of charge c.

        Every charge class mod d holds exactly d^(L-1) digit strings, so the
        rows have equal length.
        """
        charges = self.digit_sums() % self.d
        out = np.argsort(charges, kind="stable").reshape(self.d, -1)
        out.flags.writeable = False
        return out

    @functools.cache
    def positions(self) -> np.ndarray:
        """(dim,) read-only array: the position of every basis state inside its row of ``sectors``."""
        sectors = self.sectors()
        out = np.empty(self.dim, dtype=np.int64)
        out[sectors] = np.arange(sectors.shape[1])
        out.flags.writeable = False
        return out


class DimensionCapError(ValueError):
    """Raised when a dense computation would exceed the configured cap."""


@dataclass
class DenseOperator:
    """An operator on the chain, held as its nonzero blocks.

    The d^L basis states, listed sector by sector (the rows of
    ``chain.sectors()``, or each sector's eigenbasis for an operator built by
    ``QuadraticModel.eigenbasis_blocks``), are cut into parts of n states;
    ``blocks[(r, c)]`` is the n x n block that maps part c into part r, and
    an absent block is zero.  In the site basis n = m = d^(L-1), so part c
    is charge sector c; in the eigenbasis of a model whose symmetry group
    has G elements n = m / G, and part c * G + k is the joint eigenspace k
    of sector c.  Every block of one operator has the same n.
    """

    chain: ChainSpec
    blocks: Blocks

    @property
    def entries(self) -> np.ndarray:
        """The full d^L x d^L matrix, assembled on each call.

        Part r of n states sits at the positions ``chain.sectors().ravel()[r * n : (r + 1) * n]``:
        the site basis for charge-sector blocks, and for finer blocks a
        permutation of their basis, with the same singular values.
        """
        flat = self.chain.sectors().ravel()
        out = np.zeros((self.chain.dim, self.chain.dim), dtype=complex)
        for (r, c), blk in self.blocks.items():
            n = len(blk)
            out[np.ix_(flat[r * n : (r + 1) * n], flat[c * n : (c + 1) * n])] = blk
        return out

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        """Blocks of the product X Y: (X Y)_rc = sum over k of X_rk Y_kc.

        Y's blocks are indexed by row part once, so each X_rk meets only the
        Y_kc it multiplies; the terms of each (r, c) are added in the order
        of X's blocks, then of Y's.
        """
        by_row: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (k, c), yb in other.blocks.items():
            by_row.setdefault(k, []).append((c, yb))
        out: Blocks = {}
        for (r, k), xb in self.blocks.items():
            for c, yb in by_row.get(k, ()):
                out[r, c] = out[r, c] + xb @ yb if (r, c) in out else xb @ yb
        return DenseOperator(self.chain, out)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        """X - Y, one new array per block, an absent block read as 0.0; both operands are left unchanged."""
        keys = self.blocks.keys() | other.blocks.keys()
        return DenseOperator(self.chain, {key: self.blocks.get(key, 0.0) - other.blocks.get(key, 0.0) for key in keys})

    def scale(self, c: complex) -> "DenseOperator":
        return DenseOperator(self.chain, {key: c * blk for key, blk in self.blocks.items()})

    def commutator(self, other: "DenseOperator") -> "DenseOperator":
        return self @ other - other @ self

    def max_abs(self) -> float:
        """Largest entry modulus; 0.0 when no block is held."""
        return max((float(np.abs(blk).max()) for blk in self.blocks.values()), default=0.0)

    def hermiticity_defect(self) -> float:
        """Largest entry modulus of X - X^dag, one block pair at a time.

        Block (r, c) of the difference is X_rc - X_cr^dag, an absent partner
        read as zero.  Block (c, r) is its negated adjoint, so each pair is
        taken once, ``HERMITICITY_TILE`` rows of X_rc at a time against the
        matching columns of X_cr: a tile's conjugate copy stays in cache,
        where a whole block's strided copy does not.
        """
        worst = 0.0
        for (r, c), blk in self.blocks.items():
            partner = self.blocks.get((c, r))
            if partner is None:
                worst = max(worst, float(np.abs(blk).max()))
            elif r <= c:
                for i in range(0, len(blk), HERMITICITY_TILE):
                    tile = blk[i : i + HERMITICITY_TILE] - partner[:, i : i + HERMITICITY_TILE].conj().T
                    worst = max(worst, float(np.abs(tile).max()))
        return worst

    def vdot(self, other: "DenseOperator") -> complex:
        """Hilbert-Schmidt inner product trace(X^dag Y), summed over the blocks both hold."""
        keys = self.blocks.keys() & other.blocks.keys()
        return complex(sum(np.vdot(self.blocks[key], other.blocks[key]) for key in keys))


def monomial_action(mono: WeylMonomial, chain: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Where a monomial of shift charge q sends the basis, sector by sector: two (d, m) arrays.

    State j of sector c (``chain.sectors()[c, j]``) goes to the state at
    position rows[c, j] of sector c + q, with the entry phases[c, j].  Each
    entry's phase is one integer exponent mod 2d, the monomial's own phase
    included, read from ``weyl.roots``.  The support is not checked.
    """
    d = chain.d
    sectors = chain.sectors()
    digits = chain.digits()
    target = sectors.copy()
    q = np.full(sectors.shape, mono.phase, dtype=np.int64)
    for x, (k, l) in mono.sites:
        t = digits[x][sectors]
        tl = (t + l) % d
        target += (tl - t) * d ** (chain.L - 1 - x)
        q += 2 * k * (t + l) - k * l
    return chain.positions()[target], np.array(roots(d))[q % (2 * d)]


def compose(outer: tuple[np.ndarray, np.ndarray], inner: tuple[np.ndarray, np.ndarray], q: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``monomial_action`` of the product outer . inner, from the two actions and the inner one's shift charge q.

    Inner sends position j of sector c to row rows_i[c, j] of sector c + q,
    and outer sends that on to rows_o[c + q, rows_i[c, j]], with the entry
    phases_o[c + q, rows_i[c, j]] * phases_i[c, j].
    """
    (rows_o, phases_o), (rows_i, phases_i) = outer, inner
    d = len(rows_i)
    middle = (np.arange(d)[:, None] + q) % d  # the sector that inner maps each sector into
    return rows_o[middle, rows_i], phases_o[middle, rows_i] * phases_i


def adjoint_action(x: Permutation) -> Permutation:
    """The adjoint of a generalised permutation, from its inverse row map and conjugated phases.

    X sends position j of sector c to row rows[c, j] of sector c + q with
    the entry phases[c, j]; X^dag sends that row back to j, in sector c, with
    the conjugate entry.  No monomial is inverted: the result is read from
    X's arrays alone.
    """
    rows, phases, q = x
    d, m = rows.shape
    target = (np.arange(d)[:, None] + q) % d
    inverse, conjugate = np.empty_like(rows), np.empty_like(phases)
    inverse[target, rows] = np.arange(m)
    conjugate[target, rows] = phases.conj()
    return inverse, conjugate, -q % d


def action_deviation(x: Permutation, y: Permutation) -> float:
    """Largest entry modulus of X - Y for two generalised permutations, (realize(x) - realize(y)).max_abs() with no block formed.

    Column j of sector c holds X's one entry p and Y's one entry q.  Where
    both land on the same row of the same sector the column of X - Y holds
    p - q, and elsewhere it holds p and -q apart, so its largest modulus is
    |p - q| or max(|p|, |q|).
    """
    (rows_x, p, q_x), (rows_y, q, q_y) = x, y
    same = (rows_x == rows_y) & ((q_x - q_y) % len(rows_x) == 0)
    return float(np.where(same, np.abs(p - q), np.maximum(np.abs(p), np.abs(q))).max())


def dense_action(mono: WeylMonomial, chain: ChainSpec) -> Permutation:
    """The generalised permutation that ``realize(mono, chain)`` holds, checked as ``realize`` checks it.

    Its entries are read as ``realize`` reads them: the monomial's phase
    exp(i*pi*q/d) as the coefficient, times the phase-stripped monomial's
    ``monomial_action``.
    """
    ((coeff, bare),) = dense_element(mono, chain).monomials()
    rows, phases = monomial_action(bare, chain)
    return rows, coeff * phases, bare.charge()


def dense_element(a: AlgebraElement | WeylMonomial, chain: ChainSpec) -> AlgebraElement:
    """The element a (a monomial as its one-term element), checked for dense work on the chain.

    ValueError when its d is not the chain's or its support leaves the
    chain; ``DimensionCapError`` above the chain's cap.
    """
    if isinstance(a, WeylMonomial):
        a = a.as_element()
    if a.d != chain.d:
        raise ValueError(f"dimension mismatch: element d={a.d}, chain d={chain.d}")
    chain.check_dense()
    supp = a.support()
    if supp and (min(supp) < 0 or max(supp) >= chain.L):
        raise ValueError(f"support {supp} outside chain 0..{chain.L - 1}")
    return a


def realize(a: AlgebraElement | WeylMonomial, chain: ChainSpec) -> DenseOperator:
    """Tensor-product embedding of an element on the chain, written as charge blocks.

    A monomial of shift charge q maps the state at position j of sector c to
    one state of sector c + q (``monomial_action``), so it adds one entry per
    column to each of its d blocks (c + q, c).  Every block is its own array,
    so an operator frees each block it drops; blocks that end up exactly zero
    are left out.
    """
    a = dense_element(a, chain)
    d = chain.d
    m = chain.dim // d
    cols = np.arange(m)
    blocks = {((c + s) % d, c): np.zeros((m, m), dtype=complex) for s in a.charges() for c in range(d)}
    for coeff, mono in a.monomials():
        rows, phases = monomial_action(mono, chain)
        values = coeff * phases
        s = mono.charge()
        for c in range(d):
            blocks[(c + s) % d, c][rows[c], cols] += values[c]
    return DenseOperator(chain, {key: blk for key, blk in blocks.items() if blk.any()})


def op_norm(m: DenseOperator) -> float:
    """Largest singular value, exact at every dimension.

    Rows and columns of blocks that share no row part and no column part
    act on orthogonal subspaces, so the norm is the largest over the
    connected components of the graph that joins row part r to column part
    c for every block (r, c): each component is assembled as its block
    matrix over the parts it touches, in ascending order, absent blocks
    zero, and normed as the square root of the largest eigenvalue of
    M^dag M from a dense hermitian eigensolver.  0.0 when no block is held.
    """
    root: dict[tuple[str, int], tuple[str, int]] = {}

    def find(node):
        while root.setdefault(node, node) != node:
            node = root[node]
        return node

    for r, c in m.blocks:
        root[find(("row", r))] = find(("col", c))
    components: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for r, c in m.blocks:
        components.setdefault(find(("col", c)), []).append((r, c))
    norms = []
    for keys in components.values():
        rows, cols = sorted({r for r, _ in keys}), sorted({c for _, c in keys})
        zero = np.zeros_like(m.blocks[keys[0]])
        norms.append(_top_singular_value(np.block([[m.blocks.get((r, c), zero) for c in cols] for r in rows])))
    return max(norms, default=0.0)


def _top_singular_value(a: np.ndarray) -> float:
    top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
    return float(np.sqrt(max(top, 0.0)))


def gauge_unitary(chain: ChainSpec) -> DenseOperator:
    """Product over all sites of the clock generator W(1, 0): diag(w^digit_sum)."""
    return realize(WeylMonomial.from_labels(chain.d, {x: (1, 0) for x in range(chain.L)}), chain)


def _charge_mask(rows: np.ndarray, cols: np.ndarray, order: int) -> np.ndarray:
    """Entries [u, v] of a block whose integer charges rows[u] and cols[v] agree mod ``order``.

    Averaging M over conjugation by the powers of diag(exp(2i*pi*s/order))
    multiplies entry [u, v] by the mean of exp(2i*pi*j*(s_u - s_v)/order)
    over j, which is exactly 1 on this mask and exactly 0 off it.
    """
    return (rows[:, None] - cols[None, :]) % order == 0


def gauge_project(a: DenseOperator) -> DenseOperator:
    """Average over conjugation by powers of the global gauge unitary.

    (1/d) sum_j G^j M G^-j keeps exactly the diagonal charge blocks (entries
    between basis states of equal charge) and drops the rest.
    """
    return DenseOperator(a.chain, {(r, c): blk for (r, c), blk in a.blocks.items() if r == c})


def sector_decompose(chain: ChainSpec) -> list[DenseOperator]:
    """Spectral projectors of the gauge unitary, one per charge 0..d-1."""
    chain.check_dense()
    m = chain.dim // chain.d
    return [DenseOperator(chain, {(c, c): np.eye(m, dtype=complex)}) for c in range(chain.d)]


def refined_gauge_unitary(chain: ChainSpec, k: int) -> DenseOperator:
    """Order-(k*d) refinement of the gauge rotation used by k-site blocking.

    The generator multiplies each basis state by exp(2i*pi*s/(k*d)) with s
    the integer digit sum, so its k-th power is the plain gauge unitary.
    """
    chain.check_dense()
    values = np.array(roots(k * chain.d))[2 * chain.digit_sums() % (2 * k * chain.d)]
    return DenseOperator(chain, {(c, c): np.diag(values[s]) for c, s in enumerate(chain.sectors())})


@dataclass
class BlockingReport:
    """Outcome of regrouping k sites per block, with verification data."""

    blocked_chain: ChainSpec
    dense_deviation: float
    refined_gauge_order: int
    blocked_clock_order: int
    containment_deviation: float
    containment_samples: int


def _blocked_factor(labels: list[tuple[int, int]], block: ChainSpec, site: int) -> AlgebraElement:
    """One block's factor, fine labels ``labels``, as an element of blocked site ``site``.

    Realized on the k-site chain ``block``, whose basis is the block basis,
    each nonzero entry F[r, s] gives F[r, s] |r><s|; terms at or below 1e-15
    are pruned.
    """
    F = realize(WeylMonomial.from_labels(block.d, dict(enumerate(labels))), block).entries
    units = (matrix_unit(block.dim, r, s, site).scale(complex(F[r, s])) for r, s in np.argwhere(F).tolist())
    return sum(units, AlgebraElement.zero(block.dim)).prune(1e-15)


def block_sites(a: AlgebraElement, k: int, chain: ChainSpec) -> tuple[AlgebraElement, BlockingReport]:
    """Regroup k adjacent sites into one block-site of local dimension d^k.

    Each block's factor is realized on k sites and expanded by
    ``weyl.matrix_unit``, so the blocked element realizes to the identical
    matrix (the basis order is preserved: block 0 slowest, and within a
    block the lower fine site is slower).  The report carries the dense
    identity deviation and the gauge-projector containment check:
    averaging over the order-(k*d) refined rotation then over the plain
    gauge rotation must reproduce the refined average on a spanning set of
    one-block monomials.  The refined average masks every charge block of
    a monomial entrywise, and the plain one is ``gauge_project``.
    """
    if k < 1:
        raise ValueError(f"block size k must be >= 1, got k = {k}")
    if chain.L % k != 0:
        raise ValueError(f"chain length {chain.L} not divisible by block size {k}")
    d = chain.d
    D = d ** k
    blocked_chain = ChainSpec(D, chain.L // k, cap=chain.cap)
    block = ChainSpec(d, k, cap=chain.cap)  # one block's sites, in the block basis order

    blocked = AlgebraElement.zero(D)
    for coeff, mono in a.monomials():
        lab = mono.labels()
        term = AlgebraElement.identity(D).scale(coeff)
        for blk in sorted({x // k for x in lab}):
            labels = [lab.get(blk * k + i, (0, 0)) for i in range(k)]
            term = term * _blocked_factor(labels, block, blk)
        blocked = blocked + term

    # the chains' sectors differ: compare in the site basis, their one common basis
    deviation = float(np.abs(realize(a, chain).entries - realize(blocked, blocked_chain).entries).max())

    # containment P_fine . P_refined = P_refined on one-block monomials, block by block
    charges = chain.digit_sums()[chain.sectors()]  # (d, m) integer digit sums per sector
    span: list[dict[int, tuple[int, int]]] = [{}]
    for site in range(min(k, 2)):
        span = [
            {**labs, site: (kk, ll)}
            for labs in span
            for kk in range(d)
            for ll in range(d)
        ]
    worst = 0.0
    for labs in span:
        blocks = realize(WeylMonomial.from_labels(d, labs), chain).blocks
        refined = DenseOperator(chain, {
            (r, c): np.where(_charge_mask(charges[r], charges[c], k * d), blk, 0.0) for (r, c), blk in blocks.items()
        })
        worst = max(worst, (gauge_project(refined) - refined).max_abs())

    report = BlockingReport(
        blocked_chain=blocked_chain,
        dense_deviation=deviation,
        refined_gauge_order=k * d,
        blocked_clock_order=D,
        containment_deviation=worst,
        containment_samples=len(span),
    )
    return blocked, report
