"""Brute-force dense realization of the symbolic algebra on a finite chain.

Basis convention: site 0 is the slowest-varying tensor index, so the basis
state |t_0, ..., t_{L-1}> has index sum_x t_x * d^(L-1-x).  The clock
generator W(1, 0) realizes as diag(w^t) with w = exp(2i*pi/d) and the shift
generator W(0, 1) maps |t> -> |t+1 mod d>.  Every monomial is therefore a
generalized permutation matrix and is realized by exact index/phase
arithmetic, written once in ``monomial_action``, and the product of two
such actions once in ``compose``.  ``monomial_action`` reads the action
from the chain's cached site tables (``ChainSpec.site_tables``): each
labelled site adds one row of index shifts to the states and one row of
exponent slopes, times its clock label, to the entries.  Each entry's
phase is one exponent mod 2d, looked up in ``weyl.roots``, so floating
point enters only through that table and the coefficients.  Monomials
with the same shift labels move every state alike, so an element is a
sum of generalised permutations, one per shift vector, that share no
entry (``dense_actions``); ``realize`` writes them into blocks.  Their product
(``action_product``), Hilbert-Schmidt inner product (``action_vdot``),
the largest entry of a difference (``action_deviation``), the
Hilbert-Schmidt norm of a difference (``action_distance``) and an
adjoint (``adjoint_action``) are index arithmetic too, so an identity
between elements is checked on a few (d, m) arrays, with no block formed.
The gauge unitary and k-site blocking are built from ``realize``,
blocking with ``weyl.matrix_unit``.

A monomial of shift charge q maps charge sector c (digit sum mod d) into
sector c + q, so a dense operator is held as its nonzero blocks, each its
own array, and its arithmetic (product, difference, entry maximum and
hermiticity defect) is a set of ``DenseOperator`` methods that work block
by block.  In the site basis a block is a charge-sector block; the same
type carries blocks in any finer per-sector basis, such as the
symmetry-adapted eigenbasis of ``dynamics``, whose blocks split each
sector into equal parts.  The full site-basis matrix is assembled only on
request (``DenseOperator.entries``), which only the cross-chain identity
of ``block_sites`` needs: its two chains have different sector
structures, so the site basis is their one common basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .weyl import AlgebraElement, WeylMonomial, matrix_unit, roots

DEFAULT_DIM_CAP = 4096
HERMITICITY_TILE = 32  # rows of a block compared at a time by DenseOperator.hermiticity_defect

Blocks = dict[tuple[int, int], np.ndarray]  # blocks (r, c) of one partition of the basis; an absent block is zero
Permutation = tuple[np.ndarray, np.ndarray, int]  # (rows, values, shift charge): where column j of sector c lands in sector c + q, and its entry
Actions = list[Permutation]  # an element as ``dense_actions`` reads it: one Permutation per shift vector, no two sharing an entry


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

    @functools.cache
    def site_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Two (L, d, d, m) read-only arrays, read by ``monomial_action``: what W(k, l) at site x does to each sector state.

        With t = t_x the digit at site x of state ``sectors()[c, j]``,
        shift[x, l, c, j] = ((t + l) mod d - t) * d^(L-1-x) moves the state's
        index to that of W(0, l)'s image, and slope[x, l, c, j] = 2 t + l is
        the exponent mod 2d that W(k, l) adds, k times over, to the entry.
        """
        t = self.digits()[:, self.sectors()][:, None]  # (L, 1, d, m)
        l = np.arange(self.d)[None, :, None, None]
        place = self.d ** np.arange(self.L - 1, -1, -1)[:, None, None, None]
        shift, slope = ((t + l) % self.d - t) * place, 2 * t + l
        shift.flags.writeable = slope.flags.writeable = False
        return shift, slope


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


def monomial_action(mono: WeylMonomial, chain: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Where a monomial of shift charge q sends the basis, sector by sector: two (d, m) arrays.

    State j of sector c (``chain.sectors()[c, j]``) goes to the state at
    position rows[c, j] of sector c + q, with the entry phases[c, j].  The
    action is read from ``ChainSpec.site_tables``: each labelled site (k, l)
    adds its row of index shifts to the state's index and k times its row
    of slopes to the entry's exponent, which starts at the monomial's own
    phase and is taken mod 2d once, then read from ``weyl.roots``.  The
    support is not checked.
    """
    shift, slope = chain.site_tables()
    target = chain.sectors().copy()
    q = np.full(target.shape, mono.phase, dtype=np.int64)
    for x, (k, l) in mono.sites:
        if l:
            target += shift[x, l]
        if k:
            q += k * slope[x, l]
    return chain.positions()[target], np.array(roots(chain.d))[q % (2 * chain.d)]


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


def dense_actions(a: AlgebraElement | WeylMonomial, chain: ChainSpec) -> Actions:
    """``realize(a, chain)`` as generalised permutations, one per shift vector of a's monomials, checked as ``realize`` checks it.

    Monomials with the same shift labels l move every state alike, so a
    shift vector's entries sit on the rows of its monomials'
    ``monomial_action`` and its values are the sum of coefficient x phases
    over them, added in ``a.monomials()`` order onto zeros.  Distinct shift
    vectors send a state to distinct states, so no two of the permutations
    share an entry: ``realize`` writes them into charge blocks, and the
    ``action_*`` functions read them as they are, a few (d, m) arrays each.
    """
    a = dense_element(a, chain)
    out: dict[tuple, Permutation] = {}
    for coeff, mono in a.monomials():
        rows, phases = monomial_action(mono, chain)
        shift = tuple((x, l) for x, (_, l) in mono.sites if l)
        if shift not in out:
            out[shift] = (rows, np.zeros(phases.shape, dtype=complex), mono.charge())
        values = out[shift][1]
        values += coeff * phases
    return list(out.values())


def action_product(xs: Actions, ys: Actions) -> Actions:
    """X Y for two elements read by ``dense_actions``: every pair composed by ``compose``, those that land alike summed.

    x after y has the summed shift charge.  Two such products that send
    every column to the same row of the same sector share the product's
    shift vector, and their values are added, in the order of xs, then of
    ys.
    """
    out: Actions = []
    for x in xs:
        for y in ys:
            rows, values = compose(x[:2], y[:2], y[2])
            q = x[2] + y[2]
            for i, (r, v, p) in enumerate(out):
                if (p - q) % len(rows) == 0 and np.array_equal(r, rows):
                    out[i] = (r, v + values, p)
                    break
            else:
                out.append((rows, values, q))
    return out


def _same(x: Permutation, y: Permutation) -> np.ndarray:
    """(d, m) mask of the columns that x and y send to the same row of the same sector."""
    return (x[0] == y[0]) & ((x[2] - y[2]) % len(x[0]) == 0)


def _difference_at(p: Permutation, xs: Actions, ys: Actions) -> np.ndarray:
    """The (d, m) entries of X - Y at the places p writes.

    X's entry and Y's entry there are each summed, in list order, over the
    permutations that write the same place, as ``realize`` sums them; rows
    and sectors are compared, never labels, so this holds for any input.
    """
    x = sum(np.where(_same(p, o), o[1], 0.0) for o in xs)
    y = sum(np.where(_same(p, o), o[1], 0.0) for o in ys)
    return x - y


def action_vdot(xs: Actions, ys: Actions) -> complex:
    """Hilbert-Schmidt inner product trace(X^dag Y) of two elements read by ``dense_actions``.

    Each pair (x, y) adds conj(x) y over the columns that both send to the
    same row of the same sector.
    """
    total = 0j
    for x in xs:
        for y in ys:
            same = _same(x, y)
            total += np.vdot(x[1][same], y[1][same])
    return complex(total)


def action_deviation(xs: Actions, ys: Actions) -> float:
    """Largest entry modulus of X - Y, (realize(xs) - realize(ys)).max_abs() with no block formed.

    Every entry of X - Y is read at a permutation that writes its place, so
    for one permutation each it is |p - q| where both land on the same row
    of the same sector and max(|p|, |q|) elsewhere; 0.0 when both are empty.
    """
    return max((float(np.abs(_difference_at(p, xs, ys)).max()) for p in [*xs, *ys]), default=0.0)


def action_distance(xs: Actions, ys: Actions) -> float:
    """Hilbert-Schmidt norm of X - Y, with no block formed.

    Each place is squared once, at the first permutation of xs, then of ys,
    that writes it: for one permutation each a column adds |p - q|^2 where
    both land on the same row of the same sector and |p|^2 + |q|^2 elsewhere.
    """
    perms = [*xs, *ys]
    squares = 0.0
    for i, p in enumerate(perms):
        first = ~np.logical_or.reduce([_same(p, o) for o in perms[:i]], axis=0)
        squares = squares + np.where(first, np.abs(_difference_at(p, xs, ys)) ** 2, 0.0)
    return float(np.sqrt(np.sum(squares)))


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

    Each generalised permutation of ``dense_actions``, of shift charge q,
    maps the state at position j of sector c to one state of sector c + q,
    so it writes one entry per column into each of its d blocks (c + q, c).
    Every block is its own array, so an operator frees each block it drops;
    blocks that end up exactly zero are left out.
    """
    d, m = chain.d, chain.dim // chain.d
    cols = np.arange(m)
    blocks: Blocks = {}
    for rows, values, q in dense_actions(a, chain):
        for c in range(d):
            blocks.setdefault(((c + q) % d, c), np.zeros((m, m), dtype=complex))[rows[c], cols] += values[c]
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
