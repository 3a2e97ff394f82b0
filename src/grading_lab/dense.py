"""Brute-force dense realization of the symbolic algebra on a finite chain.

Basis convention: site 0 is the slowest-varying tensor index, so the basis
state |t_0, ..., t_{L-1}> has index sum_x t_x * d^(L-1-x).  The clock
generator W(1, 0) realizes as diag(w^t) with w = exp(2i*pi/d) and the shift
generator W(0, 1) maps |t> -> |t+1 mod d>.  Every monomial is therefore a
generalized permutation matrix and is realized by exact index/phase
arithmetic; floating point enters only in the final complex exponential.

A monomial of shift charge q maps charge sector c (digit sum mod d) into
sector c + q, so a dense operator is held as its nonzero charge-sector
blocks, and its arithmetic (product, difference, entry maximum and
Hilbert-Schmidt inner product) is a set of ``DenseOperator`` methods that
work block by block.  The same type carries blocks in any per-sector basis,
such as the eigenbasis of ``dynamics``.  The full site-basis matrix is
assembled only on request (``DenseOperator.entries``), which only the
cross-chain identity of ``block_sites`` needs: its two chains have different
sector structures, so the site basis is their one common basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .weyl import AlgebraElement, WeylMonomial, gauge_project_symbolic

DEFAULT_DIM_CAP = 4096

Blocks = dict[tuple[int, int], np.ndarray]  # charge-sector blocks (r, c); an absent block is zero


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

    def digits(self) -> np.ndarray:
        """(L, dim) array: digits[x, v] = t_x of basis state v."""
        v = np.arange(self.dim)
        return np.array([(v // self.d ** (self.L - 1 - x)) % self.d for x in range(self.L)])

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


class DimensionCapError(ValueError):
    """Raised when a dense computation would exceed the configured cap."""


@dataclass
class DenseOperator:
    """An operator on the chain, held as its nonzero charge-sector blocks.

    ``blocks[(r, c)]`` is the m x m block (m = d^(L-1)) that maps charge
    sector c into sector r, rows and columns in the order of
    ``chain.sectors()`` (or, for an operator rotated by
    ``QuadraticModel.eigenbasis_blocks``, of the sector's eigenvectors); an
    absent block is zero.
    """

    chain: ChainSpec
    blocks: Blocks

    @property
    def entries(self) -> np.ndarray:
        """The full d^L x d^L matrix in the site basis, assembled on each call."""
        sectors = self.chain.sectors()
        out = np.zeros((self.chain.dim, self.chain.dim), dtype=complex)
        for (r, c), blk in self.blocks.items():
            out[np.ix_(sectors[r], sectors[c])] = blk
        return out

    @staticmethod
    def identity(chain: ChainSpec) -> "DenseOperator":
        m = chain.dim // chain.d
        return DenseOperator(chain, {(c, c): np.eye(m, dtype=complex) for c in range(chain.d)})

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        """Blocks of the product X Y: (X Y)_rc = sum over k of X_rk Y_kc."""
        out: Blocks = {}
        for (r, k), xb in self.blocks.items():
            for (k2, c), yb in other.blocks.items():
                if k == k2:
                    out[r, c] = out[r, c] + xb @ yb if (r, c) in out else xb @ yb
        return DenseOperator(self.chain, out)

    def sub(self, other: "DenseOperator", scale: complex = 1.0) -> "DenseOperator":
        """X - scale * Y, one new array per block and both operands left unchanged.

        Each block is ``x - scale * y`` with an absent block read as 0.0,
        evaluated in that order: the scaled y block is the result array and
        the subtraction finishes in it.
        """
        out: Blocks = {}
        for key in self.blocks.keys() | other.blocks.keys():
            if key in other.blocks:
                blk = scale * other.blocks[key]
                out[key] = np.subtract(self.blocks.get(key, 0.0), blk, out=blk)
            else:
                # not a plain copy of x: subtracting scale * 0.0 can flip the sign of a zero entry
                out[key] = self.blocks[key] - scale * 0.0
        return DenseOperator(self.chain, out)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return self.sub(other)

    def scale(self, c: complex) -> "DenseOperator":
        return DenseOperator(self.chain, {key: c * blk for key, blk in self.blocks.items()})

    def adjoint(self) -> "DenseOperator":
        return DenseOperator(self.chain, {(c, r): blk.conj().T for (r, c), blk in self.blocks.items()})

    def commutator(self, other: "DenseOperator") -> "DenseOperator":
        return self @ other - other @ self

    def max_abs(self) -> float:
        """Largest entry modulus; 0.0 when no block is held."""
        return max((float(np.abs(blk).max()) for blk in self.blocks.values()), default=0.0)

    def vdot(self, other: "DenseOperator") -> complex:
        """Hilbert-Schmidt inner product trace(X^dag Y), summed over the blocks both hold."""
        keys = self.blocks.keys() & other.blocks.keys()
        return complex(sum(np.vdot(self.blocks[key], other.blocks[key]) for key in keys))

def clock_shift(d: int) -> tuple[DenseOperator, DenseOperator]:
    """Single-site clock and shift unitaries (D, S) with D S = w S D.

    D realizes W(1, 0) (diagonal, generates the gauge rotation) and S
    realizes W(0, 1) (cyclic permutation, carries one unit of charge).
    """
    chain = ChainSpec(d, 1)
    D = realize(WeylMonomial.single(d, 0, 1, 0), chain)
    S = realize(WeylMonomial.single(d, 0, 0, 1), chain)
    return D, S


def _phase_table(d: int) -> np.ndarray:
    return np.exp(1j * np.pi * np.arange(2 * d) / d)


def realize(a: AlgebraElement | WeylMonomial, chain: ChainSpec) -> DenseOperator:
    """Tensor-product embedding of an element on the chain, written as charge blocks.

    A monomial of shift charge q maps the state at position j of sector c to
    one state of sector c + q, so it adds one entry per column to each of its
    d blocks (c + q, c).  Blocks that end up exactly zero are left out.
    """
    if isinstance(a, WeylMonomial):
        a = a.as_element()
    if a.d != chain.d:
        raise ValueError(f"dimension mismatch: element d={a.d}, chain d={chain.d}")
    chain.check_dense()
    supp = a.support()
    if supp and (min(supp) < 0 or max(supp) >= chain.L):
        raise ValueError(f"support {supp} outside chain 0..{chain.L - 1}")

    d = chain.d
    sectors = chain.sectors()
    m = sectors.shape[1]
    digits = chain.digits()[:, sectors]  # (L, d, m): digits of the states of each sector
    position = np.empty(chain.dim, dtype=np.int64)
    position[sectors] = np.arange(m)  # index of every basis state inside its sector
    table = _phase_table(d)
    sector_index, cols = np.arange(d)[:, None], np.arange(m)
    # shift charge s -> its blocks (c + s, c) stacked over c
    stacks = {s: np.zeros((d, m, m), dtype=complex) for s in a.charges()}
    for coeff, mono in a.monomials():
        target = sectors.copy()
        q = np.zeros(sectors.shape, dtype=np.int64)
        for x, (k, l) in mono.sites:
            t = digits[x]
            tl = (t + l) % d
            target += (tl - t) * d ** (chain.L - 1 - x)
            q += 2 * k * (t + l) - k * l
        stacks[mono.charge()][sector_index, position[target], cols] += coeff * table[q % (2 * d)]
    return DenseOperator(
        chain, {((c + s) % d, c): blk for s, stack in stacks.items() for c, blk in enumerate(stack) if blk.any()}
    )


def op_norm(m: DenseOperator) -> float:
    """Largest singular value, exact at every dimension.

    Computed as the square root of the largest eigenvalue of M^dag M from a
    dense hermitian eigensolver; 0.0 when no block is held.  When no two
    blocks share a row sector or a column sector (as for any operator of
    definite charge), the blocks act on orthogonal subspaces and the norm
    is the largest block norm; otherwise it is the norm of the
    sector-ordered block matrix over the sectors the blocks touch, a row
    and column permutation of the site-basis matrix with the empty sectors
    left out.
    """
    rows, cols = sorted({r for r, _ in m.blocks}), sorted({c for _, c in m.blocks})
    if len(rows) == len(m.blocks) == len(cols):
        return max((_top_singular_value(blk) for blk in m.blocks.values()), default=0.0)
    zero = np.zeros((m.chain.dim // m.chain.d,) * 2, dtype=complex)
    return _top_singular_value(np.block([[m.blocks.get((r, c), zero) for c in cols] for r in rows]))


def _top_singular_value(a: np.ndarray) -> float:
    top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
    return float(np.sqrt(max(top, 0.0)))


def _diagonal(chain: ChainSpec, values: np.ndarray) -> DenseOperator:
    """The diagonal operator with entry values[v] at basis state v."""
    return DenseOperator(chain, {(c, c): np.diag(values[s]) for c, s in enumerate(chain.sectors())})


def gauge_unitary(chain: ChainSpec) -> DenseOperator:
    """Product over all sites of the clock generator: diag(w^digit_sum)."""
    chain.check_dense()
    w = np.exp(2j * np.pi / chain.d)
    return _diagonal(chain, w ** (chain.digit_sums() % chain.d))


def _charge_mask(rows: np.ndarray, cols: np.ndarray, order: int) -> np.ndarray:
    """Entries [u, v] of a block whose integer charges rows[u] and cols[v] agree mod ``order``.

    Averaging M over conjugation by the powers of diag(exp(2i*pi*s/order))
    multiplies entry [u, v] by the mean of exp(2i*pi*j*(s_u - s_v)/order)
    over j, which is exactly 1 on this mask and exactly 0 off it.
    """
    return (rows[:, None] - cols[None, :]) % order == 0


def gauge_project(a: AlgebraElement | DenseOperator):
    """Average over conjugation by powers of the global gauge unitary.

    Symbolic input: keeps the monomials of total shift charge 0 mod d.
    Dense input: (1/d) sum_j G^j M G^-j, which keeps exactly the diagonal
    charge blocks (entries between basis states of equal charge) and drops
    the rest.
    """
    if isinstance(a, AlgebraElement):
        return gauge_project_symbolic(a)
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
    return _diagonal(chain, np.exp(2j * np.pi * chain.digit_sums() / (k * chain.d)))


@dataclass
class BlockingReport:
    """Outcome of regrouping k sites per block, with verification data."""

    k: int
    fine_chain: ChainSpec
    blocked_chain: ChainSpec
    dense_deviation: float
    refined_gauge_order: int
    blocked_clock_order: int
    containment_deviation: float
    containment_samples: int


def _block_factor_expansion(labels: list[tuple[int, int]], d: int) -> list[tuple[complex, int, int]]:
    """Expand a k-site monomial factor in the blocked Weyl basis.

    ``labels`` lists (k_x, l_x) of the k fine sites inside one block.  The
    factor maps the block digit string t -> t + l (digitwise mod d) with a
    phase that is an exact 2d-th root of unity per basis state; its blocked
    coefficients c_{K,M} are accumulated as exact root-of-unity exponent
    counts and evaluated once.
    """
    kblk = len(labels)
    D = d ** kblk
    table_fine = _phase_table(d)

    # per block-basis-state action: sigma(b), phase exponent (units pi/d)
    sigma = np.zeros(D, dtype=np.int64)
    qfine = np.zeros(D, dtype=np.int64)
    for b in range(D):
        digs = [(b // d ** (kblk - 1 - i)) % d for i in range(kblk)]
        nb = 0
        q = 0
        for t, (kk, ll) in zip(digs, labels):
            nt = (t + ll) % d
            nb = nb * d + nt
            q += 2 * kk * (t + ll) - kk * ll
        sigma[b] = nb
        qfine[b] = q % (2 * d)

    out = []
    for M in range(D):
        cols = [b for b in range(D) if sigma[b] == (b + M) % D]
        if not cols:
            continue
        for K in range(D):
            # c_{K,M} = (1/D) sum_b conj(<b+M| W_B(K,M) |b>) * phase(b)
            # with <b+M|W_B(K,M)|b> = exp(-i*pi*K*M/D) * w_D^(K*(b+M))
            acc = 0j
            for b in cols:
                qD = (K * M - 2 * K * (b + M)) % (2 * D)
                acc += np.exp(1j * np.pi * qD / D) * table_fine[qfine[b]]
            c = acc / D
            if abs(c) > 1e-15:
                out.append((c, K, M))
    return out


def block_sites(a: AlgebraElement, k: int, chain: ChainSpec) -> tuple[AlgebraElement, BlockingReport]:
    """Regroup k adjacent sites into one block-site of local dimension d^k.

    The blocked element realizes to the identical matrix (the basis order
    is preserved: block 0 slowest, and within a block the lower fine site
    is slower).  The report carries the dense identity deviation and the
    gauge-projector containment check: averaging over the order-(k*d)
    refined rotation then over the plain gauge rotation must reproduce the
    refined average on a spanning set of one-block monomials.  The refined
    average masks every charge block of a monomial entrywise, and the plain
    one is ``gauge_project``.
    """
    if chain.L % k != 0:
        raise ValueError(f"chain length {chain.L} not divisible by block size {k}")
    d = chain.d
    D = d ** k
    blocked_chain = ChainSpec(D, chain.L // k, cap=chain.cap)

    blocked = AlgebraElement.zero(D)
    for coeff, mono in a.monomials():
        lab = mono.labels()
        term = AlgebraElement.identity(D).scale(coeff)
        for blk in sorted({x // k for x in lab}):
            labels = [lab.get(blk * k + i, (0, 0)) for i in range(k)]
            term = term * AlgebraElement.from_monomials(
                [(c, WeylMonomial.single(D, blk, K, M)) for c, K, M in _block_factor_expansion(labels, d)], D
            )
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
        k=k,
        fine_chain=chain,
        blocked_chain=blocked_chain,
        dense_deviation=deviation,
        refined_gauge_order=k * d,
        blocked_clock_order=D,
        containment_deviation=worst,
        containment_samples=len(span),
    )
    return blocked, report
