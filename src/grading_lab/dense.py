"""Brute-force dense realization of the symbolic algebra on a finite chain.

Basis convention: site 0 is the slowest-varying tensor index, so the basis
state |t_0, ..., t_{L-1}> has index sum_x t_x * d^(L-1-x).  The clock
generator W(1, 0) realizes as diag(w^t) with w = exp(2i*pi/d) and the shift
generator W(0, 1) maps |t> -> |t+1 mod d>.  Every monomial is therefore a
generalized permutation matrix and is realized by exact index/phase
arithmetic; floating point enters only in the final complex exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weyl import AlgebraElement, WeylMonomial, gauge_project_symbolic

DEFAULT_DIM_CAP = 4096


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

    def sectors(self) -> np.ndarray:
        """(d, d^(L-1)) array: row c lists, ascending, the basis states of charge c.

        Every charge class mod d holds exactly d^(L-1) digit strings, so the
        rows have equal length.
        """
        charges = self.digit_sums() % self.d
        return np.argsort(charges, kind="stable").reshape(self.d, -1)


def sector_blocks(m: np.ndarray, chain: ChainSpec) -> np.ndarray:
    """Sector-ordered copy of a full matrix, shaped (d, m, d, m).

    Entry [r, i, c, j] is m[sectors[r, i], sectors[c, j]] with
    ``sectors = chain.sectors()``, so [r, :, c, :] is the block that maps
    charge sector c into charge sector r.
    """
    sectors = chain.sectors()
    d, size = sectors.shape
    order = sectors.ravel()
    return m[np.ix_(order, order)].reshape(d, size, d, size)


def sector_unblock(blocks: np.ndarray, chain: ChainSpec) -> np.ndarray:
    """Full matrix in the site basis from its (d, m, d, m) sector blocks."""
    order = chain.sectors().ravel()
    out = np.empty((chain.dim, chain.dim), dtype=blocks.dtype)
    out[np.ix_(order, order)] = blocks.reshape(chain.dim, chain.dim)
    return out


class DimensionCapError(ValueError):
    """Raised when a dense computation would exceed the configured cap."""


@dataclass
class DenseOperator:
    """A complex matrix together with its chain metadata."""

    chain: ChainSpec
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.chain.dim, self.chain.dim):
            raise ValueError(f"matrix shape {self.entries.shape} does not match chain dim {self.chain.dim}")

    @staticmethod
    def identity(chain: ChainSpec) -> "DenseOperator":
        return DenseOperator(chain, np.eye(chain.dim, dtype=complex))

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.chain, self.entries @ other.entries)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.chain, self.entries + other.entries)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.chain, self.entries - other.entries)

    def scale(self, c: complex) -> "DenseOperator":
        return DenseOperator(self.chain, c * self.entries)

    def adjoint(self) -> "DenseOperator":
        return DenseOperator(self.chain, self.entries.conj().T)

    def commutator(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.chain, self.entries @ other.entries - other.entries @ self.entries)

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())


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
    """Tensor-product embedding of an element on the chain."""
    if isinstance(a, WeylMonomial):
        a = a.as_element()
    if a.d != chain.d:
        raise ValueError(f"dimension mismatch: element d={a.d}, chain d={chain.d}")
    chain.check_dense()
    supp = a.support()
    if supp and (min(supp) < 0 or max(supp) >= chain.L):
        raise ValueError(f"support {supp} outside chain 0..{chain.L - 1}")

    d, dim = chain.d, chain.dim
    digits = chain.digits()
    table = _phase_table(d)
    v = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, mono in a.monomials():
        target = v.copy()
        q = np.zeros(dim, dtype=np.int64)
        for x, (k, l) in mono.sites:
            t = digits[x]
            tl = (t + l) % d
            target += (tl - t) * d ** (chain.L - 1 - x)
            q += 2 * k * (t + l) - k * l
        out[target, v] += coeff * table[q % (2 * d)]
    return DenseOperator(chain, out)


def op_norm(m: DenseOperator | np.ndarray) -> float:
    """Largest singular value, exact at every dimension.

    Computed as the square root of the largest eigenvalue of M^dag M from a
    dense hermitian eigensolver; 0.0 for an empty matrix.
    """
    a = m.entries if isinstance(m, DenseOperator) else np.asarray(m, dtype=complex)
    if not a.size:
        return 0.0
    top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
    return float(np.sqrt(max(top, 0.0)))


def gauge_unitary(chain: ChainSpec) -> DenseOperator:
    """Product over all sites of the clock generator: diag(w^digit_sum)."""
    chain.check_dense()
    w = np.exp(2j * np.pi / chain.d)
    return DenseOperator(chain, np.diag(w ** (chain.digit_sums() % chain.d)))


def _project_by_diagonal(m: np.ndarray, phases: np.ndarray, order: int) -> np.ndarray:
    acc = np.zeros_like(m)
    for j in range(order):
        gj = phases ** j
        acc += (gj[:, None] * gj.conj()[None, :]) * m
    return acc / order


def gauge_project(a: AlgebraElement | DenseOperator):
    """Average over conjugation by powers of the global gauge unitary.

    Symbolic input: keeps the monomials of total shift charge 0 mod d.
    Dense input: (1/d) sum_j G^j M G^-j, computed entrywise through the
    diagonal gauge phases.
    """
    if isinstance(a, AlgebraElement):
        return gauge_project_symbolic(a)
    chain = a.chain
    d = chain.d
    g = np.exp(2j * np.pi / d) ** (chain.digit_sums() % d)
    return DenseOperator(chain, _project_by_diagonal(a.entries, g, d))


def sector_decompose(chain: ChainSpec) -> list[DenseOperator]:
    """Spectral projectors of the gauge unitary, one per charge 0..d-1."""
    chain.check_dense()
    cs = chain.digit_sums() % chain.d
    out = []
    for c in range(chain.d):
        out.append(DenseOperator(chain, np.diag((cs == c).astype(complex))))
    return out


def refined_gauge_unitary(chain: ChainSpec, k: int) -> DenseOperator:
    """Order-(k*d) refinement of the gauge rotation used by k-site blocking.

    The generator multiplies each basis state by exp(2i*pi*s/(k*d)) with s
    the integer digit sum, so its k-th power is the plain gauge unitary.
    """
    chain.check_dense()
    return DenseOperator(chain, np.diag(np.exp(2j * np.pi * chain.digit_sums() / (k * chain.d))))


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
    refined average on a spanning set of one-block monomials.
    """
    if chain.L % k != 0:
        raise ValueError(f"chain length {chain.L} not divisible by block size {k}")
    d = chain.d
    D = d ** k
    blocked_chain = ChainSpec(D, chain.L // k, cap=chain.cap)

    blocked = AlgebraElement.zero(D)
    for coeff, mono in a.monomials():
        lab = mono.labels()
        factors = []
        for blk in range(blocked_chain.L):
            labels = [lab.get(blk * k + i, (0, 0)) for i in range(k)]
            if all(x == (0, 0) for x in labels):
                factors.append([(1.0 + 0j, 0, 0, blk)])
            else:
                factors.append([(c, K, M, blk) for c, K, M in _block_factor_expansion(labels, d)])
        partial = [(coeff, {})]
        for terms in factors:
            nxt = []
            for c0, labs in partial:
                for c, K, M, blk in terms:
                    if (K, M) == (0, 0):
                        nxt.append((c0 * c, labs))
                    else:
                        nl = dict(labs)
                        nl[blk] = (K, M)
                        nxt.append((c0 * c, nl))
            partial = nxt
        blocked = blocked + AlgebraElement.from_monomials(
            [(c, WeylMonomial.from_labels(D, labs)) for c, labs in partial], D
        )

    fine_dense = realize(a, chain)
    blocked_dense = realize(blocked, blocked_chain)
    deviation = float(np.abs(fine_dense.entries - blocked_dense.entries).max())

    # containment P_fine . P_refined = P_refined on one-block monomials
    srefined = np.exp(2j * np.pi * chain.digit_sums() / (k * d))
    sfine = np.exp(2j * np.pi * (chain.digit_sums() % d) / d)
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
        m = realize(WeylMonomial.from_labels(d, labs), chain).entries
        pr = _project_by_diagonal(m, srefined, k * d)
        pf = _project_by_diagonal(pr, sfine, d)
        worst = max(worst, float(np.abs(pf - pr).max()))
    samples = len(span)

    report = BlockingReport(
        k=k,
        fine_chain=chain,
        blocked_chain=blocked_chain,
        dense_deviation=deviation,
        refined_gauge_order=k * d,
        blocked_clock_order=D,
        containment_deviation=worst,
        containment_samples=samples,
    )
    return blocked, report
