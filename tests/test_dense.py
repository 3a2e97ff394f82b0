"""Dense oracle layer: realization, norms, sectors, gauge, blocking."""

import numpy as np
import pytest

from grading_lab.dense import (
    ChainSpec,
    DenseOperator,
    DimensionCapError,
    block_sites,
    clock_shift,
    gauge_project,
    gauge_unitary,
    op_norm,
    realize,
    refined_gauge_unitary,
    sector_decompose,
)
from grading_lab.weyl import AlgebraElement, WeylMonomial, gauge_project_symbolic, mono_mul

from test_weyl import random_element, random_monomial


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def charged_monomial(rng, d, L, q):
    """Random monomial with a label on every site and total shift charge q."""
    labels = {x: (int(rng.integers(0, d)), int(rng.integers(0, d))) for x in range(L)}
    rest = sum(l for x, (_, l) in labels.items() if x < L - 1)
    labels[L - 1] = (labels[L - 1][0], (q - rest) % d)
    return WeylMonomial.from_labels(d, labels, int(rng.integers(0, 2 * d)))


def forbid_full_matrix(monkeypatch):
    """Make any assembly of a full d^L x d^L matrix fail the test."""

    def assembled(op):
        raise AssertionError("assembled a full d^L x d^L matrix")

    monkeypatch.setattr(DenseOperator, "entries", property(assembled))


def block_bits(blocks):
    """Key order, dtype, shape and raw bytes of every block: equal only when bit for bit equal."""
    return [(key, blk.dtype, blk.shape, blk.tobytes()) for key, blk in blocks.items()]


def signed_zero_blocks(rng, keys, m):
    """Complex Gaussian blocks whose first row holds zeros of both signs in both parts."""
    out = {}
    for key in keys:
        blk = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        blk[0, ::2] = complex(-0.0, -0.0)
        blk[0, 1::2] = complex(0.0, -0.0)
        out[key] = blk
    return out


def random_operator(rng, chain):
    """Every charge block (r, c) filled with complex Gaussian entries."""
    m = chain.dim // chain.d
    return DenseOperator(chain, {
        (r, c): rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for r in range(chain.d)
        for c in range(chain.d)
    })


class TestChainSpec:
    def test_cap_binds_dense_only(self):
        big = ChainSpec(3, 10)  # symbolic use is fine
        assert big.dim == 3**10
        with pytest.raises(DimensionCapError):
            realize(WeylMonomial.identity(3), big)

    def test_cap_boundary(self):
        ChainSpec(2, 12).check_dense()  # 4096 == cap
        with pytest.raises(DimensionCapError):
            ChainSpec(2, 13).check_dense()

    def test_invalid_chain(self):
        with pytest.raises(ValueError):
            ChainSpec(1, 3)


class TestClockShift:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_weyl_commutation(self, d):
        D, S = clock_shift(d)
        w = np.exp(2j * np.pi / d)
        assert np.abs(D.entries @ S.entries - w * S.entries @ D.entries).max() < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_order_d(self, d):
        D, S = clock_shift(d)
        assert np.abs(np.linalg.matrix_power(D.entries, d) - np.eye(d)).max() < 1e-14
        assert np.abs(np.linalg.matrix_power(S.entries, d) - np.eye(d)).max() < 1e-14

    def test_qubit_case(self):
        D, S = clock_shift(2)
        assert np.abs(D.entries - np.diag([1, -1])).max() < 1e-15
        assert np.abs(S.entries - np.array([[0, 1], [1, 0]])).max() < 1e-15
        anti = D.entries @ S.entries + S.entries @ D.entries
        assert np.abs(anti).max() < 1e-15


class TestRealize:
    def test_identity(self):
        chain = ChainSpec(3, 3)
        got = realize(AlgebraElement.identity(3), chain).entries
        assert np.abs(got - np.eye(27)).max() == 0.0

    def test_clock_spectrum(self):
        chain = ChainSpec(3, 4)
        m = realize(WeylMonomial.single(3, 0, 1, 0), chain).entries
        vals = np.sort_complex(np.linalg.eigvals(m))
        roots = np.sort_complex(np.repeat(np.exp(2j * np.pi * np.arange(3) / 3), 27))
        assert np.abs(vals - roots).max() < 1e-10

    def test_homomorphism_200_pairs(self):
        rng = np.random.default_rng(20)
        chain = ChainSpec(3, 5)
        worst = 0.0
        for _ in range(200):
            a = random_monomial(rng, 3, 5)
            b = random_monomial(rng, 3, 5)
            lhs = realize(mono_mul(a, b), chain).entries
            rhs = realize(a, chain).entries @ realize(b, chain).entries
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert worst < 1e-12

    def test_kron_cross_check(self):
        # independent tensor-product construction of a two-site monomial
        d = 3
        chain = ChainSpec(d, 2)
        D, S = clock_shift(d)
        w = np.exp(-1j * np.pi * 2 * 1 / d)
        site0 = w * np.linalg.matrix_power(D.entries, 2) @ S.entries
        ref = np.kron(site0, S.entries)
        got = realize(WeylMonomial.from_labels(d, {0: (2, 1), 1: (0, 1)}), chain).entries
        assert np.abs(got - ref).max() < 1e-13

    @pytest.mark.parametrize("d, L", [(2, 4), (3, 3)])
    def test_kron_cross_check_random(self, d, L):
        # seeded multi-site monomials of every shift charge against Kronecker
        # products of the single-site clock and shift matrices
        rng = np.random.default_rng(40 + d)
        D, S = (op.entries for op in clock_shift(d))
        chain = ChainSpec(d, L)
        for q in range(d):
            for _ in range(4):
                mono = charged_monomial(rng, d, L, q)
                labels = mono.labels()
                ref = np.array([[mono.phase_factor()]])
                for x in range(L):
                    k, l = labels.get(x, (0, 0))
                    # W(k, l) = exp(-i*pi*k*l/d) D^k S^l
                    site = np.linalg.matrix_power(D, k) @ np.linalg.matrix_power(S, l)
                    ref = np.kron(ref, np.exp(-1j * np.pi * k * l / d) * site)
                assert np.abs(realize(mono, chain).entries - ref).max() < 1e-13

    @pytest.mark.parametrize("d, L", [(2, 4), (3, 3)])
    def test_block_structure(self, d, L):
        # a charge-q monomial fills exactly the blocks (c + q, c), one entry per column
        rng = np.random.default_rng(50 + d)
        chain = ChainSpec(d, L)
        for q in range(d):
            op = realize(charged_monomial(rng, d, L, q), chain)
            assert set(op.blocks) == {((c + q) % d, c) for c in range(d)}
            for blk in op.blocks.values():
                assert blk.shape == (d ** (L - 1),) * 2
                assert (np.count_nonzero(blk, axis=0) == 1).all()
        zero = realize(AlgebraElement.zero(d), chain)
        assert zero.blocks == {}
        assert not zero.entries.any()

    def test_cancelled_block_left_out(self):
        # the all-site clock string is +1 on the even sector and -1 on the odd
        # one, so subtracting the identity cancels block (0, 0) exactly
        chain = ChainSpec(2, 4)
        parity = WeylMonomial.from_labels(2, {x: (1, 0) for x in range(4)}).as_element()
        op = realize(parity - AlgebraElement.identity(2), chain)
        assert set(op.blocks) == {(1, 1)}
        assert np.abs(op.blocks[1, 1] + 2 * np.eye(8)).max() < 1e-15

    def test_support_outside_chain(self):
        with pytest.raises(ValueError):
            realize(WeylMonomial.single(3, 5, 1, 0), ChainSpec(3, 3))

    def test_commutator_realization(self):
        rng = np.random.default_rng(21)
        chain = ChainSpec(3, 5)
        for _ in range(5):
            a, b = random_element(rng, 3, 5), random_element(rng, 3, 5)
            lhs = realize(a.commutator(b), chain).entries
            ad, bd = realize(a, chain).entries, realize(b, chain).entries
            assert np.abs(lhs - (ad @ bd - bd @ ad)).max() < 1e-12


class TestBlockDifference:
    @pytest.mark.parametrize("scale", [1.0, -1.0, 0.3 - 0.7j], ids=["one", "minus_one", "complex"])
    def test_matches_expression_bit_for_bit(self, scale):
        # DenseOperator.sub: (0, 0) only in x, (0, 1) in both, (1, 0) only in
        # y; subtracting scale * 0.0 from an x-only block can flip the sign
        # of its zeros
        rng = np.random.default_rng(31)
        chain = ChainSpec(2, 4)
        x = signed_zero_blocks(rng, [(0, 0), (0, 1)], m=8)
        y = signed_zero_blocks(rng, [(0, 1), (1, 0)], m=8)
        before = block_bits(x), block_bits(y)
        got = DenseOperator(chain, x).sub(DenseOperator(chain, y), scale).blocks
        assert (block_bits(x), block_bits(y)) == before
        want = {key: x.get(key, 0.0) - scale * y.get(key, 0.0) for key in x.keys() | y.keys()}
        assert block_bits(got) == block_bits(want)
        assert not any(np.shares_memory(blk, src) for blk in got.values() for src in (*x.values(), *y.values()))


class TestOpNorm:
    def test_identity(self):
        assert abs(op_norm(DenseOperator.identity(ChainSpec(2, 3))) - 1.0) < 1e-14

    def test_unitary_monomials(self):
        rng = np.random.default_rng(22)
        chain = ChainSpec(3, 4)
        for _ in range(10):
            m = realize(random_monomial(rng, 3, 4), chain)
            assert abs(op_norm(m) - 1.0) < 1e-10

    def test_homogeneity(self):
        rng = np.random.default_rng(23)
        chain = ChainSpec(2, 4)
        a = realize(random_element(rng, 2, 4), chain)
        na = op_norm(a)
        assert abs(op_norm(a.scale(-2.5j)) - 2.5 * na) < 1e-10 * max(1, na)

    @pytest.mark.parametrize("case", ["random_dim729", "near_degenerate_dim512"])
    def test_matches_full_svd(self, case):
        if case == "random_dim729":
            rng = np.random.default_rng(24)
            op = realize(random_element(rng, 3, 6, terms=4), ChainSpec(3, 6))
            m = op.entries
        else:
            # adjacent singular values about 2e-5 apart: power iteration converges slowly
            rng = np.random.default_rng(26)
            u, v = haar_unitary(rng, 512), haar_unitary(rng, 512)
            m = (u * np.linspace(1.0, 0.99, 512)[None, :]) @ v.conj().T
            op = DenseOperator(ChainSpec(2, 10), {(0, 0): m})
        exact = float(np.linalg.norm(m, 2))
        assert abs(op_norm(op) - exact) <= 1e-12 * exact

    def test_zero_matrix(self):
        chain = ChainSpec(2, 2)
        assert op_norm(DenseOperator(chain, {})) == 0.0

    @pytest.mark.parametrize("d, L", [(2, 4), (3, 3)])
    def test_disjoint_sectors_take_block_norms(self, monkeypatch, d, L):
        # blocks (c + q, c) of one charge q act on orthogonal sectors: the
        # norm is the largest block norm and no full matrix is assembled
        rng = np.random.default_rng(27 + d)
        chain = ChainSpec(d, L)
        full = random_operator(rng, chain)
        for q in range(d):
            op = DenseOperator(chain, {key: blk for key, blk in full.blocks.items() if (key[0] - key[1]) % d == q})
            exact = float(np.linalg.norm(op.entries, 2))
            with monkeypatch.context() as patch:
                forbid_full_matrix(patch)
                assert abs(op_norm(op) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("d, L", [(2, 4), (3, 3)])
    def test_shared_sectors_take_assembled_norm(self, monkeypatch, d, L):
        # the block matrix over the touched sectors is a row and column
        # permutation of the site-basis matrix with empty sectors left out:
        # same norm, and no full matrix is assembled
        rng = np.random.default_rng(29 + d)
        chain = ChainSpec(d, L)
        full = random_operator(rng, chain)
        # two blocks in one column sector, a chain of blocks through sectors
        # d-1, 1 and 0, and every block
        keys = ((0, 0), (1, 0)), ((0, 1), (d - 1, 1), (d - 1, 0)), tuple(full.blocks)
        for op in (DenseOperator(chain, {key: full.blocks[key] for key in ks}) for ks in keys):
            exact = float(np.linalg.norm(op.entries, 2))
            with monkeypatch.context() as patch:
                forbid_full_matrix(patch)
                got = op_norm(op)
                assert abs(got - exact) <= 1e-12 * exact
                assert got > max(op_norm(DenseOperator(chain, {key: blk})) for key, blk in op.blocks.items())


class TestGaugeProject:
    def test_symbolic_examples(self):
        d = 3
        inv = WeylMonomial.single(d, 0, 1, 0).as_element()
        assert gauge_project(inv).isclose(inv, 1e-15)
        charged = WeylMonomial.single(d, 1, 0, 1).as_element()
        assert gauge_project(charged).isclose(AlgebraElement.zero(d), 1e-15)

    def test_dense_matches_symbolic(self):
        rng = np.random.default_rng(25)
        chain = ChainSpec(3, 4)
        a = random_element(rng, 3, 4, terms=6)
        lhs = gauge_project(realize(a, chain)).entries
        rhs = realize(gauge_project_symbolic(a), chain).entries
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dense_idempotent(self):
        rng = np.random.default_rng(26)
        chain = ChainSpec(2, 4)
        m = random_operator(rng, chain)
        p = gauge_project(m)
        assert np.abs(gauge_project(p).entries - p.entries).max() < 1e-12

    def test_dense_charged_monomial_is_exactly_zero(self):
        # the average over the d gauge conjugations cancels a charge-1 entry
        # exactly; the projection keeps no round-off residue
        chain = ChainSpec(3, 4)
        m = realize(WeylMonomial.single(3, 1, 0, 1), chain)
        assert not gauge_project(m).entries.any()
        inv = realize(WeylMonomial.from_labels(3, {0: (1, 1), 2: (0, 2)}), chain)
        assert np.array_equal(gauge_project(inv).entries, inv.entries)

    def test_average_form_matches_explicit_conjugation(self):
        rng = np.random.default_rng(27)
        chain = ChainSpec(3, 3)
        m = random_operator(rng, chain)
        g = gauge_unitary(chain).entries
        acc = np.zeros_like(m.entries)
        for j in range(3):
            gj = np.linalg.matrix_power(g, j)
            acc += gj @ m.entries @ gj.conj().T
        assert np.abs(gauge_project(m).entries - acc / 3).max() < 1e-12


class TestSectors:
    def test_ranks_sum(self):
        chain = ChainSpec(3, 4)
        projs = sector_decompose(chain)
        ranks = [int(round(np.trace(p.entries).real)) for p in projs]
        assert sum(ranks) == 81
        assert ranks == [27, 27, 27]

    def test_d2_l2_ranks(self):
        ranks = [int(round(np.trace(p.entries).real)) for p in sector_decompose(ChainSpec(2, 2))]
        assert ranks == [2, 2]

    def test_orthogonal_complete(self):
        chain = ChainSpec(3, 3)
        projs = [p.entries for p in sector_decompose(chain)]
        total = sum(projs)
        assert np.abs(total - np.eye(27)).max() < 1e-12
        for i in range(3):
            for j in range(3):
                prod = projs[i] @ projs[j]
                ref = projs[i] if i == j else np.zeros_like(prod)
                assert np.abs(prod - ref).max() < 1e-12

    def test_unit_sector_mapping(self):
        # matrix units move charge c -> c + (j - k) mod d; d=3, L=3
        from grading_lab.weyl import matrix_unit

        chain = ChainSpec(3, 3)
        projs = [p.entries for p in sector_decompose(chain)]
        worst = 0.0
        for j in range(3):
            for k in range(3):
                m = realize(matrix_unit(3, j, k, 1), chain).entries
                for c in range(3):
                    target = (c + j - k) % 3
                    mp = m @ projs[c]
                    worst = max(worst, float(np.abs(mp - projs[target] @ mp).max()))
        assert worst < 1e-12


class TestBlocking:
    def test_k1_identity(self):
        rng = np.random.default_rng(28)
        chain = ChainSpec(2, 3)
        a = random_element(rng, 2, 3)
        blocked, rep = block_sites(a, 1, chain)
        assert rep.dense_deviation < 1e-14
        assert blocked.isclose(a, 1e-12)

    def test_d2_k2_l4_identity(self):
        rng = np.random.default_rng(29)
        chain = ChainSpec(2, 4)
        a = random_element(rng, 2, 4, terms=4)
        _, rep = block_sites(a, 2, chain)
        assert rep.dense_deviation < 1e-15

    def test_projector_containment(self):
        chain = ChainSpec(2, 4)
        _, rep = block_sites(AlgebraElement.identity(2), 2, chain)
        assert rep.containment_samples == 16
        assert rep.containment_deviation < 1e-12
        assert rep.refined_gauge_order == 4
        assert rep.blocked_clock_order == 4

    def test_projector_containment_exact(self):
        rng = np.random.default_rng(1011)
        for d, L, k in ((2, 4, 2), (3, 2, 2)):
            _, rep = block_sites(random_element(rng, d, L, terms=3), k, ChainSpec(d, L))
            assert rep.containment_deviation == 0.0

    def test_refined_gauge_root_of_plain(self):
        chain = ChainSpec(2, 4)
        g = gauge_unitary(chain).entries
        gr = refined_gauge_unitary(chain, 2).entries
        assert np.abs(np.linalg.matrix_power(gr, 2) - g).max() < 1e-13

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError):
            block_sites(AlgebraElement.identity(2), 3, ChainSpec(2, 4))

    def test_d3_k2_identity(self):
        rng = np.random.default_rng(30)
        chain = ChainSpec(3, 2)
        a = random_element(rng, 3, 2, terms=3)
        _, rep = block_sites(a, 2, chain)
        assert rep.dense_deviation < 1e-14
