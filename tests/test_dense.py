"""Dense oracle layer: realization, norms, sectors, gauge, blocking."""

import sys

import numpy as np
import pytest

import grading_lab.dense as dense
import grading_lab.dressing as dressing
import grading_lab.dynamics as dynamics
from grading_lab.dense import (
    HERMITICITY_TILE,
    ChainSpec,
    DenseOperator,
    DimensionCapError,
    action_deviation,
    action_distance,
    action_product,
    action_vdot,
    adjoint_action,
    block_sites,
    dense_actions,
    gauge_project,
    gauge_unitary,
    op_norm,
    realize,
    refined_gauge_unitary,
    sector_decompose,
)
from grading_lab.dynamics import QuadraticModel
from grading_lab.oneparticle import Hopping
from grading_lab.weyl import AlgebraElement, GradingParams, WeylMonomial, mono_adjoint, mono_mul, roots

from test_weyl import isclose, random_element, random_monomial


def clock_shift(d):
    """Single-site clock D = diag(w^t), w = exp(2i*pi/d), and cyclic shift S |t> = |t+1 mod d>, built in numpy."""
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d)), np.roll(np.eye(d), 1, axis=0)


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

    def test_digits_cached_and_read_only(self):
        chain = ChainSpec(3, 4)
        digits = chain.digits()
        assert chain.digits() is digits and not digits.flags.writeable
        assert digits[:, 2 * 27 + 1 * 3 + 2].tolist() == [2, 0, 1, 2]

    def test_invalid_chain(self):
        with pytest.raises(ValueError):
            ChainSpec(1, 3)
        for cap in (0, -5):
            with pytest.raises(ValueError, match="cap must be >= 1"):
                ChainSpec(2, 3, cap=cap)


class TestClockShift:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_weyl_commutation(self, d):
        D, S = clock_shift(d)
        w = np.exp(2j * np.pi / d)
        assert np.abs(D @ S - w * S @ D).max() < 1e-13
        # the one-site realizations of W(1, 0) and W(0, 1) are D and S
        chain = ChainSpec(d, 1)
        assert np.abs(realize(WeylMonomial.single(d, 0, 1, 0), chain).entries - D).max() < 1e-15
        assert np.array_equal(realize(WeylMonomial.single(d, 0, 0, 1), chain).entries, S)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_order_d(self, d):
        D, S = clock_shift(d)
        assert np.abs(np.linalg.matrix_power(D, d) - np.eye(d)).max() < 1e-14
        assert np.abs(np.linalg.matrix_power(S, d) - np.eye(d)).max() < 1e-14

    def test_qubit_case(self):
        D, S = clock_shift(2)
        assert np.abs(D - np.diag([1, -1])).max() < 1e-15
        assert np.abs(S - np.array([[0, 1], [1, 0]])).max() < 1e-15
        anti = D @ S + S @ D
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
        site0 = w * np.linalg.matrix_power(D, 2) @ S
        ref = np.kron(site0, S)
        got = realize(WeylMonomial.from_labels(d, {0: (2, 1), 1: (0, 1)}), chain).entries
        assert np.abs(got - ref).max() < 1e-13

    @pytest.mark.parametrize("d, L", [(2, 4), (3, 3)])
    def test_kron_cross_check_random(self, d, L):
        # seeded multi-site monomials of every shift charge against Kronecker
        # products of the single-site clock and shift matrices
        rng = np.random.default_rng(40 + d)
        D, S = clock_shift(d)
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

    def test_blocks_own_their_data(self):
        # each block is its own array, so dropping one frees it; the clock
        # string minus the identity cancels block (0, 0), which is left out
        chain = ChainSpec(3, 3)
        clock = WeylMonomial.from_labels(3, {x: (1, 0) for x in range(3)}).as_element()
        charged = AlgebraElement.from_monomials(
            [(0.5, WeylMonomial.single(3, 0, 1, 1)), (0.25j, WeylMonomial.from_labels(3, {1: (0, 2), 2: (2, 0)}))], 3
        )
        op = realize(clock - AlgebraElement.identity(3) + charged, chain)
        assert set(op.blocks) == {(r, c) for r in range(3) for c in range(3)} - {(0, 0)}
        assert all(blk.base is None for blk in op.blocks.values())

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
    def test_matches_expression_bit_for_bit(self):
        # X - Y: (0, 0) only in x, (0, 1) in both, (1, 0) only in y, an absent
        # block read as 0.0, so the signed zeros of a one-sided block follow
        # the expression
        rng = np.random.default_rng(31)
        chain = ChainSpec(2, 4)
        x = signed_zero_blocks(rng, [(0, 0), (0, 1)], m=8)
        y = signed_zero_blocks(rng, [(0, 1), (1, 0)], m=8)
        before = block_bits(x), block_bits(y)
        got = (DenseOperator(chain, x) - DenseOperator(chain, y)).blocks
        assert (block_bits(x), block_bits(y)) == before
        want = {key: x.get(key, 0.0) - y.get(key, 0.0) for key in x.keys() | y.keys()}
        assert block_bits(got) == block_bits(want)
        assert not any(np.shares_memory(blk, src) for blk in got.values() for src in (*x.values(), *y.values()))


def per_site_action(mono, chain):
    """``monomial_action`` with the digits gathered and reduced site by site: the arithmetic the site tables hold."""
    d, sectors = chain.d, chain.sectors()
    target = sectors.copy()
    q = np.full(sectors.shape, mono.phase, dtype=np.int64)
    for x, (k, l) in mono.sites:
        t = chain.digits()[x][sectors]
        target += ((t + l) % d - t) * d ** (chain.L - 1 - x)
        q += 2 * k * (t + l) - k * l
    return chain.positions()[target], np.array(roots(d))[q % (2 * d)]


class TestMonomialAction:
    @pytest.mark.parametrize("d, L", [(2, 6), (3, 4), (4, 3), (5, 3), (2, 12)])
    def test_tables_give_the_per_site_arithmetic(self, d, L):
        # the same integers summed in another order, so the rows are equal
        # and the phases, read from one table by the same exponents, bit for bit
        rng = np.random.default_rng(60 + 10 * d + L)
        chain = ChainSpec(d, L)
        monos = [random_monomial(rng, d, L) for _ in range(40)]
        monos += [charged_monomial(rng, d, L, q) for q in range(d)]  # a label on every site
        monos += [
            WeylMonomial.identity(d),
            WeylMonomial.identity(d, phase=2 * d - 1),
            WeylMonomial.from_labels(d, {x: (int(rng.integers(1, d)), 0) for x in range(L)}, 1),  # clocks only
            WeylMonomial.from_labels(d, {x: (0, int(rng.integers(1, d))) for x in range(L)}, 1),  # shifts only
        ]
        for mono in monos:
            rows, phases = dense.monomial_action(mono, chain)
            want_rows, want_phases = per_site_action(mono, chain)
            assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape and (rows == want_rows).all(), str(mono)
            assert phases.dtype == want_phases.dtype and phases.tobytes() == want_phases.tobytes(), str(mono)

    @pytest.mark.parametrize("d, L", [(2, 3), (3, 2), (5, 1)])
    def test_site_tables_are_cached_and_read_only(self, d, L):
        chain = ChainSpec(d, L)
        tables = chain.site_tables()
        assert chain.site_tables() is tables and len(tables) == 2
        for table in tables:
            assert table.shape == (L, d, d, d ** (L - 1))
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0, 0] = 1


ACTION_CHAINS = pytest.mark.parametrize("d, L", [(2, 5), (3, 4), (4, 3)])


def inject(monkeypatch, module, name, defect):
    """Replace ``module.name`` by defect(original) in every grading_lab module that binds it, as the one function would be broken."""
    original = getattr(module, name)
    broken = defect(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "grading_lab" or mod_name.startswith("grading_lab."):
            for binding, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, binding, broken)


def forbid_realize(monkeypatch):
    """Make realize raise in every grading_lab module that binds it."""
    def unreachable(*args):
        raise AssertionError("realized a chain")

    inject(monkeypatch, dense, "realize", lambda original: unreachable)


def scattered(actions, chain):
    """The d^L x d^L matrix of an element read as actions: each permutation's entries added at its places."""
    flat = chain.sectors()
    out = np.zeros((chain.dim, chain.dim), dtype=complex)
    for rows, values, q in actions:
        for c in range(chain.d):
            np.add.at(out, (flat[(c + q) % chain.d][rows[c]], flat[c]), values[c])
    return out


def action_pairs(d, L):
    """Seeded element pairs at d, L: several shift vectors each, shared complex terms, a clock sum whose entries cancel to exact zeros, one charge on other rows, and the zero element."""
    rng = np.random.default_rng(90 + d)
    # sum_k W_0(k, 0) is d |0><0| at site 0: 1 + w + ... + w^(d-1) cancels exactly off t_0 = 0
    cancelling = AlgebraElement.from_monomials([(1.0, WeylMonomial.single(d, 0, k, 0)) for k in range(d)], d)
    shared = random_element(rng, d, L, terms=4)
    return {
        "mixed": (random_element(rng, d, L, terms=5), random_element(rng, d, L, terms=5)),
        "overlapping": (shared, shared + random_element(rng, d, L, terms=3)),
        "cancelling": (cancelling + random_element(rng, d, L, terms=2), cancelling),
        "other rows": (WeylMonomial.single(d, 0, 1, 1).as_element(), WeylMonomial.single(d, L - 1, 0, 1).as_element()),
        "zero": (random_element(rng, d, L, terms=3), AlgebraElement.zero(d)),
    }


class TestActions:
    @ACTION_CHAINS
    def test_deviation_is_the_realized_difference(self, d, L):
        # y against x: the same rows and charge (a clock string times x), the
        # same charge on other rows (a shift moved from site 1 to site 0), and
        # another charge (one more shift); realize holds exactly the entries
        # dense_actions reads, so the two values agree bit for bit
        rng = np.random.default_rng(70 + d)
        chain = ChainSpec(d, L)
        for q in range(d):
            x = charged_monomial(rng, d, L, q)
            clocks = WeylMonomial.from_labels(d, {z: (int(rng.integers(1, d)), 0) for z in range(L)}, int(rng.integers(0, 2 * d)))
            cases = {
                "same rows": mono_mul(clocks, x),
                "other rows": mono_mul(WeylMonomial.from_labels(d, {0: (0, 1), 1: (0, -1)}), x),
                "other charge": mono_mul(WeylMonomial.single(d, 0, 0, 1), x),
            }
            (ax,) = dense_actions(x, chain)
            for case, y in cases.items():
                (ay,) = dense_actions(y, chain)
                assert (ax[0] == ay[0]).all() == (case == "same rows"), case
                assert ((ax[2] - ay[2]) % d == 0) == (case != "other charge"), case
                got = action_deviation([ax], [ay])
                assert got == (realize(x, chain) - realize(y, chain)).max_abs() > 0.0, case
            assert action_deviation([ax], [ax]) == 0.0

    @ACTION_CHAINS
    def test_adjoint_is_the_conjugate_transpose(self, d, L):
        rng = np.random.default_rng(80 + d)
        chain = ChainSpec(d, L)
        for q in range(d):
            x = charged_monomial(rng, d, L, q)
            (action,) = dense_actions(x, chain)
            rows, phases, charge = adjoint_action(action)
            assert charge == -q % d
            want = realize(x, chain).entries.conj().T
            got = realize(mono_adjoint(x), chain).entries
            assert np.abs(got - want).max() < 1e-15
            assert action_deviation([(rows, phases, charge)], dense_actions(mono_adjoint(x), chain)) < 1e-15
            flat = chain.sectors()
            for c in range(d):
                assert np.array_equal(want[flat[(c + charge) % d][rows[c]], flat[c]], phases[c])

    @ACTION_CHAINS
    def test_element_actions_are_realize(self, d, L):
        # one permutation per shift vector, summed as realize sums it, so the
        # scattered entries are realize's bit for bit; the clock sum leaves
        # zeros inside a permutation, exact where w's powers are +-1 and +-i
        chain = ChainSpec(d, L)
        for case, (a, b) in action_pairs(d, L).items():
            for element in (a, b):
                actions = dense_actions(element, chain)
                shifts = {tuple((x, l) for x, (_, l) in mono.sites if l) for _, mono in element.monomials()}
                assert len(actions) == len(shifts), case
                assert np.array_equal(scattered(actions, chain), realize(element, chain).entries), case
        (values,) = [v for _, v, _ in dense_actions(action_pairs(d, L)["cancelling"][1], chain)]
        zeros = values.size - values.size // d
        assert (np.abs(values) < 1e-15).sum() == zeros
        if d in (2, 4):
            assert (values == 0.0).sum() == zeros

    @ACTION_CHAINS
    def test_helpers_are_the_realized_arithmetic(self, d, L):
        # product, inner product, largest entry and Hilbert-Schmidt norm of a
        # difference against realize's @, vdot, - then max_abs, and the norm
        # of the difference; the largest entry is read from the same sums,
        # so it agrees bit for bit
        chain = ChainSpec(d, L)
        for case, pair in action_pairs(d, L).items():
            scale = max(1.0, *(np.abs(realize(e, chain).entries).max() for e in pair)) ** 2
            for x, y in (pair, pair[::-1]):
                xs, ys = dense_actions(x, chain), dense_actions(y, chain)
                xd, yd = realize(x, chain), realize(y, chain)
                assert action_deviation(xs, ys) == (xd - yd).max_abs(), case
                assert abs(action_distance(xs, ys) - np.linalg.norm((xd - yd).entries)) <= 1e-12 * scale, case
                assert abs(action_vdot(xs, ys) - np.vdot(xd.entries, yd.entries)) <= 1e-12 * scale * chain.dim, case
                product = action_product(xs, ys)
                assert np.abs(scattered(product, chain) - (xd @ yd).entries).max() <= 1e-13 * scale, case
                # the composed pairs are summed into one permutation per shift vector
                assert len({(q % d, rows.tobytes()) for rows, _, q in product}) == len(product), case
        assert action_deviation([], []) == action_distance([], []) == 0.0 and action_product([], []) == []

    def test_dressing_rows_realize_nothing(self, monkeypatch):
        # at d = 2, L = 12 the two rows read (2, 2048) arrays, with no block formed
        forbid_realize(monkeypatch)
        params, chain = GradingParams(2, 1, 1), ChainSpec(2, 12)
        sd = dressing.shift_covariance_defect(3, params, chain)
        assert set(sd.defect.support()) <= set(range(4)) and sd.dense_deviation == 0.0
        # both sides of the pair expansion live on sites 1..3, so the 12-site
        # row reads what the 5-site row reads
        bc, small = (dressing.bilinear_connection(1, 3, params, ch) for ch in (chain, ChainSpec(2, 5)))
        assert (bc.deviation, bc.correction) == (small.deviation, small.correction)
        assert bc.deviation == 2.0

    @pytest.mark.parametrize("d, L", [(2, 12), (3, 7)])
    def test_audit_rows_realize_nothing(self, monkeypatch, d, L):
        # the unit exchange, the claim audit and the gauge row at the dense
        # cap, with realize raising in every binding: each reads what it
        # reads on a 5-site chain
        params = GradingParams(d, 1, 1)
        hopping = Hopping({1: -0.0625j, -1: 0.0625j} if d == 2 else {1: 0.5, -1: 0.5})

        def rows(chain):
            rep = dressing.dressed_commutation_report(0, 1, 0, 1, 1, 0, params, chain)
            claims = [(r.claim_id, r.status) for r in dynamics.claimed_commutator_audit(params, chain, x=1, z=2)]
            return rep.status, rep.oracle_phase, claims, dynamics.gauge_invariance_defect(QuadraticModel(chain, params, hopping))

        status, phase, claims, gauge = rows(ChainSpec(d, 5))
        forbid_realize(monkeypatch)
        got = rows(ChainSpec(d, L))
        assert (got[0], got[2], got[3]) == (status, claims, gauge) == (got[0], got[2], 0.0)
        assert abs(got[1] - phase) < 1e-12


class TestHermiticityDefect:
    def test_matches_full_difference(self):
        # blocks (0, 2) and (2, 1) have no partner and count in full
        rng = np.random.default_rng(33)
        chain = ChainSpec(3, 3)
        keys = [(0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (2, 1)]
        x = DenseOperator(chain, signed_zero_blocks(rng, keys, m=9))
        x_dag = DenseOperator(chain, {(c, r): blk.conj().T for (r, c), blk in x.blocks.items()})
        assert x.hermiticity_defect() == (x - x_dag).max_abs() > 0.0
        # X + X^dag is exactly hermitian: each entry is a + conj(b) against conj(b) + a
        keys = x.blocks.keys() | x_dag.blocks.keys()
        x_plus = DenseOperator(chain, {key: x.blocks.get(key, 0.0) + x_dag.blocks.get(key, 0.0) for key in keys})
        assert x_plus.hermiticity_defect() == 0.0
        assert DenseOperator(chain, {}).hermiticity_defect() == 0.0

    def test_tiles_match_the_assembled_difference(self):
        # blocks of two tiles and a part: the tiles read every entry once, so
        # the defect is that of the assembled matrix, bit for bit; block (0, 2)
        # has no partner and counts in full, and the largest defect sits in
        # the last, partial tile of block (0, 1)
        rng = np.random.default_rng(34)
        n = 2 * HERMITICITY_TILE + 5
        chain = ChainSpec(3, 5)  # 243 states hold three parts of n
        x = DenseOperator(chain, signed_zero_blocks(rng, [(0, 0), (1, 1), (0, 1), (1, 0), (0, 2)], m=n))
        x.blocks[0, 1][-1, 3] += 100.0
        full = x.entries
        want = np.abs(full - full.conj().T).max()
        assert x.hermiticity_defect() == want > 90.0
        x.blocks[0, 1][-1, 3] -= 100.0
        full = x.entries
        assert x.hermiticity_defect() == np.abs(full - full.conj().T).max() > 0.0


class TestOpNorm:
    def test_identity(self):
        assert abs(op_norm(realize(AlgebraElement.identity(2), ChainSpec(2, 3))) - 1.0) < 1e-14

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
        scaled = DenseOperator(chain, {key: -2.5j * blk for key, blk in a.blocks.items()})
        assert abs(op_norm(scaled) - 2.5 * na) < 1e-10 * max(1, na)

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
    def test_dense_matches_symbolic(self):
        # the dense projection realizes the element's charge-0 monomials
        rng = np.random.default_rng(25)
        chain = ChainSpec(3, 4)
        a = random_element(rng, 3, 4, terms=6)
        lhs = gauge_project(realize(a, chain)).entries
        charge0 = AlgebraElement(3, {key: c for key, c in a.terms.items() if WeylMonomial(3, key, 0).charge() == 0})
        rhs = realize(charge0, chain).entries
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


    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_gauge_unitary_is_clock_string(self, d, L):
        chain = ChainSpec(d, L)
        want = np.diag(np.exp(2j * np.pi * chain.digit_sums() / d))
        assert np.abs(gauge_unitary(chain).entries - want).max() < 1e-14


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
        assert isclose(blocked, a, 1e-12)

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

    @pytest.mark.parametrize("k", [0, -2])
    def test_block_size_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"block size k must be >= 1, got k = {k}"):
            block_sites(AlgebraElement.identity(2), k, ChainSpec(2, 4))

    def test_d3_k2_identity(self):
        rng = np.random.default_rng(30)
        chain = ChainSpec(3, 2)
        a = random_element(rng, 3, 2, terms=3)
        _, rep = block_sites(a, 2, chain)
        assert rep.dense_deviation < 1e-14

    @pytest.mark.parametrize("d, L, k", [(2, 6, 3), (3, 4, 2), (4, 2, 2)])
    def test_dense_identity(self, d, L, k):
        rng = np.random.default_rng(31)
        _, rep = block_sites(random_element(rng, d, L, terms=3), k, ChainSpec(d, L))
        assert rep.dense_deviation < 1e-14

    @pytest.mark.parametrize("labels, blocked_label", [
        ({0: (0, 1)}, (0, 2)),  # slow-site shift: b -> b + 2
        ({1: (1, 0)}, (2, 0)),  # fast-site clock: (-1)^b
    ], ids=["slow_shift", "fast_clock"])
    def test_d2_k2_known_blocks(self, labels, blocked_label):
        a = WeylMonomial.from_labels(2, labels).as_element()
        blocked, rep = block_sites(a, 2, ChainSpec(2, 2))
        assert blocked.terms == {((0, blocked_label),): 1.0}
        assert rep.dense_deviation == 0.0
