"""String-dressed operators: exchange phases, units, defects, bilinears."""

import numpy as np
import pytest

from grading_lab.dense import ChainSpec, gauge_unitary, op_norm, realize
from grading_lab.dressing import (
    bilinear_connection,
    dressed_commutation_report,
    dressed_matrix_unit,
    dressed_weyl,
    dressed_weyl_rs,
    dressing_string,
    exchange_exponent,
    shift_covariance_defect,
)
from grading_lab.weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    commutation_phase,
    lattice_shift,
    mono_adjoint,
    mono_mul,
)

from test_weyl import isclose


def closes(rep):
    """The oracle's u v is one phase times v u: the residual below 1e-12, or below 1e-14 when v u vanishes."""
    return rep.residual < (1e-14 if rep.oracle_phase is None else 1e-12)


class TestDressedWeyl:
    def test_exchange_exponent_one_at_equal_params(self):
        # fixed-phase exchange for every equal pair of string exponents
        for d in (2, 3, 4, 5):
            chain = ChainSpec(d, 10)
            for j in range(1, d):
                params = GradingParams(d, j, j)
                for x in range(10):
                    for y in range(x + 1, 10):
                        a = dressed_weyl(x, 1, params, chain)
                        b = dressed_weyl(y, 1, params, chain)
                        assert commutation_phase(a, b) == 1

    def test_exchange_exponent_general(self):
        for d in (3, 5):
            chain = ChainSpec(d, 6)
            for jp in range(d):
                for jm in range(d):
                    params = GradingParams(d, jp, jm)
                    got = commutation_phase(
                        dressed_weyl(1, 1, params, chain), dressed_weyl(4, 1, params, chain)
                    )
                    assert got == exchange_exponent(params) == (1 + jp - jm) % d

    def test_dense_exchange_phase(self):
        d = 3
        params = GradingParams(d, 1, 1)
        chain = ChainSpec(d, 4)
        a = realize(dressed_weyl(0, 1, params, chain), chain).entries
        b = realize(dressed_weyl(2, 1, params, chain), chain).entries
        w = np.exp(2j * np.pi / d)
        assert np.abs(a @ b - w * b @ a).max() < 1e-12

    def test_d2_majorana(self):
        # equal-exponent d=2 dressing: anticommuting, squaring to identity
        params = GradingParams(2, 1, 1)
        chain = ChainSpec(2, 5)
        ops = [realize(dressed_weyl(x, 1, params, chain), chain).entries for x in range(5)]
        eye = np.eye(32)
        for i, a in enumerate(ops):
            assert np.abs(a @ a - eye).max() < 1e-13
            for b in ops[i + 1 :]:
                assert np.abs(a @ b + b @ a).max() < 1e-13

    def test_zero_charge_is_identity(self):
        params = GradingParams(3, 1, 2)
        chain = ChainSpec(3, 4)
        assert dressed_weyl(2, 0, params, chain) == WeylMonomial.identity(3)

    def test_power_consistency(self):
        params = GradingParams(5, 2, 3)
        chain = ChainSpec(5, 4)
        single = dressed_weyl(1, 1, params, chain)
        for s in range(5):
            assert single.pow(s) == dressed_weyl(1, s, params, chain)

    def test_site_out_of_chain(self):
        with pytest.raises(ValueError):
            dressed_weyl(4, 1, GradingParams(2, 1, 1), ChainSpec(2, 4))

    def test_pure_clock_is_undressed(self):
        # the r-label needs no string: dressed (r, 0) = W(r, 0)
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 4)
        got = dressed_weyl_rs(1, 2, 0, params, chain)
        assert got == WeylMonomial.single(3, 1, 2, 0)

    def test_charge_bookkeeping(self):
        # total label weight s + s*j+*(L-1-x) + s*(j- - 1)*x mod d
        for d in (2, 3, 5):
            chain = ChainSpec(d, 7)
            for jp in range(1, d):
                for jm in range(1, d):
                    params = GradingParams(d, jp, jm)
                    for x in (0, 3, 6):
                        for s in range(d):
                            m = dressed_weyl(x, s, params, chain)
                            expect = (s + s * jp * (chain.L - 1 - x) + s * (jm - 1) * x) % d
                            assert sum(k + l for _, (k, l) in m.sites) % d == expect
                            assert m.charge() == s % d


class TestDressedMatrixUnit:
    def test_resolution_of_identity(self):
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 4)
        tot = AlgebraElement.zero(3)
        for r in range(3):
            tot = tot + dressed_matrix_unit(2, r, r, params, chain)
        assert isclose(tot, AlgebraElement.identity(3), 1e-13)

    def test_basis_action(self):
        # maps |..., t_x = s, ...> to a phase times |..., r, ...>, else 0
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 4)
        digs = chain.digits()
        r, s, x = 0, 2, 1
        m = realize(dressed_matrix_unit(x, r, s, params, chain), chain).entries
        for v in range(chain.dim):
            col = m[:, v]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            if digs[x, v] == s:
                assert len(nz) == 1
                w = nz[0]
                assert abs(abs(col[w]) - 1.0) < 1e-12
                assert digs[x, w] == r
                others = [y for y in range(chain.L) if y != x]
                assert all(digs[y, w] == digs[y, v] for y in others)
            else:
                assert len(nz) == 0

    @pytest.mark.parametrize("d,L", [(2, 5), (3, 4)])
    def test_unit_norms(self, d, L):
        params = GradingParams(d, 1, 1)
        chain = ChainSpec(d, L)
        for x in (0, L // 2, L - 1):
            for r in range(d):
                for s in range(d):
                    got = op_norm(realize(dressed_matrix_unit(x, r, s, params, chain), chain))
                    assert abs(got - 1.0) < 1e-10

    def test_fixed_site_algebra(self):
        params = GradingParams(3, 2, 1)
        chain = ChainSpec(3, 3)
        m01 = dressed_matrix_unit(1, 0, 1, params, chain)
        m12 = dressed_matrix_unit(1, 1, 2, params, chain)
        m02 = dressed_matrix_unit(1, 0, 2, params, chain)
        assert isclose(m01 * m12, m02, 1e-12)
        m20 = dressed_matrix_unit(1, 2, 0, params, chain)
        assert isclose(m01 * m20, AlgebraElement.zero(3), 1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            dressed_matrix_unit(0, 0, 3, GradingParams(3, 1, 1), ChainSpec(3, 3))


class TestExchangeReports:
    def test_d2_fermionic_pair(self):
        # creation against annihilation at distinct sites reorders with -1
        params = GradingParams(2, 1, 1)
        chain = ChainSpec(2, 5)
        for x, y in ((1, 2), (1, 3), (0, 4)):
            rep = dressed_commutation_report(x, y, 0, 1, 1, 0, params, chain)
            assert closes(rep)
            assert abs(rep.oracle_phase + 1.0) < 1e-9

    def test_gauge_invariant_units_commute(self):
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 4)
        rep = dressed_commutation_report(0, 2, 1, 1, 2, 2, params, chain)
        assert closes(rep)
        assert abs(rep.oracle_phase - 1.0) < 1e-9

    def test_symbolic_exponent_matches_oracle(self):
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 4)
        for j, k, l, n in ((0, 1, 1, 0), (0, 2, 1, 0), (2, 0, 0, 1)):
            for x, y in ((0, 1), (0, 3), (2, 1)):
                rep = dressed_commutation_report(x, y, j, k, l, n, params, chain)
                # symbolic exponent of u v = exp(2i*pi*e/d) v u, negated for x > y
                e = (j - k) * (l - n) * exchange_exponent(params) * (1 if x < y else -1) % 3
                if closes(rep) and rep.oracle_phase is not None:
                    expect = np.exp(2j * np.pi * e / 3)
                    assert abs(rep.oracle_phase - expect) < 1e-9

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            dressed_commutation_report(1, 1, 0, 1, 1, 0, GradingParams(2, 1, 1), ChainSpec(2, 4))

    @pytest.mark.parametrize("d, L", [(2, 5), (3, 5)])
    def test_matches_site_basis_reference(self, d, L):
        # the block sums against the assembled products u v and v u
        params = GradingParams(d, 1, 1)
        chain = ChainSpec(d, L)
        for j, k, l, n in ((0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, d - 1, d - 1, 0), (1, 1, 0, 0)):
            for x, y in ((0, 1), (0, 2), (1, 3), (3, 0)):
                u = realize(dressed_matrix_unit(x, j, k, params, chain), chain).entries
                v = realize(dressed_matrix_unit(y, l, n, params, chain), chain).entries
                uv, vu = u @ v, v @ u
                phase = np.vdot(vu, uv) / np.linalg.norm(vu) ** 2
                residual = np.linalg.norm(uv - phase * vu) / np.linalg.norm(vu)
                rep = dressed_commutation_report(x, y, j, k, l, n, params, chain)
                assert abs(rep.oracle_phase - phase) < 1e-12
                assert abs(rep.residual - residual) < 1e-12
                assert closes(rep) == (residual < 1e-12)
                # the claimed phase exp(i*pi*e), e = (j-k-l+n)*(x-y), as written and with e divided by d
                e = (j - k - l + n) * (x - y)
                claimed = min(abs(phase - np.exp(1j * np.pi * e)), abs(phase - np.exp(1j * np.pi * e / d)))
                assert rep.status == ("MATCH" if claimed < 1e-9 else "MISMATCH")


class TestShiftDefect:
    def test_equal_params_support(self):
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 6)
        sd = shift_covariance_defect(4, params, chain)
        assert set(sd.defect.support()) == {0, 4}
        assert sd.defect.labels()[0] == (params.j_minus, 0)
        assert sd.defect.labels()[4] == ((-params.j_plus) % 3, 0)

    def test_x1_support(self):
        sd = shift_covariance_defect(1, GradingParams(3, 1, 2), ChainSpec(3, 5))
        assert set(sd.defect.support()) <= {0, 1}

    def test_interior_exponent(self):
        params = GradingParams(3, 1, 2)
        chain = ChainSpec(3, 6)
        sd = shift_covariance_defect(3, params, chain)
        labels = sd.defect.labels()
        for z in (1, 2):
            assert labels[z] == ((params.j_minus - params.j_plus) % 3, 0)

    def test_dense_conjugation_ratio(self):
        for d, jp, jm in ((3, 1, 2), (2, 1, 1), (4, 3, 1)):
            chain = ChainSpec(d, 5)
            sd = shift_covariance_defect(3, GradingParams(d, jp, jm), chain)
            assert sd.dense_deviation < 1e-12

    def test_truncation_mismatch_structure(self):
        # dressed(x,1) * shifted(dressed(0,1))^dag = defect * mismatch with the
        # mismatch supported on (0, x] plus the out-of-chain shadow [L, L+x)
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 6)
        x = 3
        sd = shift_covariance_defect(x, params, chain)
        a = dressed_weyl(x, 1, params, chain)
        b = mono_mul(
            WeylMonomial.single(3, x, 0, 1),
            lattice_shift(dressing_string(0, 1, params, chain), x),
        )
        lhs = mono_mul(a, mono_adjoint(b))
        # the factor picked up when dressed(0, 1) is translated instead of re-dressed
        mismatch = mono_mul(mono_mul(a, mono_adjoint(lattice_shift(dressed_weyl(0, 1, params, chain), x))),
                            mono_adjoint(sd.defect))
        assert lhs == mono_mul(sd.defect, mismatch)
        supp = set(mismatch.support())
        assert supp <= set(range(0, x + 1)) | set(range(chain.L, chain.L + x))


def dressed_bilinear(x, y, params, chain):
    """dressed(x, 1) dressed(y, 1)^dag, the left side ``bilinear_connection`` compares its claim with."""
    return mono_mul(dressed_weyl(x, 1, params, chain), mono_adjoint(dressed_weyl(y, 1, params, chain)))


class TestBilinearConnection:
    def test_gauge_invariant_and_local(self):
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 5)
        lhs = dressed_bilinear(1, 3, params, chain).as_element()
        assert lhs.is_gauge_invariant()
        assert set(lhs.support()) <= {1, 2, 3}

    def test_d2_matches_majorana_pair(self):
        # adjacent dressed bilinear against the explicit Majorana product
        params = GradingParams(2, 1, 1)
        chain = ChainSpec(2, 4)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        def site(ops):
            out = np.eye(1, dtype=complex)
            for o in ops:
                out = np.kron(out, o)
            return out
        g1 = site([eye, X, Z, Z])
        g2 = site([eye, eye, X, Z])
        assert np.abs(realize(dressed_bilinear(1, 2, params, chain), chain).entries - g1 @ g2).max() < 1e-13

    def test_claim_deviation_reported(self):
        # the correction c = lhs rhs^-1 is a clock string (both sides move the
        # same states), and the reported deviation is that of lhs and c^-1 lhs
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 5)
        bc = bilinear_connection(0, 2, params, chain)
        if bc.deviation > 1e-12:
            assert bc.correction is not None
            assert all(l == 0 for _, (_, l) in bc.correction.sites)
            lhs = dressed_bilinear(0, 2, params, chain)
            rhs = mono_mul(mono_adjoint(bc.correction), lhs)
            assert abs((realize(lhs, chain) - realize(rhs, chain)).max_abs() - bc.deviation) < 1e-12

    def test_commutes_with_gauge_unitary(self):
        params = GradingParams(3, 1, 1)
        chain = ChainSpec(3, 5)
        g = gauge_unitary(chain).entries
        m = realize(dressed_bilinear(1, 3, params, chain), chain).entries
        assert np.abs(m @ g - g @ m).max() < 1e-12
