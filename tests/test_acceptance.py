"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and nowhere else.
"""

import csv
import os
import time

import numpy as np
import scipy.linalg
from scipy.special import jv

from grading_lab.cli import main
from grading_lab.dense import ChainSpec, block_sites, gauge_project, gauge_unitary, realize, sector_decompose
from grading_lab.dressing import dressed_matrix_unit, dressed_weyl
from grading_lab.dynamics import (
    QuadraticModel,
    commutator_decay,
    gauge_invariance_defect,
    generator,
    heisenberg_evolve,
    one_particle_flow,
    smear,
    span_residual,
)
from grading_lab.oneparticle import Hopping, fit_power_law, fractional_shift, particle_shift
from grading_lab.weyl import (
    GradingParams,
    WeylMonomial,
    commutation_phase,
    mono_mul,
)

from test_weyl import random_element, random_monomial

HERE = os.path.dirname(__file__)
PRESETS = os.path.join(HERE, "..", "src", "grading_lab", "presets")
FROZEN = os.path.join(HERE, "data", "decay_d3_frozen.csv")


def preset(name):
    return os.path.join(PRESETS, name)


def announce(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_symbolic_exchange_phases():
    t0 = time.time()
    ok = True
    for d in (2, 3, 4, 5):
        chain = ChainSpec(d, 10)
        for j in range(1, d):
            params = GradingParams(d, j, j)
            ops = [dressed_weyl(x, 1, params, chain) for x in range(10)]
            for x in range(10):
                for y in range(x + 1, 10):
                    ok = ok and commutation_phase(ops[x], ops[y]) == 1
    elapsed = time.time() - t0
    announce(1, "symbolic exchange phase 2*pi/d", ok and elapsed < 10.0, f"({elapsed:.2f}s)")


def test_02_dense_symbolic_homomorphism():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    chain = ChainSpec(3, 5)
    worst = 0.0
    for _ in range(200):
        a = random_monomial(rng, 3, 5)
        b = random_monomial(rng, 3, 5)
        lhs = realize(mono_mul(a, b), chain).entries
        rhs = realize(a, chain).entries @ realize(b, chain).entries
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.time() - t0
    announce(2, "dense/symbolic homomorphism", worst < 1e-12 and elapsed < 30.0,
             f"(max dev {worst:.2e}, {elapsed:.1f}s)")


def test_03_unit_norms():
    from grading_lab.dense import op_norm

    worst = 0.0
    for d in (2, 3):
        params = GradingParams(d, 1, 1)
        for L in (2, 4, 6):
            chain = ChainSpec(d, L)
            for x in {0, L // 2, L - 1}:
                for s in range(1, d):
                    m = realize(dressed_weyl(x, s, params, chain), chain)
                    worst = max(worst, abs(op_norm(m) - 1.0))
                for r, s in ((0, 0), (0, d - 1), (1, 0), (d - 1, d - 1)):
                    m = realize(dressed_matrix_unit(x, r, s, params, chain), chain)
                    worst = max(worst, abs(op_norm(m) - 1.0))
    announce(3, "dressed operator norms are 1", worst < 1e-10, f"(max dev {worst:.2e})")


def test_04_sector_structure():
    chain = ChainSpec(3, 3)
    params = GradingParams(3, 1, 1)
    projs = [p.entries for p in sector_decompose(chain)]
    ranks = [int(round(np.trace(p).real)) for p in projs]
    ok = sum(ranks) == 27
    worst = 0.0
    for j in range(3):
        for k in range(3):
            for unit in (
                realize(dressed_matrix_unit(1, j, k, params, chain), chain).entries,
                realize(__import__("grading_lab.weyl", fromlist=["matrix_unit"]).matrix_unit(3, j, k, 1), chain).entries,
            ):
                for c in range(3):
                    target = (c + j - k) % 3
                    mp = unit @ projs[c]
                    worst = max(worst, float(np.abs(mp - projs[target] @ mp).max()))
    announce(4, "charge sector mapping", ok and worst < 1e-12, f"(max dev {worst:.2e})")


def test_05_d2_free_fermion_oracle():
    t0 = time.time()
    params = GradingParams(2, 1, 1)
    chain = ChainSpec(2, 10)
    model = QuadraticModel(chain, params, Hopping({1: -1j / 1600, -1: 1j / 1600}))
    f0 = np.zeros((2, 10), dtype=complex)
    f0[0, 4:6] = 1.0, 0.5 - 0.125j
    times = (0.5, 1.0, 1.5, 2.0)
    # the open chain's one-particle flow exp(tM) f0, M read from the symbolic H
    flows = one_particle_flow(generator(model), f0, params, times)
    field = smear(f0, params, chain)
    a0 = realize(field, chain)
    worst = 0.0
    signal = 0.0
    for t, ft in zip(times, flows):
        # the field written into the eigenbasis, phased and mapped back to the site basis
        lhs = heisenberg_evolve(field, model, t).entries
        rhs = realize(smear(ft, params, chain), chain).entries
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        signal = max(signal, float(np.abs(lhs - a0.entries).max()))
    res, _ = span_residual(model, f0)
    elapsed = time.time() - t0
    ok = worst < 1e-12 and res < 1e-10 and signal > 1e-3 and elapsed < 120.0
    announce(5, "d=2 free flow matches one-particle", ok,
             f"(flow dev {worst:.2e}, residual {res:.2e}, signal {signal:.3f}, {elapsed:.1f}s)")


def test_06_quasifree_decay():
    t0 = time.time()
    # M has entries +-1/2 on the flavour-0 bonds, so a delta at site 200 flows
    # as J_n(t) at site 200 + n until the front reaches an end of the chain
    model = QuadraticModel(ChainSpec(2, 400), GradingParams(2, 1, 1), Hopping({1: 1j / 16, -1: -1j / 16}))
    f0 = np.zeros((2, 400), dtype=complex)
    f0[0, 200] = 1.0
    times = np.linspace(10, 100, 46)
    *decay, at37, at5, at20 = one_particle_flow(generator(model), f0, model.params, [*times, 37.0, 5.0, 20.0])
    exponent = fit_power_law(times, np.array([np.abs(f).max() for f in decay]), (10, 100))
    ok_exp = -0.5 <= exponent <= -0.30
    drift = abs(np.linalg.norm(at37) - 1.0)
    worst = max(
        abs(abs(ft[0, 200 + n]) - abs(jv(n, t)))
        for t, ft in ((5.0, at5), (20.0, at20))
        for n in range(-50, 51)
    )
    elapsed = time.time() - t0
    announce(6, "dispersive sup-norm decay", ok_exp and drift < 1e-12 and worst < 1e-8 and elapsed < 60.0,
             f"(exponent {exponent:.4f}, bessel dev {worst:.2e}, l2 drift {drift:.2e}, {elapsed:.1f}s)")


def test_07_fractional_shift_dichotomy():
    rng = np.random.default_rng(1007)
    f = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    twisted = fractional_shift(fractional_shift(f, 0.5, 1), 0.5, 1)
    dev_twisted = float(np.abs(twisted - particle_shift(f, 1)).max())
    # a flat charge-1 momentum form, compared in momentum form
    flat = np.fft.ifft(np.vstack([np.zeros(16), np.ones(16)]), axis=1)
    lhs = np.fft.fft(fractional_shift(fractional_shift(flat, 0.5, 0), 0.5, 0), axis=1)
    rhs = np.fft.fft(fractional_shift(flat, 1.0, 0), axis=1)
    dev1 = np.abs(lhs[1] - rhs[1])
    ok = dev_twisted < 1e-12 and abs(dev1.max() - 2.0) < 1e-12 and np.abs(lhs[0] - rhs[0]).max() < 1e-12
    announce(7, "boundary-condition dichotomy", ok,
             f"(twisted dev {dev_twisted:.2e}, untwisted sector dev {dev1.max():.12f})")


def test_08_gauge_invariance_of_dynamics():
    from grading_lab.config import load_config

    worst = 0.0
    models = []
    for name in sorted(os.listdir(PRESETS)):
        cfg = load_config(preset(name))
        if not cfg.hopping:
            continue
        params = GradingParams(cfg.d, cfg.j_plus, cfg.j_minus)
        chain = ChainSpec(cfg.d, cfg.l)
        if not chain.dense_allowed:
            # the verify runner clamps dense work to a 5-site subchain
            chain = ChainSpec(cfg.d, min(cfg.l, 5))
        models.append(QuadraticModel(chain, params, Hopping(cfg.hopping)))
    assert len(models) >= 5
    for model in models:
        worst = max(worst, gauge_invariance_defect(model))
    # the library evolution, then the block-diagonal gauge projection, against
    # the explicit gauge average (1/d) sum_j G^j (U M U^dag) G^-j of the
    # operator conjugated by the full expm(iHt)
    t = 1.7
    model = QuadraticModel(ChainSpec(2, 6), GradingParams(2, 1, 1), Hopping({1: -0.0625j, -1: 0.0625j}))
    rng = np.random.default_rng(1008)
    element = random_element(rng, 2, 6, terms=4)
    m = realize(element, model.chain)
    evolved = heisenberg_evolve(element, model, t)
    lhs = gauge_project(evolved).entries
    u = scipy.linalg.expm(1j * t * model.dense_hamiltonian.entries)
    g = gauge_unitary(model.chain).entries
    d = model.chain.d
    mt = u @ m.entries @ u.conj().T
    powers = [np.linalg.matrix_power(g, j) for j in range(d)]
    rhs = sum(gj @ mt @ gj.conj().T for gj in powers) / d
    commute_dev = float(np.abs(lhs - rhs).max())
    announce(8, "gauge-invariant dynamics", worst < 1e-12 and commute_dev < 1e-10,
             f"(defect {worst:.2e}, projection commutator {commute_dev:.2e})")


def test_09_abelianness_contrast():
    t0 = time.time()
    params = GradingParams(3, 1, 1)
    chain = ChainSpec(3, 6)
    hopping = Hopping({1: 0.5, -1: 0.5})
    model = QuadraticModel(chain, params, hopping)
    gi_a = dressed_matrix_unit(1, 0, 1, params, chain) * dressed_matrix_unit(2, 1, 0, params, chain)
    gi_b = dressed_matrix_unit(3, 0, 1, params, chain) * dressed_matrix_unit(4, 1, 0, params, chain)
    bare_a = WeylMonomial.single(3, 1, 0, 1).as_element()
    bare_b = WeylMonomial.single(3, 3, 0, 1).as_element()
    grid = np.linspace(0.0, 12.0, 49)
    gi = commutator_decay(gi_a, gi_b, model, grid)
    bare = commutator_decay(bare_a, bare_b, model, grid)
    assert gi.a_gauge_invariant and gi.b_gauge_invariant and not bare.a_gauge_invariant

    # pre-recurrence window: round trip 2L/v with the speed bound of the
    # shipped hopping (v = 2 sum |h| |x| = 2, so t <= 6)
    window = grid <= 2 * chain.L / hopping.velocity_bound()
    env_gi = np.maximum.accumulate(gi.norms[window][::-1])[::-1]
    env_bare = np.maximum.accumulate(bare.norms[window][::-1])[::-1]
    ordering = env_gi.min() < 0.5 * env_bare.min()

    # committed envelopes from the first oracle run
    with open(FROZEN, encoding="utf-8", newline="") as fh:
        frozen_rows = list(csv.reader(fh))[1:]
    frozen = {
        pid: np.array([float(r[2]) for r in frozen_rows if r[0] == pid])
        for pid in ("dressed_gauge_invariant", "bare_charged")
    }
    agree = (
        float(np.abs(frozen["dressed_gauge_invariant"] - gi.norms).max()) < 1e-6
        and float(np.abs(frozen["bare_charged"] - bare.norms).max()) < 1e-6
    )
    elapsed = time.time() - t0
    announce(9, "gauge-invariant vs bare commutator contrast",
             ordering and agree and elapsed < 300.0,
             f"(env {env_gi.min():.3f} < 0.5*{env_bare.min():.3f}, frozen ok={agree}, {elapsed:.0f}s)")


def test_10_claim_audit_complete(tmp_path):
    out = tmp_path / "audit.csv"
    code = main(["verify", "--config", preset("verify_d3.cfg"), "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    audits = [r for r in rows if r["tier"] == "audit"]
    required = {
        "pair_expansion",
        "unit_exchange",
        "midpoint_reduction",
        "endpoint_reduction_left",
        "endpoint_reduction_right",
        "derivative_closure",
    }
    present = {r["relation_id"] for r in audits}
    labeled = all(r["status"] in ("MATCH", "MISMATCH") for r in audits)
    payloads = all(r["oracle_payload"] for r in audits if r["relation_id"] != "unit_exchange")
    exact_fail = [r for r in rows if r["tier"] == "exact" and r["status"] != "EXACT"]
    ok = code == 0 and required <= present and labeled and payloads and not exact_fail
    announce(10, "claimed-formula audit complete", ok,
             f"(rows {len(audits)}, claims {sorted(present & required)})")


def test_11_blocking():
    chain = ChainSpec(2, 4)
    rng = np.random.default_rng(1011)
    element = random_element(rng, 2, 4, terms=4)
    _, rep = block_sites(element, 2, chain)
    ok = rep.dense_deviation < 1e-15 and rep.containment_deviation < 1e-12
    announce(11, "pair blocking identity and containment", ok,
             f"(identity {rep.dense_deviation:.2e}, containment {rep.containment_deviation:.2e})")


def test_12_cli_determinism(tmp_path):
    jobs = [
        ("verify", preset("verify_d3.cfg")),
        ("block", preset("block_d2.cfg")),
    ]
    small_evolve = tmp_path / "e.cfg"
    small_evolve.write_text(
        "experiment = evolve\nd = 2\nl = 6\nhopping = 1=0-0.000625j, -1=0+0.000625j\n"
        "t_start = 0\nt_stop = 1\nt_count = 2\n"
    )
    small_decay = tmp_path / "d.cfg"
    small_decay.write_text(
        "experiment = decay\nd = 2\nl = 6\nhopping = 1=0-0.0625j, -1=0+0.0625j\n"
        "t_start = 0\nt_stop = 2\nt_count = 3\n"
    )
    jobs += [("evolve", str(small_evolve)), ("decay", str(small_decay))]
    ok = True
    outputs = []
    for i, (cmd, cfg) in enumerate(jobs):
        a = tmp_path / f"{cmd}{i}_a.csv"
        b = tmp_path / f"{cmd}{i}_b.csv"
        ok = ok and main([cmd, "--config", cfg, "--out", str(a)]) in (0,)
        ok = ok and main([cmd, "--config", cfg, "--out", str(b)]) in (0,)
        ok = ok and a.read_bytes() == b.read_bytes()
        outputs.append(str(a))
    ra = tmp_path / "r_a.csv"
    rb = tmp_path / "r_b.csv"
    ok = ok and main(["report", *outputs, "--out", str(ra)]) == 0
    ok = ok and main(["report", *outputs, "--out", str(rb)]) == 0
    ok = ok and ra.read_bytes() == rb.read_bytes()
    announce(12, "byte-identical CLI reruns", ok)
