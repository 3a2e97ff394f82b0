"""Deterministic experiment runner with stable CSV outputs.

Subcommands: verify | evolve | decay | block | report.  Exit codes:
0 success, 1 exact-tier relation failure, 2 config error, unreadable
report input or an --out path that cannot be written, 3 dimension cap
exceeded.  The --out path is checked before any work, so an unwritable
path exits 2 even on a chain above the cap.  Reruns on the same config
in the same environment (the BLAS thread count included) are
byte-identical.  --seed is an option of verify only: a non-negative
integer that picks the random samples the verify suite draws, never any
physics.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .dense import (
    DEFAULT_DIM_CAP,
    ChainSpec,
    DenseOperator,
    DimensionCapError,
    block_sites,
    op_norm,
    realize,
    sector_decompose,
)
from .dressing import (
    bilinear_connection,
    dressed_commutation_report,
    dressed_matrix_unit,
    dressed_weyl,
    exchange_exponent,
    shift_covariance_defect,
)
from .dynamics import (
    QuadraticModel,
    claimed_commutator_audit,
    commutator_decay,
    gauge_invariance_defect,
    generator,
    one_particle_flow,
    phase_blocks,
    reconstruct_spin_evolution,
    smear,
    span_residual,
)
from .oneparticle import Hopping
from .weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    commutation_phase,
    mono_mul,
    phase_value,
)

EXIT_OK = 0
EXIT_RELATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIM_CAP = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write the CSV; a path that cannot be written is a ConfigError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                if any(isinstance(cell, complex) for cell in row):
                    raise ValueError("complex cells must be split into re/im columns")
                writer.writerow([_fmt(cell) for cell in row])
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from None


def _check_out(path: str) -> None:
    """Reject an --out path that is a directory or whose directory is missing or not writable."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(folder):
        reason = "No such file or directory"
    elif not os.access(folder, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise ConfigError(f"cannot write output {path}: {reason}")


@contextmanager
def _config_values():
    """Report a value the program rejects while building from the config as a ConfigError."""
    try:
        yield
    except DimensionCapError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _random_monomial(rng: np.random.Generator, d: int, L: int) -> WeylMonomial:
    labels = {}
    for x in range(L):
        if rng.random() < 0.7:
            labels[x] = (int(rng.integers(0, d)), int(rng.integers(0, d)))
    return WeylMonomial.from_labels(d, labels, int(rng.integers(0, 2 * d)))


def _verify_rows(cfg: ExperimentConfig, seed: int, cap: int) -> list[list]:
    d, L = cfg.d, cfg.l
    with _config_values():
        params = GradingParams(d, cfg.j_plus, cfg.j_minus)
        chain = ChainSpec(d, L, cap=cap)
        hopping = Hopping(cfg.hopping)
    if L < 2:
        raise ConfigError(f"verify needs l >= 2 (the sector and pair rows use sites 0 and 1), got l = {L}")
    small = ChainSpec(d, min(L, 5), cap=cap)
    # dense-verified rows fall back to the small chain above the cap
    dense_chain = chain if chain.dense_allowed else small
    rng = np.random.default_rng(seed)
    rows: list[list] = []

    def add(rel, tier, par, ok_or_status, dev, payload=""):
        status = ok_or_status if isinstance(ok_or_status, str) else ("EXACT" if ok_or_status else "FAILED")
        rows.append([rel, tier, par, status, dev, payload])

    # group law: symbolic associativity and the dense homomorphism
    worst = 0.0
    ok = True
    for _ in range(200):
        a, b, c = (_random_monomial(rng, d, small.L) for _ in range(3))
        ok = ok and mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))
    add("group_law_associativity", "exact", f"d={d};samples=200", ok, 0.0)
    for _ in range(40):
        a, b = _random_monomial(rng, d, small.L), _random_monomial(rng, d, small.L)
        worst = max(worst, (realize(mono_mul(a, b), small) - realize(a, small) @ realize(b, small)).max_abs())
    add("group_law_dense", "exact", f"d={d};L={small.L};samples=40", worst < 1e-12, worst)

    # fixed-phase exchange of dressed generators
    expected = exchange_exponent(params)
    ok = True
    for x in range(L):
        for y in range(x + 1, L):
            ok = ok and commutation_phase(
                dressed_weyl(x, 1, params, chain), dressed_weyl(y, 1, params, chain)
            ) == expected
    dd = ChainSpec(d, min(L, 4))
    a0 = realize(dressed_weyl(0, 1, params, dd), dd)
    b0 = realize(dressed_weyl(dd.L - 1, 1, params, dd), dd)
    dev = (a0 @ b0 - b0.scale(phase_value(2 * expected, d)) @ a0).max_abs()
    add("exchange_phase", "exact", f"d={d};exponent={expected};pairs=L*(L-1)/2", ok and dev < 1e-12, dev)

    # norms of dressed operators and units
    worst = 0.0
    for x in (0, small.L // 2, small.L - 1):
        worst = max(worst, abs(op_norm(realize(dressed_weyl(x, 1, params, small), small)) - 1.0))
        worst = max(worst, abs(op_norm(realize(dressed_matrix_unit(x, 0, d - 1, params, small), small)) - 1.0))
    add("unit_norm", "exact", f"d={d};L={small.L}", worst < 1e-10, worst)

    # charge-sector mapping of the matrix units
    mini = ChainSpec(d, min(L, 3))
    projs = sector_decompose(mini)
    worst = 0.0
    for j in range(d):
        for k in range(d):
            m = realize(dressed_matrix_unit(1, j, k, params, mini), mini)
            for c in range(d):
                target = (c + j - k) % d
                mp = m @ projs[c]
                worst = max(worst, (mp - projs[target] @ mp).max_abs())
    add("sector_mapping", "exact", f"d={d};L={mini.L}", worst < 1e-12, worst)

    # locality defect of the half-line rotation
    if dense_chain.L >= 3:
        xd = min(3, dense_chain.L - 1)
        sd = shift_covariance_defect(xd, params, dense_chain)
        inside = set(sd.defect.support()) <= set(range(0, xd + 1))
        add("shift_defect", "exact", f"d={d};x={xd}", inside and sd.dense_deviation < 1e-12,
            sd.dense_deviation, str(sd.defect))

    # audited reduction claims (reported, never fatal); on a short chain the
    # clamped pairs coincide, and each distinct pair is audited once
    for x, y in dict.fromkeys(((0, 1), (0, min(2, dense_chain.L - 1)), (1, min(3, dense_chain.L - 1)))):
        if x >= y:
            continue
        bc = bilinear_connection(x, y, params, dense_chain)
        status = "MATCH" if bc.deviation < 1e-9 else "MISMATCH"
        payload = str(bc.correction) if bc.correction is not None else "exact"
        rows.append(["pair_expansion", "audit", f"d={d};x={x};y={y}", status, bc.deviation, payload])

    units = [(0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, d - 1, d - 1, 0)]
    for j, k, l, n in units:
        for x, y in ((0, 1), (0, 2), (1, 3)):
            if y >= small.L:
                continue
            rep = dressed_commutation_report(x, y, j, k, l, n, params, small)
            phase = rep.oracle_phase
            payload = (
                f"oracle_re={_fmt(phase.real)};oracle_im={_fmt(phase.imag)}" if phase is not None else "degenerate"
            )
            rows.append([
                "unit_exchange",
                "audit",
                f"d={d};jk={j}{k};ln={l}{n};x={x};y={y}",
                rep.status,
                rep.residual,
                payload,
            ])

    if cfg.hopping and dense_chain.L >= 4:
        ld = dense_chain.L
        with _config_values():
            model = QuadraticModel(dense_chain, params, hopping)
        for r in claimed_commutator_audit(model, x=min(3, ld - 2), z=1):
            rows.append([r.claim_id, "audit", r.params, r.status, r.deviation, r.payload])
        if ld // 2 > 1:
            for r in claimed_commutator_audit(model, x=1, z=ld // 2):
                rows.append([r.claim_id, "audit", r.params, r.status, r.deviation, r.payload])
        gdef = gauge_invariance_defect(model)
        add("gauge_invariant_hamiltonian", "exact", f"d={d};L={ld}", gdef < 1e-12, gdef)
    return rows


def cmd_verify(cfg: ExperimentConfig, out: str, seed: int, cap: int) -> int:
    rows = _verify_rows(cfg, seed, cap)
    write_csv(out, ["relation_id", "tier", "params", "status", "deviation", "oracle_payload"], rows)
    failed = [r for r in rows if r[1] == "exact" and r[3] != "EXACT"]
    return EXIT_RELATION_FAILURE if failed else EXIT_OK


def _hermitian_deviation(x10: np.ndarray, predicted: DenseOperator) -> float:
    """Largest entry modulus of X - P for the d = 2 hermitian X whose block (1, 0) is x10.

    Block (0, 1) of X is x10^dag.  P's blocks are consumed: each difference
    P - X (the moduli of X - P) is taken in P's own array and freed before
    the next, so the one copy made is x10^dag.  An absent block of P reads
    as zero.
    """
    worst = 0.0
    for key in ((1, 0), (0, 1)):
        x = x10 if key == (1, 0) else x10.conj().T
        p = predicted.blocks.pop(key, None)
        diff = x if p is None else np.subtract(p, x, out=p)
        worst = max(worst, float(np.abs(diff).max()))
        del x, p, diff
    return worst


def cmd_evolve(cfg: ExperimentConfig, out: str, cap: int) -> int:
    d, L = cfg.d, cfg.l
    grid = cfg.t_grid()
    with _config_values():
        params = GradingParams(d, cfg.j_plus, cfg.j_minus)
        chain = ChainSpec(d, L, cap=cap)
        if L < 2:
            raise ConfigError(f"evolve needs l >= 2 (the initial field sits at sites l // 2 - 1 and l // 2), got l = {L}")
        model = QuadraticModel(chain, params, Hopping(cfg.hopping))
        f0 = np.zeros((d, L), dtype=complex)
        f0[0, L // 2 - 1 : L // 2 + 1] = 1.0, 0.5
        field = smear(f0, params, chain)
    # the prediction W(exp(tM) f0) exists unless H moves the field out of its span (d >= 3)
    m = generator(model)
    flows = None if m is None else one_particle_flow(m, f0, grid)
    res, _ = span_residual(model, f0)
    # the reconstruction's working set is freed before the field is realized
    rec = reconstruct_spin_evolution(model)
    flow_devs = [float("nan")] * len(grid)
    if flows is not None:
        # at d = 2 the field is hermitian and tau_t(F)^dag = tau_t(F^dag): only block (1, 0)
        # is evolved, and block (0, 1) of tau_t(F) is its adjoint
        dense_field = realize(field, chain)
        if d == 2:
            if dense_field.hermiticity_defect() > 1e-12:
                raise ValueError("smeared field is not hermitian")
            dense_field = DenseOperator(chain, {(1, 0): dense_field.blocks[1, 0]})
        a0 = model.eigenbasis_blocks(dense_field)
        del dense_field
        flow_devs = []
        for t, f in zip(grid, flows):
            evolved = model.site_blocks(phase_blocks(a0, model.propagator(t)))
            predicted = realize(smear(f, params, chain), chain)
            if d == 2:
                flow_devs.append(_hermitian_deviation(evolved.blocks[1, 0], predicted))
            else:
                flow_devs.append((evolved - predicted).max_abs())
            del evolved, predicted  # nothing is kept into the next t
    rows = [[t, flow_dev, res, rec] for t, flow_dev in zip(grid, flow_devs)]
    write_csv(out, ["t", "flow_deviation", "span_residual", "reconstruction_deviation"], rows)
    return EXIT_OK


def _decay_pairs(params: GradingParams, chain: ChainSpec):
    """Gauge-invariant dressed bilinear pair and a bare pair at matched separation.

    The gauge-invariant observables are the norm-1 dressed hopping
    bilinears m(0,1)_x m(1,0)_{x+1}; the bare observables are the norm-1
    charge-1 generators W(0,1) at the bilinear anchor sites, so both
    series compare like against like.
    """
    d = params.d
    l0 = max(1, chain.L // 2 - 2)
    a_gi = dressed_matrix_unit(l0, 0, 1, params, chain) * dressed_matrix_unit(l0 + 1, 1, 0, params, chain)
    b_gi = dressed_matrix_unit(l0 + 2, 0, 1, params, chain) * dressed_matrix_unit(l0 + 3, 1, 0, params, chain)
    a_bare = WeylMonomial.single(d, l0, 0, 1).as_element()
    b_bare = WeylMonomial.single(d, l0 + 2, 0, 1).as_element()
    return (a_gi, b_gi), (a_bare, b_bare)


def cmd_decay(cfg: ExperimentConfig, out: str, cap: int) -> int:
    with _config_values():
        params = GradingParams(cfg.d, cfg.j_plus, cfg.j_minus)
        chain = ChainSpec(cfg.d, cfg.l, cap=cap)
        if cfg.l < 5:
            raise ConfigError(f"decay needs l >= 5 (the pairs use sites l0..l0+3, l0 = max(1, l // 2 - 2)), got l = {cfg.l}")
        model = QuadraticModel(chain, params, Hopping(cfg.hopping))
        (a_gi, b_gi), (a_bare, b_bare) = _decay_pairs(params, chain)
    grid = cfg.t_grid()
    rows = []
    for pair_id, (a, b) in (("dressed_gauge_invariant", (a_gi, b_gi)), ("bare_charged", (a_bare, b_bare))):
        result = commutator_decay(a, b, model, grid)
        for t, norm in zip(result.times, result.norms):
            rows.append([pair_id, t, norm, int(result.a_gauge_invariant), int(result.b_gauge_invariant)])
    write_csv(out, ["pair_id", "t", "commutator_norm", "a_gauge_invariant", "b_gauge_invariant"], rows)
    return EXIT_OK


def cmd_block(cfg: ExperimentConfig, out: str, cap: int) -> int:
    with _config_values():
        chain = ChainSpec(cfg.d, cfg.l, cap=cap)
    if cfg.l < 2:
        raise ConfigError(f"block needs l >= 2 (the blocked element uses sites 0 and 1), got l = {cfg.l}")
    if cfg.block_k < 1 or cfg.l % cfg.block_k:
        raise ConfigError(f"block_k = {cfg.block_k} does not divide l = {cfg.l}")
    element = AlgebraElement.from_monomials(
        [
            (1.0, WeylMonomial.single(cfg.d, 0, 1, 1)),
            (0.5, WeylMonomial.from_labels(cfg.d, {0: (0, 1), 1: (1, 0)})),
        ],
        cfg.d,
    )
    _, rep = block_sites(element, cfg.block_k, chain)
    rows = [
        ["dense_deviation", rep.dense_deviation],
        ["containment_deviation", rep.containment_deviation],
        ["containment_samples", float(rep.containment_samples)],
        ["refined_gauge_order", float(rep.refined_gauge_order)],
        ["blocked_clock_order", float(rep.blocked_clock_order)],
        ["blocked_sites", float(rep.blocked_chain.L)],
    ]
    write_csv(out, ["quantity", "value"], rows)
    ok = rep.dense_deviation < 1e-12 and rep.containment_deviation < 1e-12
    return EXIT_OK if ok else EXIT_RELATION_FAILURE


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and non-blank rows of a CSV; ValueError if a row is not as wide as the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        table = [(reader.line_num, cells) for cells in reader if cells]
    if not table:
        raise ValueError(f"{path}: empty file")
    (_, header), *body = table
    for line, cells in body:
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {line}: {len(cells)} cells, header has {len(header)}")
    return header, [cells for _, cells in body]


def cmd_report(paths: list[str], out: str) -> int:
    try:
        tables = [(path, *_read_table(path)) for path in paths]
    except (OSError, ValueError, csv.Error) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rows = []
    for path, header, body in tables:
        n_exact = n_match = n_mismatch = 0
        values = [0.0]
        if "status" in header:
            si = header.index("status")
            for cells in body:
                status = cells[si]
                n_exact += status == "EXACT"
                n_match += status == "MATCH"
                n_mismatch += status == "MISMATCH"
        for name in ("deviation", "flow_deviation", "dense_deviation", "commutator_norm", "value"):
            if name in header:
                di = header.index(name)
                for cells in body:
                    try:
                        values.append(abs(float(cells[di])))
                    except ValueError:
                        pass
                break
        # np.max propagates a NaN cell, where the builtin max would skip it
        rows.append([path, len(body), n_exact, n_match, n_mismatch, float(np.max(values))])
    write_csv(out, ["file", "rows", "n_exact", "n_match", "n_mismatch", "max_value"], rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="grading-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "evolve", "decay", "block"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--cap", type=int, default=None)
        if name == "verify":
            p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("report")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "verify" and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "report":
            _check_out(args.out)
            return cmd_report(args.inputs, args.out)
        cfg = load_config(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(f"config is for experiment {cfg.experiment!r}, not {args.command!r}")
        cap = args.cap if args.cap is not None else DEFAULT_DIM_CAP
        out = args.out or cfg.out
        _check_out(out)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.seed, cap)
        if args.command == "evolve":
            return cmd_evolve(cfg, out, cap)
        if args.command == "decay":
            return cmd_decay(cfg, out, cap)
        if args.command == "block":
            return cmd_block(cfg, out, cap)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DimensionCapError as exc:
        print(f"dimension cap exceeded: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
