"""Write the reference rows the benchmark checks its workloads against.

Run from the repository root:

    python3 perfbench/make_reference.py

decay_d3.csv and correlate_d3.csv are exact and independent of the code
paths they check: every propagator is ``scipy.linalg.expm(iHt)`` (never the
cached eigendecomposition), every commutator norm is the largest singular
value of a full SVD (never ``op_norm``), and every correlation is a direct
matrix trace.  evolve_d3.csv is derived independently as well: the span
residual is a least-squares projection of the dense commutator i[H, W(f)],
and the reconstruction identity holds exactly, so its reference deviation
is 0.  verify_audit.csv records the statuses the relation suite printed at
the commit that introduced the benchmark; audit statuses are the catalogue
of which claims hold, so they are regression references, not a second
computation.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from grading_lab import cli  # noqa: E402
from grading_lab.config import load_config  # noqa: E402
from grading_lab.dense import ChainSpec, realize  # noqa: E402
from grading_lab.dressing import dressed_matrix_unit, dressed_weyl_rs  # noqa: E402
from grading_lab.dynamics import QuadraticModel, smear  # noqa: E402
from grading_lab.oneparticle import Hopping, OneParticleVector  # noqa: E402
from grading_lab.weyl import GradingParams, WeylMonomial  # noqa: E402

PRESETS = ROOT / "src" / "grading_lab" / "presets"
OUT = BENCH / "reference"


def _write(name: str, header: list[str], rows: list[list]) -> None:
    with open(OUT / name, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(c) if isinstance(c, float) else c for c in row] for row in rows)
    print(f"wrote {OUT / name} ({len(rows)} rows)")


def _model(cfg, chain: ChainSpec) -> QuadraticModel:
    return QuadraticModel(chain, GradingParams(cfg.d, cfg.j_plus, cfg.j_minus), Hopping(cfg.hopping))


def decay_and_correlate() -> None:
    """Commutator norms of the decay_d3 pairs and the A^dag/B correlation."""
    cfg = load_config(str(PRESETS / "decay_d3.cfg"))
    chain = ChainSpec(cfg.d, cfg.l)
    model = _model(cfg, chain)
    params = model.params
    # the pairs the decay command builds: dressed hopping bilinears and
    # bare charge-1 generators anchored at l0 and l0 + 2
    l0 = max(1, chain.L // 2 - 2)
    a_gi = dressed_matrix_unit(l0, 0, 1, params, chain) * dressed_matrix_unit(l0 + 1, 1, 0, params, chain)
    b_gi = dressed_matrix_unit(l0 + 2, 0, 1, params, chain) * dressed_matrix_unit(l0 + 3, 1, 0, params, chain)
    a_bare = WeylMonomial.single(cfg.d, l0, 0, 1).as_element()
    b_bare = WeylMonomial.single(cfg.d, l0 + 2, 0, 1).as_element()
    pairs = {
        "dressed_gauge_invariant": (realize(a_gi, chain).entries, realize(b_gi, chain).entries, 1, 1),
        "bare_charged": (realize(a_bare, chain).entries, realize(b_bare, chain).entries, 0, 0),
    }
    h = model.dense_hamiltonian.entries
    dim = chain.dim
    a_dag = pairs["dressed_gauge_invariant"][0].conj().T
    b_gi_dense = pairs["dressed_gauge_invariant"][1]
    offset = np.trace(a_dag) / dim * np.trace(b_gi_dense) / dim

    norms: dict[str, list[list]] = {pid: [] for pid in pairs}
    correlation = []
    for t in sorted(cfg.t_grid()):
        u = scipy.linalg.expm(1j * t * h)
        for pid, (a, b, a_gi_flag, b_gi_flag) in pairs.items():
            at = u @ a @ u.conj().T
            c = at @ b - b @ at
            top = float(np.linalg.svd(c, compute_uv=False)[0])
            norms[pid].append([pid, t, top, a_gi_flag, b_gi_flag])
        bt = u @ b_gi_dense @ u.conj().T
        value = complex(np.trace(a_dag @ bt) / dim - offset)
        correlation.append([t, value.real, value.imag])
    _write(
        "decay_d3.csv",
        ["pair_id", "t", "commutator_norm", "a_gauge_invariant", "b_gauge_invariant"],
        norms["dressed_gauge_invariant"] + norms["bare_charged"],
    )
    _write("correlate_d3.csv", ["t", "re", "im"], correlation)


def evolve_d3() -> None:
    """Span residual by least squares on the dense commutator."""
    cfg = load_config(str(PRESETS / "evolve_d3.cfg"))
    chain = ChainSpec(cfg.d, cfg.l)
    model = _model(cfg, chain)
    params = model.params
    d, L = cfg.d, cfg.l
    n = ((L + d - 1) // d) * d
    f0 = OneParticleVector.from_amplitudes(d, n, {(L // 2 - 1, 0): 1.0, (L // 2, 0): 0.5})
    h = model.dense_hamiltonian.entries
    w = realize(smear(f0, params, chain), chain).entries
    target = (1j * (h @ w - w @ h)).ravel()
    basis = np.stack(
        [realize(dressed_weyl_rs(x, j, 1, params, chain), chain).entries.ravel()
         for x in range(L) for j in range(d)],
        axis=1,
    )
    coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    residual = float(np.linalg.norm(target - basis @ coeffs) / np.linalg.norm(target))
    rows = [[t, float("nan"), residual, 0.0] for t in cfg.t_grid()]
    _write("evolve_d3.csv", ["t", "flow_deviation", "span_residual", "reconstruction_deviation"], rows)


def verify_audit(scratch: Path) -> None:
    """Statuses the relation suite reports on the two verify presets, in row order."""
    rows = []
    for preset in ("verify_d2", "verify_d3"):
        out = scratch / f"{preset}.csv"
        code = cli.main(["verify", "--config", str(PRESETS / f"{preset}.cfg"), "--out", str(out)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"verify {preset} exited {code}")
        with open(out, encoding="utf-8", newline="") as fh:
            for rec in csv.DictReader(fh):
                rows.append([preset, rec["relation_id"], rec["tier"], rec["params"], rec["status"]])
        out.unlink()
    _write("verify_audit.csv", ["preset", "relation_id", "tier", "params", "status"], rows)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    decay_and_correlate()
    evolve_d3()
    verify_audit(OUT)


if __name__ == "__main__":
    main()
