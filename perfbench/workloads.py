"""The benchmark workloads: set-up, timed calls and row checks.

A workload is a list of steps.  Each step makes one call into the program
(``cli.main`` on a shipped preset, or one library call) and produces CSV
rows; every row is one operation, checked against its reference after the
timed part of a pass.  A step whose call raises, exits non-zero or leaves
no CSV fails every row it should have produced.

Program functions are always reached through their module (``cli.main``,
``states.clustering_report``) so that the tracer's wrappers are the ones
called.
"""

from __future__ import annotations

import csv
import io
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from grading_lab import cli, states
from grading_lab.config import load_config
from grading_lab.dense import ChainSpec
from grading_lab.dressing import dressed_matrix_unit
from grading_lab.dynamics import QuadraticModel
from grading_lab.oneparticle import Hopping
from grading_lab.weyl import GradingParams

BENCH = Path(__file__).resolve().parent
PRESETS = BENCH.parent / "src" / "grading_lab" / "presets"
REFERENCE = BENCH / "reference"

# row tolerances: test_09 pins decay norms at 1e-6; the evolve and block
# bounds are those of the acceptance suite
DECAY_TOL = 1e-6
CORRELATE_TOL = 1e-10
EVOLVE_D3_TOL = 1e-10
FLOW_TOL = 1e-8
SPAN_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
BLOCK_TOL = 1e-12
T_TOL = 1e-12


Rows = list[dict[str, str]]


@dataclass
class Step:
    """One timed call and the check of the rows it produces."""

    label: str
    expected_rows: int
    call: Callable[[Path], object]
    output: Callable[[Path, object], bytes | None]
    check: Callable[[Rows], int]

    def run(self, out_dir: Path):
        """Make the call; an exception fails the step, never the benchmark."""
        try:
            return self.call(out_dir)
        except Exception:  # noqa: BLE001 - the row check counts the failure
            traceback.print_exc()
            return None


def _csv_rows(data: bytes) -> Rows:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _near(a: str, b: float, tol: float) -> bool:
    return abs(float(a) - b) <= tol


def _read_reference(name: str) -> Rows:
    with open(REFERENCE / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_step(command: str, preset: str, expected_rows: int, check, seed: int | None = None) -> Step:
    config = str(PRESETS / f"{preset}.cfg")

    def call(out_dir: Path) -> int:
        argv = [command, "--config", config, "--out", str(out_dir / f"{preset}.csv")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return cli.main(argv)

    def output(out_dir: Path, code) -> bytes | None:
        path = out_dir / f"{preset}.csv"
        if code != cli.EXIT_OK or not path.exists():
            return None
        return path.read_bytes()

    return Step(f"{command} {preset}", expected_rows, call, output, check)


def _check_decay(reference: Rows) -> Callable[[Rows], int]:
    def check(rows: Rows) -> int:
        ok = 0
        for got, ref in zip(rows, reference):
            ok += (
                got["pair_id"] == ref["pair_id"]
                and _near(got["t"], float(ref["t"]), T_TOL)
                and got["a_gauge_invariant"] == ref["a_gauge_invariant"]
                and got["b_gauge_invariant"] == ref["b_gauge_invariant"]
                and _near(got["commutator_norm"], float(ref["commutator_norm"]), DECAY_TOL)
            )
        return ok

    return check


def _check_evolve_d2(grid: list[float]) -> Callable[[Rows], int]:
    def check(rows: Rows) -> int:
        ok = 0
        for got, t in zip(rows, grid):
            ok += (
                _near(got["t"], t, T_TOL)
                and _near(got["flow_deviation"], 0.0, FLOW_TOL)
                and _near(got["span_residual"], 0.0, SPAN_TOL)
                and _near(got["reconstruction_deviation"], 0.0, RECONSTRUCTION_TOL)
            )
        return ok

    return check


def _check_evolve_d3(reference: Rows) -> Callable[[Rows], int]:
    def check(rows: Rows) -> int:
        ok = 0
        for got, ref in zip(rows, reference):
            ok += (
                _near(got["t"], float(ref["t"]), T_TOL)
                and math.isnan(float(got["flow_deviation"]))
                and _near(got["span_residual"], float(ref["span_residual"]), EVOLVE_D3_TOL)
                and _near(got["reconstruction_deviation"], float(ref["reconstruction_deviation"]), EVOLVE_D3_TOL)
            )
        return ok

    return check


def _check_verify(reference: Rows) -> Callable[[Rows], int]:
    """Exact-tier rows must be EXACT; audit rows must keep their status."""

    def check(rows: Rows) -> int:
        ok = 0
        for got, ref in zip(rows, reference):
            same = all(got[k] == ref[k] for k in ("relation_id", "tier", "params"))
            status = "EXACT" if ref["tier"] == "exact" else ref["status"]
            ok += same and got["status"] == status
        return ok

    return check


def _check_block(cfg) -> Callable[[Rows], int]:
    d, k = cfg.d, cfg.block_k
    expected = {
        "containment_samples": (d * d) ** min(k, 2),
        "refined_gauge_order": k * d,
        "blocked_clock_order": d ** k,
        "blocked_sites": cfg.l // k,
    }

    def check(rows: Rows) -> int:
        ok = 0
        for got in rows:
            quantity = got["quantity"]
            if quantity in ("dense_deviation", "containment_deviation"):
                ok += abs(float(got["value"])) < BLOCK_TOL
            elif quantity in expected:
                ok += float(got["value"]) == expected[quantity]
        return ok

    return check


class Workload:
    """Set-up state and the steps of one pass."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.steps: list[Step] = getattr(self, f"_setup_{name}")()

    @staticmethod
    def _diagonalise(cfg, chain: ChainSpec) -> QuadraticModel:
        model = QuadraticModel(chain, GradingParams(cfg.d, cfg.j_plus, cfg.j_minus), Hopping(cfg.hopping))
        model.eigensystem
        return model

    def _setup_decay_d3(self) -> list[Step]:
        cfg = load_config(str(PRESETS / "decay_d3.cfg"))
        self._diagonalise(cfg, ChainSpec(cfg.d, cfg.l))
        reference = _read_reference("decay_d3.csv")
        return [_cli_step("decay", "decay_d3", len(reference), _check_decay(reference))]

    def _setup_evolve_d2(self) -> list[Step]:
        cfg = load_config(str(PRESETS / "evolve_d2.cfg"))
        self._diagonalise(cfg, ChainSpec(cfg.d, cfg.l))
        grid = cfg.t_grid()
        return [_cli_step("evolve", "evolve_d2", len(grid), _check_evolve_d2(grid))]

    def _setup_verify_suite(self) -> list[Step]:
        audit = _read_reference("verify_audit.csv")
        steps = []
        for preset in ("verify_d2", "verify_d3"):
            cfg = load_config(str(PRESETS / f"{preset}.cfg"))
            chain = ChainSpec(cfg.d, cfg.l)
            # the suite's dense rows fall back to a 5-site chain above the cap
            self._diagonalise(cfg, chain if chain.dense_allowed else ChainSpec(cfg.d, min(cfg.l, 5)))
            reference = [r for r in audit if r["preset"] == preset]
            steps.append(_cli_step("verify", preset, len(reference), _check_verify(reference), self.seed))
        block = load_config(str(PRESETS / "block_d2.cfg"))
        steps.append(_cli_step("block", "block_d2", 6, _check_block(block)))
        cfg = load_config(str(PRESETS / "evolve_d3.cfg"))
        self._diagonalise(cfg, ChainSpec(cfg.d, cfg.l))
        reference = _read_reference("evolve_d3.csv")
        steps.append(_cli_step("evolve", "evolve_d3", len(reference), _check_evolve_d3(reference)))
        return steps

    def _setup_correlate_d3(self) -> list[Step]:
        cfg = load_config(str(PRESETS / "decay_d3.cfg"))
        model = self._diagonalise(cfg, ChainSpec(cfg.d, cfg.l))
        params, chain = model.params, model.chain
        # decay_d3's gauge-invariant pair: dressed hopping bilinears at l0, l0 + 2
        l0 = max(1, chain.L // 2 - 2)
        a = dressed_matrix_unit(l0, 0, 1, params, chain) * dressed_matrix_unit(l0 + 1, 1, 0, params, chain)
        b = dressed_matrix_unit(l0 + 2, 0, 1, params, chain) * dressed_matrix_unit(l0 + 3, 1, 0, params, chain)
        a_dag = a.adjoint()
        grid = cfg.t_grid()
        reference = _read_reference("correlate_d3.csv")

        def call(out_dir: Path):
            return states.clustering_report(a_dag, b, model, grid)

        def output(out_dir: Path, report) -> bytes | None:
            if report is None:
                return None
            lines = ["t,re,im"] + [f"{t!r},{v.real!r},{v.imag!r}" for t, v in report.series.rows()]
            return ("\n".join(lines) + "\n").encode("utf-8")

        def check(rows: Rows) -> int:
            ok = 0
            for got, ref in zip(rows, reference):
                value = complex(float(got["re"]), float(got["im"]))
                exact = complex(float(ref["re"]), float(ref["im"]))
                ok += _near(got["t"], float(ref["t"]), T_TOL) and abs(value - exact) <= CORRELATE_TOL
            return ok

        return [Step("clustering_report decay_d3", len(reference), call, output, check)]


def count_failed(step: Step, data: bytes | None) -> int:
    """Rows of one step that are missing or off their reference."""
    if data is None:
        return step.expected_rows
    try:
        return step.expected_rows - step.check(_csv_rows(data)[: step.expected_rows])
    except (KeyError, ValueError, UnicodeDecodeError):
        traceback.print_exc()
        return step.expected_rows
