"""Experiment runner: config parsing, CSV outputs, exit codes, determinism."""

import cmath
import math
import os

import numpy as np
import pytest
import scipy.linalg

import grading_lab.cli as cli
import grading_lab.dynamics as dynamics
from grading_lab.cli import main
from grading_lab.config import ConfigError, ExperimentConfig, load_config, parse_config
from grading_lab.dense import ChainSpec, DenseOperator, realize
from grading_lab.dressing import dressed_weyl, dressed_weyl_rs
from grading_lab.dynamics import QuadraticModel, generator, smear, span_residual
from grading_lab.oneparticle import Hopping
from grading_lab.weyl import GradingParams, WeylMonomial

from test_dense import forbid_full_matrix
from test_dynamics import traced_peak

PRESETS = os.path.join(os.path.dirname(__file__), "..", "src", "grading_lab", "presets")


def preset(name):
    return os.path.join(PRESETS, name)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            experiment="decay",
            d=3,
            l=6,
            j_plus=1,
            j_minus=2,
            hopping={1: 0.5 - 0.25j, -1: 0.5 + 0.25j},
            t_start=0.0,
            t_stop=4.0,
            t_count=9,
            block_k=2,
            out="x.csv",
        )
        text = cfg.canonical_text()
        again = parse_config(text)
        assert again == cfg
        assert again.canonical_text() == text

    def test_round_trip_keeps_signed_zeros(self):
        cfg = parse_config("experiment = evolve\nhopping = 1=1-0j, -1=-0+0j, 2=-0-0j, -2=0.5+0j\n")
        text = cfg.canonical_text()
        again = parse_config(text)
        assert again.canonical_text() == text
        for x, z in cfg.hopping.items():
            got = again.hopping[x]
            assert math.copysign(1.0, got.real) == math.copysign(1.0, z.real), x
            assert math.copysign(1.0, got.imag) == math.copysign(1.0, z.imag), x
        assert math.copysign(1.0, again.hopping[1].imag) == -1.0

    def test_comments_and_blanks(self):
        cfg = parse_config("# hi\nexperiment = verify\n\nd = 2 # trailing\n")
        assert cfg.experiment == "verify"
        assert cfg.d == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = verify\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = verify\nd = 2\nd = 3\n")

    def test_bad_hopping_pair(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = verify\nhopping = 1:0.5\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            parse_config("d = 2\n")

    @pytest.mark.parametrize("line", [
        "t_start = nan",
        "t_stop = inf",
        "t_start = -inf",
        "t_stop = 1e400",
        "t_stop = 1+2j",
        "hopping = 1=nan, -1=0",
        "hopping = 1=0+infj, -1=0-infj",
    ])
    def test_non_finite_value_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(f"experiment = verify\n{line}\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_grid_rejected(self, count):
        with pytest.raises(ConfigError, match="t_count"):
            parse_config(f"experiment = evolve\nt_count = {count}\n")

    def test_t_grid(self):
        cfg = parse_config("experiment = e\nt_start = 1\nt_stop = 3\nt_count = 5\n")
        assert cfg.t_grid() == [1.0, 1.5, 2.0, 2.5, 3.0]


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment = verify\nwhat = ever\n")
        code = main(["verify", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["verify", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_decay_short_chain_exits_2(self, tmp_path, capsys, l):
        # the decay pairs use sites l0..l0+3 with l0 = max(1, l // 2 - 2)
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"experiment = decay\nd = 2\nl = {l}\nt_start = 0\nt_stop = 1\nt_count = 2\n")
        out = tmp_path / "o.csv"
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 2
        assert "decay needs l >= 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d", [2, 3])
    def test_evolve_one_site_exits_2(self, tmp_path, capsys, d):
        # the initial field sits at sites l // 2 - 1 and l // 2, so a one-site chain
        # is rejected up front, before any site outside the chain is named
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"experiment = evolve\nd = {d}\nl = 1\nhopping =\nt_start = 0\nt_stop = 1\nt_count = 2\n")
        out = tmp_path / "o.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "evolve needs l >= 2" in err and "outside chain" not in err
        assert not out.exists()

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("experiment = decay\nd = 2\nl = 8\nhopping = 1=0-0.25j, -1=0+0.25j\n"
                       "t_start = 0\nt_stop = 1\nt_count = 2\n")
        code = main(["decay", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--cap", "64"])
        assert code == 3
        assert "256" in capsys.readouterr().err

    @pytest.mark.parametrize("command, body", [
        ("verify", "d = 1\nl = 4\n"),
        ("verify", "d = 2\nl = 0\n"),
        ("block", "d = 2\nl = 5\nblock_k = 2\n"),
        ("evolve", "d = 2\nl = 4\nhopping = 7=1+0j\n"),
        ("decay", "d = 2\nl = 4\nhopping = 7=1+0j\n"),
        ("decay", "d = 3\nl = 4\nhopping = 1=0.5, -1=0.5\n"),
        ("evolve", "d = 2\nl = 4\nhopping = 1=nan, -1=nan\n"),
        ("decay", "d = 2\nl = 6\nhopping = 1=0+infj, -1=0-infj\n"),
        ("verify", "d = 2\nl = 4\nhopping = 1=nan, -1=nan\n"),
        ("evolve", "d = 2\nl = 4\nt_stop = nan\n"),
        ("decay", "d = 2\nl = 6\nt_start = -inf\n"),
        ("evolve", "d = 2\nl = 4\nt_count = 0\n"),
        ("verify", "d = 2\nl = 1\n"),
        ("evolve", "d = 2\nl = 1\nhopping =\n"),
        ("block", "d = 2\nl = 1\nblock_k = 1\n"),
    ], ids=["d1", "l0", "block_k_not_divisor", "evolve_non_hermitian", "decay_non_hermitian", "decay_short_chain",
            "evolve_nan_hopping", "decay_inf_hopping", "verify_nan_hopping", "evolve_nan_t_stop", "decay_inf_t_start",
            "evolve_empty_grid", "verify_one_site", "evolve_one_site", "block_one_site"])
    def test_bad_value_exits_2(self, tmp_path, capsys, command, body):
        cfg = tmp_path / "bad.cfg"
        # the default grid fills only the grid keys the case leaves unset
        grid = "".join(f"{k} = {v}\n" for k, v in (("t_start", 0), ("t_stop", 1), ("t_count", 2)) if k not in body)
        cfg.write_text(f"experiment = {command}\n{body}{grid}")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [("evolve", "decay_d3.cfg"), ("decay", "evolve_d2.cfg")])
    def test_experiment_mismatch_exits_2(self, tmp_path, capsys, command, config):
        out = tmp_path / "o.csv"
        assert main([command, "--config", preset(config), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # every subcommand reports an --out in a missing directory, or one that is a
        # directory, as one config-error line before it reads an input or does any work,
        # so a chain above the cap exits 2 and not 3
        def unreachable(*args, **kwargs):
            raise AssertionError("reached work before the --out check")

        for name in ("_read_table", "_verify_rows", "reconstruct_spin_evolution", "commutator_decay", "block_sites"):
            monkeypatch.setattr(cli, name, unreachable)
        report_input = tmp_path / "in.csv"
        report_input.write_text("quantity,value\nx,1\n")
        for out in (str(tmp_path / "missing" / "o.csv"), str(tmp_path)):
            for command in ("verify", "evolve", "decay", "block", "report"):
                if command == "report":
                    argv = ["report", str(report_input)]
                else:
                    argv = [command, "--config", preset(f"{command}_d2.cfg"), "--cap", "4"]
                assert main(argv + ["--out", out]) == 2, command
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and "config error" in err and out in err, (command, err)

    @pytest.mark.parametrize("command", ["verify", "evolve", "decay", "block"])
    def test_seed_is_a_verify_option(self, tmp_path, command):
        argv = [command, "--config", preset(f"{command}_d2.cfg"), "--out", str(tmp_path / "o.csv"), "--seed", "1"]
        if command == "verify":
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["verify", "--config", preset("verify_d2.cfg"), "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config error" in err and "--seed" in err
        assert not out.exists()

    def test_verify_preset_exits_0(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--config", preset("verify_d3.cfg"), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("config", ["verify_d2.cfg", "verify_d3.cfg"])
    def test_verify_preset_stays_on_blocks(self, tmp_path, monkeypatch, config):
        # every dense row, the exchange reports included, works on charge blocks
        forbid_full_matrix(monkeypatch)
        assert main(["verify", "--config", preset(config), "--out", str(tmp_path / "v.csv")]) == 0


@pytest.fixture(scope="module")
def verify_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "v3.csv"
    assert main(["verify", "--config", preset("verify_d3.cfg"), "--out", str(out)]) == 0
    return read_rows(out)


class TestVerifyOutput:

    def test_header(self, verify_csv):
        header, _ = verify_csv
        assert header == ["relation_id", "tier", "params", "status", "deviation", "oracle_payload"]

    def test_exact_rows_all_pass(self, verify_csv):
        _, rows = verify_csv
        exact = [r for r in rows if r["tier"] == "exact"]
        assert exact
        assert all(r["status"] == "EXACT" for r in exact)

    def test_exchange_rows_exact(self, verify_csv):
        _, rows = verify_csv
        ex = [r for r in rows if r["relation_id"] == "exchange_phase"]
        assert ex and all(r["status"] == "EXACT" for r in ex)

    def test_audit_rows_labeled(self, verify_csv):
        _, rows = verify_csv
        audits = [r for r in rows if r["tier"] == "audit"]
        assert audits
        assert all(r["status"] in ("MATCH", "MISMATCH") for r in audits)
        for claim in ("pair_expansion", "unit_exchange", "midpoint_reduction",
                      "endpoint_reduction_left", "endpoint_reduction_right", "derivative_closure"):
            assert any(r["relation_id"] == claim for r in audits), claim

    def test_d2_unit_exchange_has_match_rows(self, tmp_path):
        out = tmp_path / "v2.csv"
        assert main(["verify", "--config", preset("verify_d2.cfg"), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        matches = [
            r for r in rows
            if r["relation_id"] == "unit_exchange" and r["status"] == "MATCH"
        ]
        assert matches
        phases = [float(r["oracle_payload"].split(";")[0].split("=")[1]) for r in matches]
        assert any(abs(p + 1.0) < 1e-9 for p in phases)

    def test_two_site_chain_writes_each_row_once(self, tmp_path):
        # at l = 2 the clamped pair_expansion pairs coincide
        cfg = tmp_path / "v.cfg"
        cfg.write_text("experiment = verify\nd = 3\nl = 2\n")
        out = tmp_path / "v.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        keys = [(r["relation_id"], r["params"]) for r in rows]
        assert ("pair_expansion", "d=3;x=0;y=1") in keys
        assert len(keys) == len(set(keys))


class TestDeterminism:
    def test_verify_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--config", preset("verify_d3.cfg"), "--out", str(a)]) == 0
        assert main(["verify", "--config", preset("verify_d3.cfg"), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_block_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["block", "--config", preset("block_d2.cfg"), "--out", str(a)]) == 0
        assert main(["block", "--config", preset("block_d2.cfg"), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_evolve_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS["d2"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBlockCommand:
    def test_identity_block_k1(self, tmp_path):
        cfg = tmp_path / "k1.cfg"
        cfg.write_text("experiment = block\nd = 2\nl = 4\nblock_k = 1\n")
        out = tmp_path / "b.csv"
        assert main(["block", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        vals = {r["quantity"]: float(r["value"]) for r in rows}
        assert vals["dense_deviation"] < 1e-14
        assert vals["blocked_sites"] == 4

    def test_preset_k2(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["block", "--config", preset("block_d2.cfg"), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        vals = {r["quantity"]: float(r["value"]) for r in rows}
        assert vals["dense_deviation"] < 1e-15
        assert vals["containment_deviation"] < 1e-12
        assert vals["refined_gauge_order"] == 4


class TestDecayAndReport:
    def test_decay_two_series_and_report(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            "experiment = decay\nd = 2\nl = 6\n"
            "hopping = 1=0-0.0625j, -1=0+0.0625j\n"
            "t_start = 0\nt_stop = 2\nt_count = 3\n"
        )
        out = tmp_path / "d.csv"
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        pairs = {r["pair_id"] for r in rows}
        assert pairs == {"dressed_gauge_invariant", "bare_charged"}
        gi = [r for r in rows if r["pair_id"] == "dressed_gauge_invariant"]
        assert gi[0]["a_gauge_invariant"] == "1"
        bare = [r for r in rows if r["pair_id"] == "bare_charged"]
        assert bare[0]["a_gauge_invariant"] == "0"

        summary = tmp_path / "s.csv"
        assert main(["report", str(out), "--out", str(summary)]) == 0
        header, srows = read_rows(summary)
        assert header[0] == "file"
        assert int(srows[0]["rows"]) == 6

    def test_decay_stays_on_blocks(self, tmp_path, monkeypatch):
        # both pairs have definite charge: every commutator norm is a block norm
        forbid_full_matrix(monkeypatch)
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            "experiment = decay\nd = 3\nl = 5\nhopping = 1=0.5, -1=0.5\n"
            "t_start = 0\nt_stop = 2\nt_count = 3\n"
        )
        out = tmp_path / "d.csv"
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 6

    def test_report_keeps_nan(self, tmp_path):
        # at d = 3 evolve has no one-particle prediction: flow_deviation is nan in every row
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS["d3"])
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = tmp_path / "s.csv"
        assert main(["report", str(out), "--out", str(summary)]) == 0
        _, srows = read_rows(summary)
        assert srows[0]["max_value"] == "nan"

    def test_report_reads_quoted_cells(self, tmp_path):
        # the quoted payload holds commas and comes before status and deviation
        src = tmp_path / "v.csv"
        src.write_text(
            "relation_id,oracle_payload,status,deviation\n"
            'shift_defect,"(1)*W_0(1,0) W_1(0,1)",EXACT,2.5e-13\n'
            'pair_expansion,"a,b",MISMATCH,0.125\n'
        )
        summary = tmp_path / "s.csv"
        assert main(["report", str(src), "--out", str(summary)]) == 0
        _, srows = read_rows(summary)
        assert int(srows[0]["rows"]) == 2
        assert int(srows[0]["n_exact"]) == 1
        assert int(srows[0]["n_mismatch"]) == 1
        assert float(srows[0]["max_value"]) == 0.125


class TestReportErrors:
    def _report(self, tmp_path, capsys, src):
        summary = tmp_path / "s.csv"
        code = main(["report", str(src), "--out", str(summary)])
        assert code == 2
        assert "report error" in capsys.readouterr().err
        assert not summary.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        self._report(tmp_path, capsys, tmp_path / "nope.csv")

    def test_empty_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        self._report(tmp_path, capsys, src)

    def test_short_row_exits_2(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        src.write_text("relation_id,tier,status,deviation\ngroup_law,exact,EXACT,0\nunit_norm,exact\n")
        self._report(tmp_path, capsys, src)

    def test_long_row_exits_2(self, tmp_path, capsys):
        # a row wider than the header is not one the tool writes
        src = tmp_path / "long.csv"
        src.write_text("quantity,value\nx,1,999\n")
        self._report(tmp_path, capsys, src)


class TestEvolveCommand:
    def test_small_free_run(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "experiment = evolve\nd = 2\nl = 8\n"
            "hopping = 1=0-0.000625j, -1=0+0.000625j\n"
            "t_start = 0\nt_stop = 1\nt_count = 3\n"
        )
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 3
        assert all(float(r["flow_deviation"]) < 1e-8 for r in rows)
        assert all(float(r["span_residual"]) < 1e-10 for r in rows)

    @pytest.mark.parametrize("case, rotations", [("d2", 1), ("d3", 0)])
    def test_rotates_each_operator_once(self, tmp_path, monkeypatch, case, rotations):
        # only block (1, 0) of the field (only with a one-particle prediction,
        # at d = 2) is rotated, once for the whole 9-point grid; the
        # reconstruction rotates nothing, so at d = 3 H is never diagonalised;
        # every check stays on sector blocks
        calls, diagonalised = [], []
        rotate, eigensystem = dynamics.QuadraticModel.eigenbasis_blocks, dynamics.QuadraticModel.eigensystem

        def counting(model, a):
            calls.append(a)
            return rotate(model, a)

        def recording(model):
            diagonalised.append(model)
            return eigensystem.fget(model)

        monkeypatch.setattr(dynamics.QuadraticModel, "eigenbasis_blocks", counting)
        monkeypatch.setattr(dynamics.QuadraticModel, "eigensystem", property(recording))
        forbid_full_matrix(monkeypatch)
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS[case])
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 0
        assert len(calls) == rotations
        assert all(list(a.blocks) == [(1, 0)] for a in calls)
        if case == "d3":
            assert not diagonalised

    def test_non_hermitian_field_raises(self, tmp_path, monkeypatch):
        # the flow evolves block (1, 0) alone and takes block (0, 1) as its
        # adjoint, which holds for a hermitian field only: a field with one
        # generator scaled by 1j stops the run before any flow column is written
        def skewed(f, params, chain):
            f = f.copy()
            f[0, np.flatnonzero(f[0])[0]] *= 1j
            return smear(f, params, chain)

        monkeypatch.setattr(cli, "smear", skewed)
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS["d2"])
        out = tmp_path / "e.csv"
        with pytest.raises(ValueError, match="not hermitian"):
            main(["evolve", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_one_back_rotation_per_grid_point(self, tmp_path, monkeypatch):
        # at d = 2 each t maps only block (1, 0) of the evolved field (for the
        # flow) back to the site basis; the reconstruction forms its dressed
        # product once for the whole grid and norms it in the site basis
        counts = {"product": 0, "site_blocks": 0}
        product, back = DenseOperator.__matmul__, dynamics.QuadraticModel.site_blocks

        def counting_product(x, y):
            counts["product"] += 1
            return product(x, y)

        def counting_back(model, a):
            counts["site_blocks"] += 1
            return back(model, a)

        monkeypatch.setattr(DenseOperator, "__matmul__", counting_product)
        monkeypatch.setattr(dynamics.QuadraticModel, "site_blocks", counting_back)
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS["d2"])
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 0
        assert counts == {"product": 1, "site_blocks": 9}

    def test_working_set(self, tmp_path):
        # the eigenvectors, block (1, 0) of the rotated field and, per t, one
        # phased copy mapped back and the realized prediction, freed before
        # the next t: the traced peak stays within 8 blocks of m x m complex
        # entries (m = 128), with no dense H kept after eigh
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS["d2"].replace("l = 6", "l = 8").replace("t_count = 9", "t_count = 3"))
        out = str(tmp_path / "e.csv")
        code, peak = traced_peak(lambda: main(["evolve", "--config", str(cfg), "--out", out]))
        assert code == 0
        assert peak <= 8 * 16 * 128**2

    @pytest.mark.parametrize("name", ["evolve_d2.cfg", "evolve_d3.cfg"])
    def test_preset_reconstruction_same_on_every_row(self, tmp_path, name):
        # the reconstruction deviation does not depend on t and is taken once
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", preset(name), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == len(load_config(preset(name)).t_grid()) > 1
        (cell,) = {r["reconstruction_deviation"] for r in rows}
        assert float(cell) < 1e-12

    @pytest.mark.parametrize("case", ["d2", "d3"])
    def test_matches_per_t_evolution(self, tmp_path, case):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(EVOLVE_CONFIGS[case])
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        want = _per_t_evolve_rows(parse_config(EVOLVE_CONFIGS[case]))
        assert len(rows) == len(want) == 9
        for got, ref in zip(rows, want):
            for key, value in ref.items():
                cell = float(got[key])
                assert (math.isnan(cell) and math.isnan(value)) or abs(cell - value) <= 1e-12, (key, cell, value)

    @pytest.mark.parametrize("j_plus, j_minus, hopping", [
        *[pytest.param(jp, jm, "1=-0.01j, -1=0.01j", id=f"{jp}-{jm}") for jp, jm in [(0, 1), (1, 0), (0, 0), (1, 1)]],
        *[pytest.param(jp, jm, "1=0.3, -1=0.3", id=f"real-{jp}-{jm}") for jp, jm in [(0, 1), (1, 0)]],
    ])
    def test_flow_only_at_grading_charge_0(self, tmp_path, j_plus, j_minus, hopping):
        # at d = 2 the field moves only for j+ = j- (mod 2); at j+ != j- the dressed
        # generators commute, this imaginary hopping gives H = 0, the generator is 0 and
        # the frozen field matches its prediction exactly, since every d = 2 phase is
        # exact; a real hopping there builds H from Re h, which commutes with the
        # flavour-0 field (span residual 0) but moves the flavour-1 generators out of
        # the span, so there is no generator and the flow column is NaN
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            f"experiment = evolve\nd = 2\nl = 8\nj_plus = {j_plus}\nj_minus = {j_minus}\n"
            f"hopping = {hopping}\nt_start = 1\nt_stop = 2\nt_count = 2\n"
        )
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert all(float(r["span_residual"]) == 0.0 and float(r["reconstruction_deviation"]) < 1e-12 for r in rows)
        h = Hopping(load_config(str(cfg)).hopping)
        m = generator(QuadraticModel(ChainSpec(2, 8), GradingParams(2, j_plus, j_minus), h))
        if j_plus == j_minus:
            assert np.abs(m).max() > 0.01
            assert all(float(r["flow_deviation"]) < 1e-12 for r in rows)
        elif any(a.real for a in h.coefficients.values()):
            assert m is None
            assert all(math.isnan(float(r["flow_deviation"])) for r in rows)
        else:
            assert not m.any()
            assert all(float(r["flow_deviation"]) == 0.0 for r in rows)

    @pytest.mark.parametrize("body", [
        "d = 2\nl = 8\nhopping = 1=0.0625, -1=0.0625\nt_stop = 16\n",
        "d = 2\nl = 10\nhopping = 1=0-0.0625j, -1=0+0.0625j\nt_stop = 16\n",
        "d = 2\nl = 8\nhopping = 1=0.0375-0.05j, -1=0.0375+0.05j, 2=0.03+0.02j, -2=0.03-0.02j\nt_stop = 16\n",
        "d = 2\nl = 4\nhopping = 3=0-0.5j, -3=0+0.5j\nt_stop = 16\n",
        "d = 3\nl = 4\nhopping =\nt_stop = 16\n",
    ], ids=["real_hopping", "long_time", "nnn_complex", "wide_hopping", "d3_no_hopping"])
    def test_open_chain_flow_exact(self, tmp_path, body):
        # the predicted field W(exp(tM) f0) is the dense flow to round-off on the open
        # chain, for any hopping and time; a real hopping at d = 2 gives H = 0 up to
        # round-off, and a hopping as wide as the chain is a valid run; at d = 3 the
        # generator exists when H moves nothing, and every charge block is compared
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"experiment = evolve\n{body}t_start = 0\nt_count = 5\n")
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 5
        assert all(float(r["flow_deviation"]) <= 1e-12 and float(r["span_residual"]) == 0.0 for r in rows)


EVOLVE_CONFIGS = {
    "d2": "experiment = evolve\nd = 2\nl = 6\nhopping = 1=0-0.0625j, -1=0+0.0625j\n"
          "t_start = 0\nt_stop = 2\nt_count = 9\n",
    "d3": "experiment = evolve\nd = 3\nl = 4\nhopping = 1=0.5, -1=0.5\nt_start = 0\nt_stop = 2\nt_count = 9\n",
}


def _per_t_evolve_rows(cfg):
    """The rows of ``evolve`` rebuilt in the site basis, each operator conjugated by the full expm(iHt) per t.

    At d = 2 the predicted field is the open-chain flow of the first flavor,
    f_t = expm(tK) f0 with K[y + x, y] = 8 Im h(x) for every bond in the chain;
    the second flavor commutes with H and stays as it is.
    """
    d, L = cfg.d, cfg.l
    params = GradingParams(d, cfg.j_plus, cfg.j_minus)
    chain = ChainSpec(d, L)
    model = QuadraticModel(chain, params, Hopping(cfg.hopping))
    f0 = np.zeros((d, L), dtype=complex)
    f0[0, L // 2 - 1 : L // 2 + 1] = 1.0, 0.5
    res, _ = span_residual(model, f0)
    h = model.dense_hamiltonian.entries
    a0 = realize(smear(f0, params, chain), chain).entries
    k = np.zeros((L, L))
    for x, a in cfg.hopping.items():
        for y in range(max(0, -x), min(L, L - x)):
            k[y + x, y] = 8 * a.imag
    site = L // 2
    clock, ma, mb = (
        realize(m, chain).entries
        for m in (WeylMonomial.single(d, site, 1, 0), dressed_weyl(site, 1, params, chain),
                  dressed_weyl_rs(site, 1, -1, params, chain))
    )
    rows = []
    for t in cfg.t_grid():
        u = scipy.linalg.expm(1j * t * h)
        flow = float("nan")
        if d == 2:
            ft = f0.copy()
            ft[0] = scipy.linalg.expm(t * k) @ f0[0]
            pred = realize(smear(ft, params, chain), chain)
            flow = float(np.abs(u @ a0 @ u.conj().T - pred.entries).max())
        lhs, fa, fb = (u @ m @ u.conj().T for m in (clock, ma, mb))
        rec = float(np.linalg.norm(lhs - cmath.exp(2j * cmath.pi / d) * (fa @ fb)))
        rows.append({"t": t, "flow_deviation": flow, "span_residual": res, "reconstruction_deviation": rec})
    return rows
