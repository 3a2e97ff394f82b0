"""Experiment runner: config parsing, CSV outputs, exit codes, determinism."""

import os

import pytest

from grading_lab.cli import main
from grading_lab.config import ConfigError, ExperimentConfig, parse_config

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
    ], ids=["d1", "l0", "block_k_not_divisor", "evolve_non_hermitian", "decay_non_hermitian", "decay_short_chain"])
    def test_bad_value_exits_2(self, tmp_path, capsys, command, body):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = {command}\n{body}t_start = 0\nt_stop = 1\nt_count = 2\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_verify_preset_exits_0(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--config", preset("verify_d3.cfg"), "--out", str(out)]) == 0
        assert out.exists()


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
