"""Command-line front end: subcommands, exit codes, manifests, rendering."""

import json
import xml.etree.ElementTree as ET

import pytest

from blockembed.cli import EXIT_CAP, EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAuditParams:
    def test_ten_rows(self, capsys):
        code, out, _ = run(capsys, "audit-params", "--profile", "published")
        assert code == EXIT_OK
        rows = [l for l in out.splitlines() if l and not l.startswith(("constraint", "overall"))]
        assert len(rows) == 10

    def test_override_flags(self, capsys):
        code, out, _ = run(capsys, "audit-params", "--profile", "published",
                           "--alpha", "7", "--gamma", "280")
        assert code == EXIT_OK
        assert any("gamma > 40*alpha" in l and "False" in l for l in out.splitlines())

    def test_unknown_profile_is_config_error(self, capsys):
        code, _, _ = run(capsys, "audit-params", "--profile", "missing")
        assert code == EXIT_CONFIG


class TestBuild:
    def test_deterministic_dump(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run(capsys, "build", "--profile", "toy1", "--seed", "5",
                             "--window", "0", "0", "2", "2", "--out-dir", str(d))
            assert code == EXIT_OK
        fa = (a / "hierarchy-Y-5.txt").read_text()
        fb = (b / "hierarchy-Y-5.txt").read_text()
        assert fa == fb

    def test_manifest_written(self, tmp_path, capsys):
        code, _, _ = run(capsys, "build", "--seed", "5", "--out-dir", str(tmp_path / "m"))
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["subcommand"] == "build"
        assert sorted(manifest["config"]) == ["family", "profile", "seed", "window"]
        assert "config_hash" in manifest and manifest["artifacts"]

    def test_no_overwrite(self, tmp_path, capsys):
        d = tmp_path / "x"
        code, _, _ = run(capsys, "build", "--seed", "5", "--out-dir", str(d))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "build", "--seed", "5", "--out-dir", str(d))
        assert code == EXIT_PRECONDITION


def _snapshot(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("command, extra", [
    ("sample", ("--width", "4", "--height", "4")),
    ("build", ()),
    ("render", ()),
    ("reports", ("--profile", "toy1", "--windows", "1")),
])
def test_second_run_into_an_out_dir_writes_nothing(tmp_path, capsys, command, extra):
    # Another seed names another artifact, but the manifest is taken.
    d = tmp_path / "out"
    code, _, _ = run(capsys, command, "--seed", "1", *extra, "--out-dir", str(d))
    assert code == EXIT_OK
    before = _snapshot(d)
    code, out, err = run(capsys, command, "--seed", "2", *extra, "--out-dir", str(d))
    assert code == EXIT_PRECONDITION
    assert out == "" and "refusing to overwrite" in err
    assert _snapshot(d) == before


class TestSampleAndOracle:
    def test_round_trip_through_files(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sample", "--seed", "1", "--family", "X",
                         "--width", "2", "--height", "2",
                         "--out-dir", str(tmp_path / "sx"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "sample", "--seed", "2", "--family", "Y",
                         "--width", "5", "--height", "5",
                         "--out-dir", str(tmp_path / "sy"))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "oracle",
                           "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                           "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                           "-m", "2", "--mode", "count")
        assert code == EXIT_OK
        assert "count" in json.loads(out.strip())

    def test_node_cap_exit_code(self, tmp_path, capsys):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        code, _, _ = run(capsys, "oracle",
                         "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                         "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                         "-m", "2", "--mode", "count", "--node-cap", "1")
        assert code == EXIT_CAP

    @pytest.mark.parametrize("extra", [("--mode", "enumerate", "--limit", "0"),
                                       ("--mode", "enumerate", "--limit", "-3"),
                                       ("-m", "-2", "--mode", "count"),
                                       ("-m", "nan", "--mode", "count"),
                                       ("-m", "inf", "--mode", "decide")])
    def test_bad_limit_or_bound_is_config_error(self, tmp_path, capsys, extra):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        args = ["oracle", "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                "--y-file", str(tmp_path / "sy" / "field-Y-2.bin")]
        if "-m" not in extra:
            args += ["-m", "2"]
        code, out, err = run(capsys, *args, *extra)
        assert code == EXIT_CONFIG
        assert out == "" and "config error" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_node_cap_below_one_is_config_error(self, tmp_path, capsys, cap):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        code, out, err = run(capsys, "oracle", "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                             "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                             "-m", "2", "--mode", "count", "--node-cap", cap)
        assert code == EXIT_CONFIG
        assert out == "" and f"--node-cap must be at least 1, got {cap}" in err

    def test_truncated_field_file_is_config_error(self, tmp_path, capsys):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        x_file = tmp_path / "sx" / "field-X-1.bin"
        x_file.write_bytes(x_file.read_bytes()[:-1])
        code, _, err = run(capsys, "oracle", "--x-file", str(x_file),
                           "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                           "-m", "2", "--mode", "count")
        assert code == EXIT_CONFIG
        assert "payload" in err


class TestEstimateAndReports:
    def test_estimate_s_runs(self, capsys):
        code, out, _ = run(capsys, "estimate-s", "--profile", "toy-m0-3",
                           "--seed", "3", "--trials", "200",
                           "--window", "0", "0", "1", "1")
        assert code == EXIT_OK
        assert out.startswith("level,size,point")

    def test_estimate_s_says_why_no_rows(self, capsys):
        # Every block of the default 2x2 window is censored.
        code, out, err = run(capsys, "estimate-s", "--profile", "toy1", "--family", "X",
                             "--level", "1", "--trials", "5")
        assert code == EXIT_OK
        assert out == "level,size,point,ci_low,ci_high,trials\n"
        assert len(err.splitlines()) == 1
        assert "no uncensored level-1 target" in err
        code, out, err = run(capsys, "estimate-s", "--profile", "toy1", "--family", "X",
                             "--level", "1", "--trials", "5", "--seed", "5",
                             "--window", "0", "0", "3", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) > 1 and err == ""

    @pytest.mark.parametrize("flag", [("--trials", "0"), ("--trials", "-2"),
                                      ("--workers", "0"), ("--workers", "-3")])
    @pytest.mark.parametrize("window", [("0", "0", "2", "2"), ("0", "0", "3", "3")])
    def test_estimate_s_bad_counts_are_config_errors(self, capsys, flag, window):
        # The 2x2 window has no uncensored target at seed 5, the 3x3 one has.
        code, out, err = run(capsys, "estimate-s", "--profile", "toy1", "--family", "X",
                             "--level", "1", "--seed", "5", "--window", *window, *flag)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"{flag[0]} must be at least 1, got {flag[1]}" in err

    def test_estimate_s_level_validation(self, capsys):
        # Rejected before anything is built or printed.
        for args in [("--level", "2"), ("--family", "X", "--level", "0"),
                     ("--family", "Y", "--level", "1")]:
            code, out, _ = run(capsys, "estimate-s", *args)
            assert code == EXIT_CONFIG
            assert out == ""

    def test_reports_deterministic(self, tmp_path, capsys):
        args = ("reports", "--profile", "toy-m0-3", "--seed", "3",
                "--windows", "2", "--window", "0", "0", "3", "3")
        code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "r1"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "r2"))
        assert code == EXIT_OK
        for name in ("tail.csv", "size.csv", "good.csv", "tail.records"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


    @pytest.mark.parametrize("profile, censored", [("toy-m0-3", True), ("toy1", False)])
    def test_reports_notes_a_stand_in_sample(self, tmp_path, capsys, profile, censored):
        # A toy-m0-3 window's bad cells merge into one censored component,
        # so the tail and size tables fall back to one stand-in sample.
        code, _, err = run(capsys, "reports", "--profile", profile, "--seed", "3",
                           "--windows", "1", "--window", "0", "0", "3", "3",
                           "--out-dir", str(tmp_path / "r"))
        assert code == EXIT_OK
        assert ("stand-in sample (S=1, V=1)" in err) == censored
        size = (tmp_path / "r" / "size.csv").read_text().splitlines()
        assert (size[2:] == ["0,1,1,1,1,1"]) == censored


class TestEmptyWindow:
    # Empty and inverted level-1 windows hold no level-1 cell.
    @pytest.mark.parametrize("window", [(0, 0, 0, 0), (1, 1, 1, 3), (2, 2, 0, 0)])
    @pytest.mark.parametrize("command", ["build", "components", "estimate-s", "reports",
                                         "render"])
    def test_rejected_as_config_error(self, tmp_path, capsys, command, window):
        out_dir = tmp_path / "out"
        args = [command, "--window", *map(str, window)]
        if command in ("build", "reports", "render"):
            args += ["--out-dir", str(out_dir)]
        code, out, err = run(capsys, *args)
        assert code == EXIT_CONFIG
        assert f"level-1 window {window} holds no cell" in err
        assert out == "" and not out_dir.exists()


class TestRender:
    def test_svg_well_formed_and_cross_counted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "build", "--profile", "toy1", "--seed", "7",
                         "--window", "0", "0", "2", "2",
                         "--out-dir", str(tmp_path / "b"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "render", "--profile", "toy1", "--seed", "7",
                         "--window", "0", "0", "2", "2",
                         "--out-dir", str(tmp_path / "r"))
        assert code == EXIT_OK
        svg = (tmp_path / "r" / "level1-Y-7.svg").read_text()
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        blocks_in_svg = len([e for e in root.iter(f"{ns}g") if e.get("class") == "block"])
        dump = (tmp_path / "b" / "hierarchy-Y-7.txt").read_text()
        blocks_in_dump = sum(1 for l in dump.splitlines() if l.startswith("block level=1"))
        assert blocks_in_svg == blocks_in_dump > 0
        cells_in_svg = len([e for e in root.iter(f"{ns}rect") if e.get("class") == "cell"])
        assert cells_in_svg == 4


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("profile = toy-m0-3\nseed = 11\n")
        code, out, _ = run(capsys, "--config", str(cfg), "components")
        assert code == EXIT_OK
        assert out.startswith("level,status")

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 11\n")
        d = tmp_path / "out"
        code, _, _ = run(capsys, "--config", str(cfg), "build", "--seed", "3",
                         "--out-dir", str(d))
        assert code == EXIT_OK
        assert (d / "hierarchy-Y-3.txt").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("what even is this\n")
        code, _, _ = run(capsys, "--config", str(cfg), "components")
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        # A misspelt key is refused by name, not ignored; a key that only
        # another subcommand takes, or a long flag name, stays accepted.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("windw = 0 0 3 3\n")
        code, out, err = run(capsys, "--config", str(cfg), "components", "--family", "X")
        assert code == EXIT_CONFIG and out == ""
        assert "config error:" in err and "'windw'" in err
        cfg.write_text("window = 0 0 1 1\nout-dir = unused\nm = 3\n")
        code, out, _ = run(capsys, "--config", str(cfg), "components", "--family", "X")
        assert code == EXIT_OK and out.startswith("level,status")
        code, via_config, _ = run(capsys, "--config", str(cfg), "audit-params")
        assert code == EXIT_OK
        assert via_config == run(capsys, "audit-params", "--m", "3")[1]
        assert via_config != run(capsys, "audit-params")[1]
