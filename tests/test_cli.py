"""CLI: exit codes, serialization, determinism, atomic output."""

import json
import os

import pytest

from wordmetric.cli import main


def run(args):
    return main(args)


class TestApproxSym:
    def test_random_target_success(self, tmp_path, capsys):
        out = tmp_path / "witness.json"
        code = run(
            [
                "approx-sym",
                "--word",
                "[x,y]",
                "--n",
                "60",
                "--target",
                "random",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["schema"] == 1
        assert record["config"]["word"] == "[x,y]"
        assert record["config"]["format"] == "json"
        result = record["result"]
        from fractions import Fraction

        assert Fraction(result["achieved_distance"]) <= Fraction(
            result["bound_distance"]
        )

    def test_empty_word_exit_2(self):
        assert run(["approx-sym", "--word", "", "--n", "5"]) == 2

    def test_bad_word_exit_2(self):
        assert run(["approx-sym", "--word", "z^2", "--n", "5"]) == 2

    def test_trivial_word_construction_failure_exit_3(self):
        assert run(["approx-sym", "--word", "x x^-1", "--n", "5"]) == 3

    def test_explicit_cycle_target(self, capsys):
        code = run(["approx-sym", "--word", "x^2", "--n", "2", "--target", "(0 1)"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["achieved_distance"] == "1"

    def test_target_from_file(self, tmp_path, capsys):
        spec = tmp_path / "target.txt"
        spec.write_text("(0 1 2 3 4)\n")
        code = run(
            ["approx-sym", "--word", "x^2", "--n", "5", "--target", str(spec)]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["achieved_distance"] == "0"

    @pytest.mark.parametrize("spec", ["(0 1", "(0 0)", "(0 9)", "(a b)"])
    def test_bad_target_exit_2(self, spec, capsys):
        assert run(["approx-sym", "--word", "[x,y]", "--n", "5", "--target", spec]) == 2
        assert "error: bad target" in capsys.readouterr().err

    def test_undecodable_target_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "target.txt"
        path.write_bytes(b"\xff\xfe(0 1)")
        assert run(["approx-sym", "--word", "[x,y]", "--n", "5", "--target", str(path)]) == 2
        assert "error: bad target" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        assert run(["approx-sym", "--word", "[x,y]", "--n", "10", "--seed", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["n"] == 10


class TestSuCert:
    def test_surjective(self, capsys):
        assert run(["su-cert", "--word", "[x,y]", "--n", "9"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["verdict"] == "surjective"

    def test_trivially_surjective(self, capsys):
        assert run(["su-cert", "--word", "x y", "--n", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["verdict"] == "surjective_trivially"

    def test_unknown(self, capsys):
        assert run(["su-cert", "--word", "[[x,y],[x,y^2]]", "--n", "5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["verdict"] == "unknown"

    def test_n_too_small_exit_2(self):
        assert run(["su-cert", "--word", "[x,y]", "--n", "1"]) == 2

    def test_trivial_word_construction_failure_exit_3(self, capsys):
        assert run(["su-cert", "--word", "x x^-1", "--n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("construction failed: ")
        assert captured.out == ""


class TestDensityScan:
    def test_rows_sorted_and_decreasing(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "density-scan",
                "--word",
                "[x,y]",
                "--ns",
                "200,50",
                "--samples",
                "5",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert lines[1].startswith("# config=")
        assert lines[2] == "n,mean,max,bound"
        rows = [line.split(",") for line in lines[3:]]
        assert [int(r[0]) for r in rows] == [50, 200]
        assert float(rows[1][1]) < float(rows[0][1])

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "density-scan",
            "--word",
            "x^2",
            "--ns",
            "10,20",
            "--samples",
            "8",
            "--seed",
            "3",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exhaustive_mode_matches_oracle_sup(self, tmp_path):
        out = tmp_path / "all.csv"
        code = run(
            [
                "density-scan",
                "--word",
                "x^2",
                "--ns",
                "4,6",
                "--samples",
                "all",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "n,"))
        ]
        # oracle sup distances for squares: 1/2 at n=4 and n=6
        assert float(rows[0][2]) == pytest.approx(0.5)
        assert float(rows[1][2]) == pytest.approx(0.5)

    def test_empty_grid_exit_2(self):
        assert run(["density-scan", "--word", "x^2", "--ns", "", "--samples", "5"]) == 2

    def test_bad_samples_exit_2(self):
        assert (
            run(["density-scan", "--word", "x^2", "--ns", "4", "--samples", "none"])
            == 2
        )

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        args = [
            "density-scan",
            "--word",
            "[x,y]",
            "--ns",
            "12,24",
            "--samples",
            "6",
            "--seed",
            "5",
        ]
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "parallel.csv"
        assert run(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("WORDMAP_THREADS", "4")
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.json"
        code = run(
            ["approx-sym", "--word", "x x^-1", "--n", "5", "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".wordmetric")]

    @pytest.mark.parametrize("name", ["missing/w.json", "existing-dir"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, name):
        (tmp_path / "existing-dir").mkdir()
        out = tmp_path / name
        code = run(["approx-sym", "--word", "[x,y]", "--n", "8", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {str(out)!r}: ")
        assert captured.out == ""
        assert out.is_dir() == (name == "existing-dir")
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".wordmetric")]

    def test_overwrite_is_complete(self, tmp_path):
        out = tmp_path / "w.json"
        out.write_text("garbage that should be fully replaced")
        assert (
            run(["approx-sym", "--word", "[x,y]", "--n", "8", "--out", str(out)]) == 0
        )
        json.loads(out.read_text())  # parses fully
