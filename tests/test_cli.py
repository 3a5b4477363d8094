import csv
import json
import math

import numpy as np
import pytest

from ringspin.chain import dipolar_ratios, max_neighbors
from ringspin.cli import Table, _emit, main
from ringspin.fitting import FitSeries, fit_decay, fit_trends
from ringspin.metrics import TimeWindow, error_map

HALF_SQRT2 = 2.0**-1.5


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(args):
    return main(args)


class TestSpectrumCommand:
    def test_square_ring_nearest_neighbor(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--n", "4", "--m", "1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["mode", "wave_number", "eigenvalue", "multiplicity"]
        multiset = []
        for row in rows:
            multiset.extend([float(row[2])] * int(row[3]))
        np.testing.assert_allclose(sorted(multiset), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_pentagon_degeneracy_structure(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--n", "5", "--m", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert [int(r[3]) for r in rows] == [1, 2, 2]

    def test_hexagon_full_range_alternating_correction(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--n", "6", "--m", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        d3 = 0.125
        lam = {int(r[0]): float(r[2]) for r in rows}
        # modes 1 and 4 carry +d3 and the sign flips mode by mode
        ratios = [1.0, 3.0**-1.5, d3]
        for mode, pm in ((1, 0.0), (2, np.pi / 3), (3, 2 * np.pi / 3), (4, np.pi)):
            expected = 2 * sum(
                ratios[j - 1] * math.cos(pm * j) for j in (1, 2)
            ) + (-1) ** (mode - 1) * d3
            assert lam[mode] == pytest.approx(expected, abs=1e-12)


class TestProbmapCommand:
    def test_shape_and_order(self, tmp_path):
        out = tmp_path / "probs.csv"
        assert run(["probmap", "--n", "8", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["neighbors", "target", "avg_probability"]
        nf = max_neighbors(8)
        assert len(rows) == nf * (nf + 1)
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)  # lexicographic in (M, target)


class TestJmapCommand:
    def test_companion_table_and_zero_last_row(self, tmp_path):
        out = tmp_path / "errors.csv"
        assert run(["jmap", "--n", "8", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["neighbors", "target", "error"]
        nf = max_neighbors(8)
        last = [float(r[2]) for r in rows if int(r[0]) == nf]
        assert last and all(v == 0.0 for v in last)
        avg_header, avg_rows = read_csv(tmp_path / "errors_error_avg.csv")
        assert avg_header == ["neighbors", "mean_error"]
        assert len(avg_rows) == nf


class TestThresholdCommand:
    def test_twenty_ring(self, tmp_path):
        out = tmp_path / "threshold.csv"
        assert run(["threshold", "--n", "20", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows == [["20", "8"]]
        _, audit = read_csv(tmp_path / "threshold_audit.csv")
        assert len(audit) == max_neighbors(20)

    def test_n_list(self, tmp_path):
        out = tmp_path / "threshold.csv"
        assert run(["threshold", "--n-list", "8,10", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["8", "10"]

    def test_missing_n_is_bad_config(self):
        assert run(["threshold"]) == 2


class TestFitCommand:
    def test_single_chain(self, tmp_path):
        out = tmp_path / "fit.csv"
        assert run(["fit", "--n", "20", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["nodes", "a", "b", "c", "d", "rms"]
        assert len(rows) == 1
        assert float(rows[0][5]) < 0.01

    def test_too_short_chain_is_bad_config(self):
        assert run(["fit", "--n", "8"]) == 2

    def test_trend_table_from_sorted_lengths(self, capsys):
        assert run(["fit", "--n-list", "36,20,70", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row[0] for row in payload["fit"]["rows"]] == [36, 20, 70]
        entries = []
        for nodes in (20, 36, 70):
            _, means = error_map(nodes, dipolar_ratios(nodes), TimeWindow.matched(nodes))
            entries.append((nodes, fit_decay([(m, means[m - 1]) for m in range(2, nodes // 2)])))
        report = fit_trends(FitSeries(tuple(entries)))
        names = list(report.slopes)
        assert payload["trend"]["columns"] == (
            [f"slope_{p}" for p in names] + [f"sign_ok_{p}" for p in names]
        )
        (row,) = payload["trend"]["rows"]
        assert row[:4] == pytest.approx(list(report.slopes.values()), rel=1e-12)
        assert row[4:] == [int(report.matches_expected[p]) for p in names]

    @pytest.mark.parametrize("lengths", [["--n", "20"], ["--n-list", "20,36"],
                                         ["--n-list", "20,36,20"]])
    def test_no_trend_table_below_three_lengths(self, capsys, lengths):
        assert run(["fit", *lengths, "--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["fit"]


class TestOutputFormats:
    def test_csv_json_round_trip_equality(self, tmp_path):
        csv_out = tmp_path / "t.csv"
        json_out = tmp_path / "t.json"
        assert run(["jmap", "--n", "9", "--out", str(csv_out)]) == 0
        assert run(["jmap", "--n", "9", "--format", "json", "--out", str(json_out)]) == 0
        payload = json.loads(json_out.read_text())
        header, rows = read_csv(csv_out)
        assert payload["error"]["columns"] == header
        for csv_row, json_row in zip(rows, payload["error"]["rows"], strict=True):
            parsed = [int(csv_row[0]), int(csv_row[1]), float(csv_row[2])]
            assert parsed == json_row
        avg_header, avg_rows = read_csv(tmp_path / "t_error_avg.csv")
        assert payload["error_avg"]["columns"] == avg_header
        for csv_row, json_row in zip(avg_rows, payload["error_avg"]["rows"], strict=True):
            assert [int(csv_row[0]), float(csv_row[1])] == json_row

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["probmap", "--n", "11", "--out", str(a)])
        run(["probmap", "--n", "11", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_stdout_csv(self, capsys):
        assert run(["spectrum", "--n", "4", "--m", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mode,wave_number,eigenvalue,multiplicity"
        assert len(lines) == 4


class TestCustomProfiles:
    def test_custom_profile_file(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("1.0\n0.2\n0.05\n0.01\n")
        out = tmp_path / "spectrum.csv"
        code = run([
            "spectrum", "--n", "8", "--m", "1",
            "--profile", f"custom:{path}", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        lam = {int(r[0]): float(r[2]) for r in rows}
        # nearest-neighbor model: lam_m = 2 cos(p_m)
        for mode in range(1, 6):
            pm = 2 * np.pi * (mode - 1) / 8
            assert lam[mode] == pytest.approx(2 * math.cos(pm), abs=1e-12)

    def test_short_profile_file_is_bad_config(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("1.0\n0.2\n")
        assert run(["spectrum", "--n", "8", "--profile", f"custom:{path}"]) == 2

    def test_missing_profile_file_is_bad_config(self, tmp_path):
        missing = tmp_path / "nope.txt"
        assert run(["spectrum", "--n", "8", "--profile", f"custom:{missing}"]) == 2

    def test_unknown_profile_kind_is_bad_config(self):
        assert run(["spectrum", "--n", "8", "--profile", "quadrupolar"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_profile_file_is_bad_config(self, tmp_path, capsys, bad):
        path = tmp_path / "profile.txt"
        path.write_text(f"1.0\n0.3\n{bad}\n0.01\n0.001\n")
        for command in ("threshold", "jmap"):
            code = run([command, "--n", "10", "--format", "json",
                        "--profile", f"custom:{path}"])
            assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


class TestBadConfig:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_degenerate_ring(self):
        assert run(["spectrum", "--n", "2"]) == 2

    def test_epsilon_out_of_range(self):
        assert run(["threshold", "--n", "8", "--epsilon", "1.5"]) == 2

    def test_infinite_window(self):
        assert run(["jmap", "--n", "8", "--t-max", "inf", "--format", "json"]) == 2

    def test_json_refuses_nan(self):
        with pytest.raises(ValueError):
            _emit([Table("t", ["x"], [[math.nan]])], "json", None)

    @pytest.mark.parametrize("command", [["threshold"], ["jmap"], ["probmap"]])
    def test_window_overflowing_the_kernel(self, capsys, command):
        # delta * t_max overflows to inf, so the window integrals would be nan
        assert run([*command, "--n", "6", "--t-max", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "1e-12"])
    def test_bad_quadrature_step(self, capsys, step):
        assert run(["validate", f"--quad-step={step}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "quadrature step" in captured.err


class TestValidateCommand:
    def test_passes_with_coarse_quadrature(self, capsys):
        # a coarser Simpson step keeps the runtime low; tolerances still hold
        assert run(["validate", "--quad-step", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_coarse_quadrature_fails_only_the_simpson_check(self, capsys):
        assert run(["validate", "--quad-step", "0.5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["PASS", "PASS", "PASS", "FAIL", "PASS"]
        assert lines[3].startswith("FAIL  window integrals vs Simpson (step 0.5)")
