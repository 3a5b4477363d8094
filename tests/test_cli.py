import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringspin import cli
from ringspin.chain import dipolar_ratios, max_neighbors
from ringspin.cli import _body, _build_parser, _emit, main
from ringspin.fitting import fit_scale
from ringspin.metrics import MIN_T_MAX, TimeWindow, accuracy_threshold, error_map, state_error
from ringspin.spectral import mode_multiplicities

HALF_SQRT2 = 2.0**-1.5
INT_COLUMNS = {"neighbors", "target", "nodes", "min_neighbors", "mode", "multiplicity",
               "first_neighbors", "last_neighbors"}


INTS = st.integers(-(2**62), 2**62)
# finite floats whose 15-digit text reads back as finite, with the cases the
# JSON ".0" rule and the finiteness bound turn on drawn often
LARGEST_TEXT = 1.797693134862315e308
TEXT_FLOATS = st.one_of(
    st.floats(-LARGEST_TEXT, LARGEST_TEXT),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e15, LARGEST_TEXT, -LARGEST_TEXT,
                     2.9999999999999996, 123456789012345.0, 999999999999999.9]),
    st.integers(-(10**17), 10**17).map(float),
    st.integers(-(10**15), 10**15).map(lambda k: math.nextafter(float(k), math.inf)),
)


def reference_cell(value, kind, fmt: str) -> str:
    """One value as a table should show it: `%d` or `%.15g`, and in JSON a
    float whose text reads as an integer with ".0"."""
    if kind is int:
        return "%d" % value
    text = "%.15g" % value
    return text + ".0" if fmt == "json" and text.lstrip("-").isdigit() else text


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

    @pytest.mark.parametrize("t_max", [MIN_T_MAX, 1e-300, 1e-310, 1e-320, 5e-324])
    def test_tiny_windows_keep_the_sum_rule_or_are_refused(self, capsys, t_max):
        # below MIN_T_MAX the kernel runs on subnormals: p_11 = 0.996 at T = 1e-320
        code = run(["probmap", "--n", "6", "--t-max", repr(t_max), "--format", "json"])
        assert_sum_rule_or_refused(6, code, capsys.readouterr())
        assert code == (0 if t_max >= MIN_T_MAX else 2)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nodes=st.integers(3, 12), t_max=st.floats(
        min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True))
    def test_any_positive_window_keeps_the_sum_rule_or_is_refused(self, capsys, nodes, t_max):
        code = run(["probmap", "--n", str(nodes), "--t-max", repr(t_max), "--format", "json"])
        assert_sum_rule_or_refused(nodes, code, capsys.readouterr())


def assert_sum_rule_or_refused(nodes, code, captured):
    """Exit 2 with nothing on stdout, or exit 0 with finite probabilities whose
    mirror-weighted sum over targets is 1 at every radius."""
    if code == 2:
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return
    assert code == 0
    rows = np.array(json.loads(captured.out)["probability"]["rows"])
    probs = rows[:, 2].reshape(max_neighbors(nodes), -1)
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs @ mode_multiplicities(nodes), 1.0, rtol=0.0, atol=1e-12)


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

    def test_n_list_keeps_order_and_repeats(self, capsys):
        # a repeated length is computed again, in place, in both tables
        assert run(["threshold", "--n-list", "20,36,20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["threshold"]["rows"]
        assert [row[0] for row in rows] == [20, 36, 20]
        assert rows[0] == rows[2]
        audit = payload["audit"]["rows"]
        assert [row[:2] for row in audit] == [[n, m] for n in (20, 36, 20)
                                              for m in range(1, n // 2 + 1)]
        assert audit[:10] == audit[-10:]

    def test_missing_n_is_bad_config(self):
        assert run(["threshold"]) == 2


class TestFitCommand:
    def test_single_chain(self, tmp_path):
        out = tmp_path / "fit.csv"
        assert run(["fit", "--n", "20", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["nodes", "t_max", "first_neighbors", "last_neighbors", "kappa", "rms"]
        profile, window = dipolar_ratios(20), TimeWindow.matched(20)
        kappa, rms = fit_scale(error_map(20, profile, window)[1][1:9],
                               state_error(20, profile, window)[1:9])
        assert rows == [["20", "20", "2", "9", format(kappa, ".15g"),
                         format(rms, ".15g")]]
        assert rms < 0.01

    def test_short_window_fit_runs_clean(self, capsys):
        """At T = 1 the relative errors of the far targets dwarf the state
        error, so kappa is far from 1, but the fit is finite, with no
        RuntimeWarning (an error in this suite)."""
        assert run(["fit", "--n-list", "46,70", "--t-max", "1", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["fit"]["rows"]
        assert [row[:4] for row in rows] == [[46, 1.0, 2, 22], [70, 1.0, 2, 34]]
        assert all(math.isfinite(v) and v > 0.0 for row in rows for v in row[4:])

    def test_too_short_chain_is_bad_config(self):
        assert run(["fit", "--n", "8"]) == 2

    @pytest.mark.parametrize("lengths", [["--n", "20"], ["--n-list", "20,36"],
                                         ["--n-list", "20,36,20"], ["--n-list", "36,20,70"]])
    def test_writes_only_the_fit_table(self, capsys, lengths):
        assert run(["fit", *lengths, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["fit"]
        assert [row[0] for row in payload["fit"]["rows"]] == [
            int(n) for n in lengths[1].split(",")]

    @pytest.mark.parametrize("nodes", [140, 280])
    def test_large_rings_fit(self, capsys, nodes):
        assert run(["fit", "--n", str(nodes), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["fit"]["rows"]
        assert row[:4] == [nodes, float(nodes), 2, nodes // 2 - 1]
        assert abs(row[4] - 1.0) <= 0.01

    def test_all_zero_error_curve_is_refused(self, tmp_path, capsys):
        # nearest-neighbour couplings only: every radius reproduces the reference
        path = tmp_path / "profile.txt"
        path.write_text("1.0\n" + "0.0\n" * 9)
        assert run(["fit", "--n", "20", "--profile", f"custom:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error curve is zero at every fitted radius" in captured.err


class TestOutputFormats:
    def test_csv_json_round_trip_equality(self, tmp_path):
        # both ring parities (with the all-zero full-radius error row), plus
        # every other table-writing command
        commands = [["jmap", "--n", "9"], ["jmap", "--n", "10"], ["probmap", "--n", "9"],
                    ["probmap", "--n", "10"], ["threshold", "--n-list", "8,10"],
                    ["fit", "--n-list", "20,36,70"], ["spectrum", "--n", "6", "--m", "3"]]
        for argv in commands:
            csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
            assert run([*argv, "--out", str(csv_out)]) == 0
            assert run([*argv, "--format", "json", "--out", str(json_out)]) == 0
            payload = json.loads(json_out.read_text())
            for i, (name, table) in enumerate(payload.items()):
                header, rows = read_csv(csv_out if i == 0 else tmp_path / f"t_{name}.csv")
                assert table["columns"] == header
                kinds = [int if col in INT_COLUMNS else float for col in header]
                for csv_row, json_row in zip(rows, table["rows"], strict=True):
                    assert [type(v) for v in json_row] == kinds, (argv, name)
                    assert [kind(v) for kind, v in zip(kinds, csv_row)] == json_row

    def test_json_floats_stay_floats(self, tmp_path):
        values = [0.0, -0.0, 3.0, -2.9999999999999996, 0.1, 1e-300,
                  123456789012345.0, 999999999999999.9, 1e16, 1.797693134862315e308]
        columns = {"k": range(len(values)), "x": values, "y": values}
        _emit({"t": columns}, "json", str(tmp_path / "t.json"))
        _emit({"t": columns}, "csv", str(tmp_path / "t.csv"))
        parsed = json.loads((tmp_path / "t.json").read_text())["t"]["rows"]
        _, csv_rows = read_csv(tmp_path / "t.csv")
        for v, json_row, csv_row in zip(values, parsed, csv_rows, strict=True):
            text = format(v, ".15g")
            assert csv_row[1:] == [text, text]
            for got in json_row[1:]:
                assert type(got) is float
                assert got == float(text)
                assert math.copysign(1.0, got) == math.copysign(1.0, v)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_body_matches_per_value_rendering(self, data):
        """Columns of random ints and floats, as lists or arrays, format as
        each value would on its own, and CSV and JSON parse back to the same
        numbers."""
        rows = data.draw(st.integers(0, 12))
        kinds = data.draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=4))
        columns = {}
        for j, kind in enumerate(kinds):
            values = data.draw(st.lists(INTS if kind is int else TEXT_FLOATS,
                                        min_size=rows, max_size=rows))
            columns[f"c{j}"] = np.array(values, dtype=kind) if data.draw(st.booleans()) else values
        cells = {fmt: [[reference_cell(v, kind, fmt) for kind, v in zip(kinds, row)]
                       for row in zip(*columns.values())] for fmt in ("csv", "json")}
        csv_text, json_text = _body("t", columns, "csv"), _body("t", columns, "json")
        assert csv_text == "".join(",".join(row) + "\r\n" for row in cells["csv"])
        assert json_text == ",\n".join("[" + ", ".join(row) + "]" for row in cells["json"])
        expected = [[kind(text) for kind, text in zip(kinds, row)] for row in cells["csv"]]
        parsed_json = json.loads("[" + json_text + "]")
        assert [[kind(v) for kind, v in zip(kinds, row)]
                for row in csv.reader(io.StringIO(csv_text, newline=""))] == expected
        assert parsed_json == expected
        for row, json_row in zip(cells["csv"], parsed_json):
            assert [type(v) for v in json_row] == kinds
            assert [math.copysign(1.0, v) for v in json_row] == [
                -1.0 if text.startswith("-") else 1.0 for text in row]

    def test_deterministic_output(self, tmp_path):
        for fmt in ("csv", "json"):
            a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            assert run(["probmap", "--n", "11", "--format", fmt, "--out", str(a)]) == 0
            assert run(["probmap", "--n", "11", "--format", fmt, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_stdout_csv_line_endings(self, capsys):
        # table markers, headers and rows all end in \r\n
        assert run(["threshold", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# table: threshold\r\n")
        assert out.count("\n") == out.count("\r\n") > 0

    def test_stdout_csv(self, capsys):
        assert run(["spectrum", "--n", "4", "--m", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mode,wave_number,eigenvalue,multiplicity"
        assert len(lines) == 4


def float_cases(rng) -> np.ndarray:
    """Finite floats whose text reads back as finite: random bit patterns,
    subnormals, every decade from 1e-320 to 1e308, dense decades where the
    array writes digits itself (1e-30 to 1e15), exact ties at 15 digits,
    10^k and its neighbours, both sides of 1e15 and 1e-30, zeros and
    integral values; each with both signs."""
    bits = rng.integers(0, 2**63, 20_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64).view(np.float64)
    with np.errstate(over="ignore"):  # 9.x e308 is inf, dropped below
        decades = (rng.uniform(1.0, 10.0, (629, 20)) * np.logspace(-320, 308, 629)[:, None])
    dense = (rng.uniform(1.0, 10.0, (45, 1500)) * np.logspace(-30, 14, 45)[:, None]).ravel()
    # t / 2^d with t odd and t 5^d of 16 digits ending in 5: ties at 15 digits
    ties = [t / 2.0**d for d in range(23) for t in
            2 * rng.integers(-(-10**15 // 5**d) // 2, 10**16 // 5**d // 2, 40) + 1]
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    edges = [1e15, 1e-30, 999999999999999.4, 999999999999999.5, 999999999999999.6,
             99999999999999.95, 9.999999999999995e-5, 5e-324, LARGEST_TEXT, 0.0]
    near = [math.nextafter(v, to) for v in powers + edges for to in (0.0, math.inf)]
    integral = rng.integers(-(10**17), 10**17, 5_000).astype(float)
    x = np.concatenate([bits, subnormal, decades.ravel(), dense, ties, powers, edges, near,
                        integral])
    x = x[np.abs(x) <= LARGEST_TEXT]
    signs = np.where(rng.random(x.size) < 0.5, -1.0, 1.0)
    return np.concatenate([x * signs, [-0.0]])


class TestArrayTables:
    """Tables of at least cli._ARRAY_ROWS rows are written from one byte array."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_float_matches_percent(self, fmt):
        x = float_cases(np.random.default_rng(2024))
        assert x.size >= 100_000
        body = _body("t", {"x": x}, fmt)
        if fmt == "csv":
            lines = body.split("\r\n")[:-1]
        else:
            lines = [line[1:-1] for line in body.split(",\n")]
        assert lines == [reference_cell(v, float, fmt) for v in x.tolist()]

    @pytest.mark.parametrize("rows", [3, 127, 128, 199, 200, 4097, 9000])
    def test_both_routes_write_the_same_bytes(self, monkeypatch, rows):
        # on both sides of the size switch and across the row blocks: each
        # table through the array and one value at a time
        rng = np.random.default_rng(rows)
        x = float_cases(rng)
        ints = np.array([0, 1, -1, 9999, 10**4, -(10**5), 123456, 2**63 - 1, -(2**63)])
        columns = {
            "flag": rng.random(rows) < 0.5,
            "small": np.arange(rows),
            "signed": rng.integers(-(10**6), 10**6, rows),
            "wide": rng.choice(ints, rows),
            "unsigned": rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True),
            "x": rng.choice(x, rows),
            "listed": tuple(rng.choice(x, rows).tolist()),
            "single": rng.choice(x[np.abs(x) < 3e38], rows).astype(np.float32),
        }
        for fmt in ("csv", "json"):
            monkeypatch.setattr(cli, "_ARRAY_ROWS", 1)
            array = _body("t", columns, fmt)
            monkeypatch.setattr(cli, "_ARRAY_ROWS", 10**9)
            assert array == _body("t", columns, fmt), (rows, fmt)

    def test_large_map_bytes(self, tmp_path):
        # a map on the array route, written to files in both formats
        assert len(error_map(30, dipolar_ratios(30), TimeWindow(30.0))[0].ravel()) >= cli._ARRAY_ROWS
        for fmt in ("csv", "json"):
            out = tmp_path / f"map.{fmt}"
            assert run(["jmap", "--n", "30", "--format", fmt, "--out", str(out)]) == 0
            errors, means = error_map(30, dipolar_ratios(30), TimeWindow(30.0))
            rows = [(m, t, v) for m, row in enumerate(errors, 1)
                    for t, v in enumerate(row.tolist(), 1)]
            cells = [f"{m},{t},{reference_cell(v, float, fmt)}" for m, t, v in rows]
            if fmt == "csv":
                assert out.read_bytes().decode() == "neighbors,target,error\r\n" + "".join(
                    c + "\r\n" for c in cells)
            else:
                body = ",\n".join("[" + c.replace(",", ", ") + "]" for c in cells)
                assert out.read_text().startswith(
                    '{"error": {"columns": ["neighbors", "target", "error"], "rows": [\n'
                    + body + "\n]}")


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

    def test_huge_coupling_keeps_the_table(self, tmp_path, capsys):
        # shifts near 1e200: the row rounding bound takes min(1, T max|delta|)
        # before it squares it, since squaring T max|delta| first overflows
        # (a RuntimeWarning, an error in this suite); radii 2-4 exactly 0
        path = tmp_path / "profile.txt"
        path.write_text("1\n1e200\n0\n0\n")
        assert run(["jmap", "--n", "8", "--profile", f"custom:{path}"]) == 0
        first = ["1,1,1.22474487139159", "1,2,1.4142135623731", "1,3,1",
                 "1,4,1.4142135623731", "1,5,1.87082869338697"]
        zeros = [f"{m},{t},0" for m in (2, 3, 4) for t in range(1, 6)]
        averages = ["1,1.34405347678387", "2,0", "3,0", "4,0"]
        lines = ["# table: error", "neighbors,target,error", *first, *zeros,
                 "# table: error_avg", "neighbors,mean_error", *averages]
        captured = capsys.readouterr()
        assert captured.out == "".join(line + "\r\n" for line in lines)
        assert captured.err == ""

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


MALFORMED_LINES = st.one_of(
    st.text(alphabet="abcxyz,;_ ", min_size=1).filter(str.strip),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "NaN"]),
)


@st.composite
def malformed_profiles(draw):
    """Bytes of a coupling file for a 10-ring with one defect: a non-numeric
    or non-finite line, a first value other than 1, too few couplings, or
    bytes that are not text."""
    lines = [repr(r).encode() for r in dipolar_ratios(10).ratios]
    kind = draw(st.sampled_from(["line", "first", "short", "bytes"]))
    if kind == "line":
        lines[draw(st.integers(0, 4))] = draw(MALFORMED_LINES).encode()
    elif kind == "first":
        first = draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 1.0))
        lines[0] = repr(first).encode()
    elif kind == "short":
        lines = lines[: draw(st.integers(0, 4))]
    else:
        lines[draw(st.integers(0, 4))] = draw(st.sampled_from([b"\xff", b"0.5\xfe", b"\xc3("]))
    return b"\n".join(lines) + b"\n"


class TestMalformedProfiles:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=malformed_profiles())
    def test_malformed_profile_file_is_bad_config(self, tmp_path, capsys, content):
        path = tmp_path / "profile.txt"
        path.write_bytes(content)
        for command in ("threshold", "jmap"):
            assert run([command, "--n", "10", "--profile", f"custom:{path}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err


class TestBadConfig:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_degenerate_ring(self):
        assert run(["spectrum", "--n", "2"]) == 2

    def test_epsilon_out_of_range(self):
        assert run(["threshold", "--n", "8", "--epsilon", "1.5"]) == 2

    @pytest.mark.parametrize("argv", [["spectrum", "--n", "6", "--m", "0"],
                                      ["jmap", "--n", "6", "--t-max", "0"],
                                      ["threshold", "--n-list", ","],
                                      ["threshold", "--n-list", ""]])
    def test_zero_and_empty_values_are_refused(self, capsys, argv):
        # none of these falls back to the default it would replace
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["threshold", "fit"])
    def test_n_and_n_list_are_exclusive(self, capsys, command):
        # neither length may be dropped silently in favour of the other, and
        # one of them must be given
        for lengths, message in [(["--n", "20", "--n-list", "36"], "not allowed with argument"),
                                 ([], "one of the arguments --n --n-list is required")]:
            assert run([command, *lengths]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_infinite_window(self):
        assert run(["jmap", "--n", "8", "--t-max", "inf", "--format", "json"]) == 2

    def test_json_refuses_nan(self, tmp_path, capsys):
        # 1.7976931348623157e308 prints as 1.79769313486232e+308, which reads as inf
        for bad in (math.nan, math.inf, -math.inf, 1.7976931348623157e308):
            for fmt in ("csv", "json"):
                table = {"k": [1, 2, 3], "x": [0.5, bad, 0.25]}
                with pytest.raises(ValueError, match="not finite"):
                    _emit({"t": table}, fmt, None)
                with pytest.raises(ValueError, match="not finite"):
                    _emit({"ok": {"x": [1.0]}, "t": table}, fmt, str(tmp_path / "t"))
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["threshold"], ["jmap"], ["probmap"]])
    def test_window_overflowing_the_kernel(self, capsys, command):
        # delta * t_max overflows to inf, so the window integrals would be nan
        assert run([*command, "--n", "6", "--t-max", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("command", ["threshold", "jmap", "probmap"])
    def test_overflowing_coupling_is_a_profile_error(self, tmp_path, capsys, command):
        # a finite coupling whose eigenvalues overflow blames the profile,
        # not the window, and leaks no RuntimeWarning (an error in this suite)
        path = tmp_path / "profile.txt"
        path.write_text("1.0\n1e308\n0.5\n0.1\n0.1\n")
        assert run([command, "--n", "10", "--profile", f"custom:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "couplings" in captured.err
        assert "t_max" not in captured.err

    def test_negative_error_power_is_refused(self, monkeypatch, capsys):
        import ringspin.metrics
        monkeypatch.setattr(ringspin.metrics._PairKernels, "error_diagonal",
                            lambda self, block: np.full(block.shape, -1.0))
        assert run(["jmap", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative" in captured.err

    def test_negative_probability_is_refused(self, monkeypatch, capsys):
        # a form far below the rounding bound is refused, not clipped to 0
        import ringspin.metrics
        kernel = ringspin.metrics._PairKernels.probability

        def negative(self, tables, chunk):
            values, poles = kernel(self, tables, chunk)
            return values - 10.0 * self.t_max, poles

        monkeypatch.setattr(ringspin.metrics._PairKernels, "probability", negative)
        assert run(["probmap", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative transfer probability" in captured.err

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "1e-12", "100", "20"])
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


class TestParserReuse:
    """`main` builds the argument tree once per process; no call may leave
    a parsed value or a default behind for the next."""

    @staticmethod
    def audit(tmp_path, argv):
        out = tmp_path / "threshold.csv"
        assert run([*argv, "--out", str(out)]) == 0
        return [float(row[2]) for row in read_csv(tmp_path / "threshold_audit.csv")[1]]

    def test_one_tree_per_process(self):
        assert _build_parser() is _build_parser()

    def test_window_of_one_call_does_not_leak(self, tmp_path):
        wide = self.audit(tmp_path, ["threshold", "--n", "20", "--t-max", "40"])
        default = self.audit(tmp_path, ["threshold", "--n", "20"])
        expected = accuracy_threshold(20, dipolar_ratios(20), 0.1, TimeWindow(20.0))
        assert default == [float("%.15g" % v) for v in expected.max_error_per_m]
        assert wide != default

    @pytest.mark.parametrize("bad", [["threshold", "--n", "20", "--epsilon", "x"],
                                     ["threshold", "--n", "20", "--t-max"],
                                     ["jmap", "--n", "20", "--bogus", "1"]])
    def test_refused_arguments_leave_the_next_call_alone(self, tmp_path, capsys, bad):
        before = self.audit(tmp_path, ["threshold", "--n", "20"])
        assert run(bad) == 2
        capsys.readouterr()
        assert self.audit(tmp_path, ["threshold", "--n", "20"]) == before
