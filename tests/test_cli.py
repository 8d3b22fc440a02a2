import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ads3s3 import cli
from ads3s3.algebra import ads_basis, exp_algebra
from ads3s3.bridge import scan_region
from ads3s3.cli import _json, _table, main
from ads3s3.solutions import apply_isometry, family_solution, params_to_dict

from test_cli_golden import BYTE_EXACT, DATA, NUMERIC

F_REF = "1.6666666666666667"
B_REF = "1.25"


def strict_loads(text):
    """json.loads that rejects the NaN and Infinity extensions."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBridgeCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run(capsys, "bridge", "--f", F_REF, "--b", B_REF, "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mu2"] - 0.53125) <= 1e-9
        assert abs(payload["mubar2"] - 7.0 / 72.0) <= 1e-9
        assert payload["degenerate"] == []

    def test_inadmissible_exits_one(self, capsys):
        code, _, err = run(capsys, "bridge", "--f", "3", "--b", B_REF, "--n", "1")
        assert code == 1
        assert "cos2theta_s out of range" in err

    def test_degenerate_corner_flagged(self, capsys):
        code, out, _ = run(capsys, "bridge", "--f", "1", "--b", "1", "--n", "1")
        assert code == 0
        assert json.loads(out)["degenerate"]

    def test_degenerate_corner_is_strict_json(self, capsys):
        code, out, _ = run(capsys, "bridge", "--f", "1", "--b", "1", "--n", "1")
        assert code == 0
        payload = strict_loads(out)
        assert payload["coshalpha"] is None and payload["cosbeta"] is None

    def test_missing_point_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bridge")
        assert code == 1
        assert "requires" in err

    def test_overflowing_point_exits_one(self, capsys):
        code, out, err = run(capsys, "bridge", "--f", "1e200", "--b", "1e200")
        assert code == 1 and out == ""
        assert err == "ads3s3 bridge: error: inadmissible (f, b): f^2 overflows\n"

    @pytest.mark.parametrize("n", ["0", "-2", "1" + "0" * 400])  # a float overflows at 10**309
    def test_nonpositive_winding_exits_one(self, capsys, n):
        code, out, err = run(capsys, "bridge", "--f", "1.5", "--b", "1.2", "--n", n)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "winding" in err


class TestVerifyCommand:
    def test_family_point_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--f", F_REF, "--b", B_REF)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and report["failures"] == []

    def test_perturbed_params_exit_two(self, capsys, tmp_path):
        data = params_to_dict(family_solution(5.0 / 3.0, 5.0 / 4.0, 1))
        data["lam"] += 1e-3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--params", str(path))
        assert code == 2
        assert "eom" in json.loads(out)["failures"]

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--f", F_REF, "--b", B_REF, "--grid", "0x4")
        assert code == 1

    def test_malformed_grid_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--f", F_REF, "--b", B_REF, "--grid", "junk")
        assert code == 1

    def test_high_winding_quadrature_follows_bound(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--f", "1.6666667", "--b", "1.25",
                                 "--n", "40")
        assert code == 0
        assert err == ""
        assert strict_loads(out)["charge_gap"] <= 1e-10

    def test_charge_gap_at_a_winding_of_511(self, capsys, tmp_path):
        # at (2.5, 2) n = 511 the exact solution verifies and a 1e-4 break of lam fails
        code, _, _ = run(capsys, "verify", "--f", "2.5", "--b", "2", "--n", "511")
        assert code == 0
        data = params_to_dict(family_solution(2.5, 2.0, 511))
        data["lam"] *= 1.0 + 1e-4
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "verify", "--params", str(path))
        assert code == 2

    def test_tol_override(self, capsys, tmp_path):
        data = params_to_dict(family_solution(5.0 / 3.0, 5.0 / 4.0, 1))
        data["lam"] += 1e-3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "verify", "--params", str(path), "--tol", "1.0")
        assert code == 0


class TestSampleCommand:
    def test_single_point_grid(self, capsys):
        code, out, _ = run(capsys, "sample", "--f", F_REF, "--b", B_REF,
                           "--tau-steps", "1", "--sigma-steps", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,sigma,Y0p,Y0,Y1,Y2,X1,X2,X3,X4,P1,P2,P3"
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        sol = family_solution(5.0 / 3.0, 5.0 / 4.0, 1)
        y0 = sol.g0.embedding
        x0 = sol.h0.embedding
        assert abs(row["Y0p"] - y0[0]) <= 1e-15 and abs(row["Y1"] - y0[2]) <= 1e-15
        assert abs(row["X2"] - x0[1]) <= 1e-15 and abs(row["X4"] - x0[3]) <= 1e-15

    def test_constraints_and_projection(self, capsys):
        code, out, _ = run(capsys, "sample", "--f", F_REF, "--b", B_REF,
                           "--tau-steps", "4", "--sigma-steps", "8")
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
        for r in rows:
            y = np.array(r[2:6])
            x = np.array(r[6:10])
            p = np.array(r[10:13])
            assert abs(-y[0] ** 2 - y[1] ** 2 + y[2] ** 2 + y[3] ** 2 + 1.0) <= 1e-12
            assert abs(x @ x - 1.0) <= 1e-12
            assert np.max(np.abs(p - x[:3] / (1.0 + x[3]))) <= 1e-12

    def test_equal_radii_at_minimal_torus(self, capsys):
        # cos 2theta_s = 0 at f = (b + sqrt(b^2 + 4)) / 2
        b = 1.25
        f = 0.5 * (b + math.sqrt(b * b + 4.0))
        code, out, _ = run(capsys, "sample", "--f", repr(f), "--b", repr(b),
                           "--tau-steps", "2", "--sigma-steps", "4")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            r = list(map(float, line.split(",")))
            x = np.array(r[6:10])
            assert abs(math.hypot(x[0], x[1]) - math.hypot(x[2], x[3])) <= 1e-12

    def test_nonpositive_steps_exit_one(self, capsys):
        for flag in ("--tau-steps", "--sigma-steps"):
            for value in ("0", "-1"):
                code, out, err = run(capsys, "sample", "--f", F_REF, "--b", B_REF,
                                     flag, value)
                assert code == 1 and out == ""
                assert len(err.strip().splitlines()) == 1
                assert "at least 1" in err

    def test_far_band_point_builds(self, capsys):
        # a family point that a 1e-12 re-check of 4 lam rho = m n refused
        point = ["--f", "99.04329197272283", "--b", "99.04321856149937", "--n", "1000"]
        code, out, err = run(capsys, "sample", *point, "--tau-steps", "4", "--sigma-steps", "4")
        assert (code, err, out.count("\n")) == (0, "", 17)
        assert run(capsys, "charges", *point)[:1] == (0,)
        assert run(capsys, "verify", *point)[0] in (0, 2)  # a verdict, not a refusal

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sample", "--f", F_REF, "--b", B_REF,
                             "--tau-steps", "16", "--sigma-steps", "16",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestScanCommand:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--grid", "1.0:2.0:3,1.0:1.5:2", "--n", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "f,b,admissible,cosh2theta,cos2theta_s,mu2,mubar2,coshalpha,cosbeta"
        assert len(lines) == 7
        assert set(line.split(",")[2] for line in lines[1:]) <= {"true", "false"}

    def test_empty_range_exit_one(self, capsys):
        code, _, err = run(capsys, "scan", "--grid", "1.0:2.0:0,1.0:1.5:2")
        assert code == 1

    def test_missing_grid_exit_one(self, capsys):
        code, _, _ = run(capsys, "scan")
        assert code == 1

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_winding_exits_one(self, capsys, n):
        code, out, err = run(capsys, "scan", "--grid", "1:2:3,1:2:2", "--n", n)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "winding" in err

    @pytest.mark.parametrize("grid", ["nan:2:3,1:2:2", "1:inf:3,1:2:2", "1:2:3,-inf:2:2"])
    def test_non_finite_bounds_exit_one(self, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "scan", "--grid", grid)
        assert code == 1
        assert out == ""
        assert len(err.strip().split("\n")) == 1 and "finite" in err

    def test_admissible_band_scan_is_quiet(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "scan", "--grid", "0.5:4:20,0.5:3:20", "--n", "3")
        assert code == 0
        assert err == ""
        assert len(out.strip().split("\n")) == 401

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--grid", "1.6:1.7:2,1.2:1.3:2",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4 and all(r["admissible"] for r in rows)


def csv_oracle(rows, columns):
    """The row-dict CSV writer that _table replaced, kept as its oracle."""
    def fmt(x):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")

    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def json_oracle(rows):
    rows = [{k: v if isinstance(v, bool) or math.isfinite(v) else None for k, v in row.items()}
            for row in rows]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                1e308, -1e308, 1.0, -3.0, 1e16, 0.1]


@st.composite
def tables(draw):
    """Named equal-length float and bool columns, with names json must escape."""
    rows = draw(st.integers(0, 12))
    names = draw(st.lists(st.one_of(st.sampled_from(["f", "mu2", "a b", "%s", 'q"', "\u00e9"]),
                                    st.text(max_size=4)),
                          min_size=1, max_size=6, unique=True))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
    columns = {}
    for name in names:
        if draw(st.booleans()):
            columns[name] = np.array(draw(st.lists(floats, min_size=rows, max_size=rows)), dtype=float)
        else:
            columns[name] = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                                     dtype=bool)
    return columns


class TestTableWriter:
    """_table against json.dumps and the row-dict CSV writer."""

    @given(tables())
    @example({"x": np.array(_EDGE_FLOATS), "ok": np.arange(len(_EDGE_FLOATS)) % 2 == 0})
    def test_matches_row_dict_writers(self, columns):
        rows = [dict(zip(columns, values))
                for values in zip(*(column.tolist() for column in columns.values()))]
        assert "".join(_table(columns, "json")) == json_oracle(rows)
        assert "".join(_table(columns, "csv")) == csv_oracle(rows, list(columns))


def kernel_values():
    """Over 10**6 seeded floats across the classes the float kernel of _table writes.

    Random 64-bit patterns; uniform mantissas scaled by 10**k; short decimals; dyadic values
    j 2**-k whose decimal expansion ends in a 5 at the 16th, 17th or 18th digit (the halfway
    cases of the 15, 16 and 17 digit roundings); the neighbours of every power of ten, which
    include the edges 1e-6, 1e-4, 1e16 and 1e17 of the exact ranges; subnormals, +-0, nan
    and +-inf.  Every class but the bit patterns gets random signs.
    """
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2 ** 64, 310_000, dtype=np.uint64).view(np.float64)
    scaled = rng.random(270_000) * 10.0 ** rng.integers(-8, 19, 270_000)
    short = rng.integers(1, 10 ** 7, 150_000) / 10.0 ** rng.integers(0, 12, 150_000)
    dyadic = []
    for k in range(1, 27):
        for digits in (16, 17, 18):
            low, high = -(-10 ** (digits - 1) // 5 ** k), min(10 ** digits // 5 ** k, 2 ** 53)
            if low < high:
                dyadic.append(np.ldexp((rng.integers(low, high, 4_000) | 1).astype(float), -k))
    below = above = [np.array([10.0 ** k for k in range(-323, 309)])]
    for _ in range(4):  # up to 4 ulps on either side
        below = below + [np.nextafter(below[-1], 0.0)]
        above = above + [np.nextafter(above[-1], np.inf)]
    neighbours = np.concatenate(below + above[1:])
    subnormals = rng.integers(1, 2 ** 52, 10_000, dtype=np.uint64).view(np.float64)
    signed = np.concatenate([scaled, short, *dyadic, neighbours, subnormals,
                             [0.0, math.nan, math.inf]])
    signed *= rng.choice([-1.0, 1.0], signed.size)
    return np.concatenate([bits, signed])


def mismatched_lines(got, want):
    """The first few differing lines of two texts, and a note if their line counts differ."""
    got, want = got.splitlines(), want.splitlines()
    bad = [(g, w) for g, w in zip(got, want) if g != w][:5]
    return bad + ([f"{len(got)} lines against {len(want)}"] if len(got) != len(want) else [])


def row_dicts(columns):
    return [dict(zip(columns, values))
            for values in zip(*(column.tolist() for column in columns.values()))]


class TestFloatKernelOracle:
    """Every float cell of _table against its own oracle text, over 10**6 seeded floats.

    The oracle of a CSV cell is format(v, ".17g"), of a JSON cell float.__repr__(v), or null
    when v is not finite: the texts the row-dict writers give each float.  TestTableWriter and
    TestTableBlocks check the rows these cells sit in.
    """

    @staticmethod
    def cells(text, fmt):
        """The cells of a table of single-digit keys, one a line, in row-major order."""
        if fmt == "csv":
            return text.partition("\n")[2].replace(",", "\n")
        return "".join(line[10:].rstrip(",") + "\n" for line in text.splitlines()
                       if line.startswith('    "'))  # '    "c0": ' is 10 characters

    @staticmethod
    def oracle(values, fmt):
        if fmt == "csv":
            return "".join(format(v, ".17g") + "\n" for v in values)
        return "".join((float.__repr__(v) if math.isfinite(v) else "null") + "\n"
                       for v in values)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_cell_matches(self, fmt):
        values = kernel_values()
        assert values.size >= 10 ** 6
        table = np.resize(values, (-(-values.size // 8), 8))  # eight columns; the last row wraps
        for first in range(0, len(table), 10_000):
            chunk = table[first:first + 10_000]
            got = self.cells("".join(_table({f"c{k}": column for k, column in enumerate(chunk.T)},
                                            fmt)), fmt)
            want = self.oracle(chunk.ravel().tolist(), fmt)
            assert got == want, mismatched_lines(got, want)


class TestTableBlocks:
    """_table writes a header piece, then one piece per block of cli._BLOCK_ROWS rows."""

    @staticmethod
    def columns(rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-8, 18, rows)
        x[::97] = math.nan
        return {"x": x, "ok": rng.random(rows) < 0.5, "y": -x[::-1]}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_a_block(self, fmt, extra):
        columns = self.columns(cli._BLOCK_ROWS + extra)
        pieces = list(_table(columns, fmt))
        assert len(pieces) == (3 if extra > 0 else 2)
        want = (json_oracle(row_dicts(columns)) if fmt == "json"
                else csv_oracle(row_dicts(columns), list(columns)))
        assert mismatched_lines("".join(pieces), want) == []

    @pytest.mark.parametrize("fmt, text", [("csv", "x,ok,y\n"), ("json", "[]\n")])
    def test_zero_rows(self, fmt, text):
        assert list(_table(self.columns(0), fmt)) == [text]


class TestIndexedColumns:
    """A (values, index) column writes the same bytes as the plain column values[index]."""

    EDGES = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 0.1, 1.0, 1.5e300,
             *(np.nextafter(x, toward) for x in (1e-6, 1e-4, 1e16, 1e17)
               for toward in (0.0, math.inf)), 1e-6, 1e-4, 1e16, 1e17]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [0, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS,
                                      cli._BLOCK_ROWS + 1])
    def test_matches_gathered_column(self, fmt, rows):
        rng = np.random.default_rng(rows)
        values = np.array(self.EDGES + [-x for x in self.EDGES])  # -0.0, -nan and -inf too
        values = np.concatenate([values, rng.normal(size=16) * 10.0 ** rng.integers(-8, 18, 16)])
        index = rng.integers(0, values.size, rows)
        x, ok = rng.normal(size=rows), rng.random(rows) < 0.5
        pairs = {"t": (values, index), "x": x, "ok": ok, "s": (values[::-1], index[::-1])}
        plain = {"t": values[index], "x": x, "ok": ok, "s": values[::-1][index[::-1]]}
        assert "".join(_table(pairs, fmt)) == "".join(_table(plain, fmt))


class TestScanAxes:
    """scan writes the table of scan_region's columns, its f and b axes rebuilt from them."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("f_range, b_range", [
        ((1.2, 1.8, 1), (1.1, 1.4, 7)), ((1.2, 1.8, 7), (1.1, 1.4, 1)),
        ((1.5, 1.5, 1), (1.2, 1.2, 1)), ((1.5, 1.5, 4), (1.2, 1.2, 3)),
        ((1.0, 3.0, 70), (1.0, 2.0, 65)),  # three blocks
    ])
    def test_matches_unfactored_columns(self, capsys, fmt, f_range, b_range):
        grid = ",".join(":".join(map(repr, r)) for r in (f_range, b_range))
        code, out, err = run(capsys, "scan", "--grid", grid, "--n", "2", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == "".join(_table(scan_region(f_range, b_range, 2), fmt))


class TestStreamedTables:
    """scan and sample write the same bytes to stdout and to --out over several blocks."""

    @pytest.mark.parametrize("argv", [
        ["scan", "--grid", "1:3:70,1:2:65", "--n", "2"],
        ["scan", "--grid", "1:3:70,1:2:65", "--n", "2", "--format", "json"],
        ["sample", "--f", F_REF, "--b", B_REF, "--tau-steps", "64", "--sigma-steps", "80"],
        ["sample", "--f", F_REF, "--b", B_REF, "--tau-steps", "64", "--sigma-steps", "80",
         "--format", "json"],
    ])
    def test_stdout_matches_out_file(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.count("\n") > 2 * cli._BLOCK_ROWS
        path = tmp_path / "table"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_text() == out


def nulls(value):
    """The payload with every non-finite float replaced by None: the rule _json replaced."""
    if isinstance(value, dict):
        return {k: nulls(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [nulls(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


_ESCAPED = ['"', "%", "%s", "\u00e9", "\x00", "\n", "\x1f", "a\\b", "\u2028"]


def payloads(depth=3):
    """Dicts, lists and tuples nested up to depth, over every scalar type a payload holds."""
    texts = st.one_of(st.sampled_from(_ESCAPED), st.text(max_size=4))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
    np_floats = floats.map(np.float64)
    scalars = st.one_of(floats, np_floats, st.integers(), st.booleans(), st.none(), texts)
    if depth == 0:
        return scalars
    items = st.one_of(scalars, payloads(depth - 1))
    return st.one_of(scalars, st.lists(floats, max_size=6), st.lists(np_floats, max_size=6),
                     st.lists(items, max_size=4),
                     st.lists(items, max_size=4).map(tuple),
                     st.dictionaries(texts, items, max_size=4))


class TestJsonWriter:
    """_json against the two-pass writer it replaced: nulls, then json.dumps(indent=2)."""

    @given(payloads())
    @example({"x": _EDGE_FLOATS, "y": [np.float64(v) for v in _EDGE_FLOATS[3:]], "e": [[], {}, ()],
              'q"%\u00e9\x01': ({"t": (1, True, None, "s")}, [[0.5, -0.0], [math.nan]])})
    @example(math.nan)
    @example([])
    def test_matches_two_pass_writer(self, payload):
        assert _json(payload) == json.dumps(nulls(payload), indent=2, allow_nan=False) + "\n"


class TestChargesCommand:
    def test_reference_casimirs(self, capsys):
        code, out, _ = run(capsys, "charges", "--f", F_REF, "--b", B_REF, "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mL"] - 1.2465278) <= 1e-6
        assert abs(payload["mR"] - 2.1145833) <= 1e-6
        assert payload["quadrature_gap"] <= 1e-10
        assert abs(payload["coefficients"]["R_s"] + 1.0 / 18.0) <= 1e-9

    def test_scale_factor(self, capsys):
        code, out, _ = run(capsys, "charges", "--f", F_REF, "--b", B_REF,
                           "--scale", "2.0")
        payload = json.loads(out)
        assert abs(payload["mL"] - 2 * 1.2465277777777777) <= 1e-9
        assert abs(payload["asymmetry_mR_over_mL"] - 1.6963788300835656) <= 1e-9

    def test_degenerate_corner_is_strict_json(self, capsys):
        code, out, _ = run(capsys, "charges", "--f", "1", "--b", "1", "--n", "1")
        assert code == 0
        strict_loads(out)

    def test_huge_winding_exits_zero(self, capsys):
        # the sigma-averaged currents have entries of size n, beyond an absolute trace check
        code, out, err = run(capsys, "charges", "--f", F_REF, "--b", B_REF, "--n", "100000000")
        assert (code, err) == (0, "")
        assert abs(strict_loads(out)["mL"] - 1.2465277777777777e8) <= 1e-6

    def test_boosted_frame_gives_charges_and_a_verdict(self, capsys, tmp_path):
        # the r = 6 frame g_L = g_R = exp(0.7 t0) exp(3 t1): entries of size e^6
        t0, t1, _ = ads_basis()
        g = exp_algebra(t0, 0.7) @ exp_algebra(t1, 3.0)
        sol = apply_isometry(family_solution(5.0 / 3.0, 5.0 / 4.0, 1), g_left=g, g_right=g)
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(params_to_dict(sol)))
        code, out, err = run(capsys, "charges", "--params", str(path))
        assert (code, err) == (0, "")
        assert abs(strict_loads(out)["mL"] - 1.2465277777777777) <= 1e-6
        code, out, err = run(capsys, "verify", "--params", str(path))
        assert code in (0, 2) and err == ""
        assert strict_loads(out)["ok"] is (code == 0)

    def test_high_winding_quadrature_follows_bound(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "charges", "--f", F_REF, "--b", B_REF, "--n", "40")
        assert code == 0
        assert strict_loads(out)["quadrature_gap"] <= 1e-10

    def test_million_winding_on_fixed_node_count(self, capsys):
        # the node count does not grow with n, so this allocates no more than n = 1
        code, out, _ = run(capsys, "charges", "--f", F_REF, "--b", B_REF, "--n", "1000000")
        assert code == 0
        payload = strict_loads(out)
        assert payload["quadrature_gap"] <= 1e-10 * payload["mL"]


class TestBracketsCommand:
    def test_particle_mode(self, capsys):
        code, out, _ = run(capsys, "brackets", "--mode", "particle", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_algebra_residual"] <= 1e-6

    def test_string_mode(self, capsys):
        code, out, _ = run(capsys, "brackets", "--mode", "string", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_algebra_residual"] <= 1e-5
        for point in payload["points"]:
            assert len(point["orbit_coefficients"]) == 4

    def test_string_mode_at_roundoff_over_seeds(self, capsys):
        # exact chart tangents: a difference layer left 2.1e-9 in the median, 1.6e-6 at worst
        worst = 0.0
        for seed in range(300):
            code, out, _ = run(capsys, "brackets", "--mode", "string", "--seed", str(seed))
            assert code == 0
            worst = max(worst, json.loads(out)["max_algebra_residual"])
        assert worst <= 1e-10

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run(capsys, "brackets", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "seed" in err


class TestDeterminism:
    def test_repeated_outputs_identical(self, capsys):
        for argv in (["bridge", "--f", F_REF, "--b", B_REF],
                     ["brackets", "--mode", "particle", "--seed", "11"],
                     ["brackets", "--mode", "string", "--seed", "11"]):
            assert run(capsys, *argv) == run(capsys, *argv)


CANONICAL_CASES = [
    ["bridge", "--f", F_REF, "--b", B_REF, "--n", "1"],
    ["bridge", "--f", F_REF, "--b", B_REF, "--n", "3"],
    ["bridge", "--f", "1", "--b", "1", "--n", "1"],
    *(pytest.param(argv, id=name) for name, (argv, _, _) in NUMERIC.items()
      if argv[0] in ("verify", "charges")),
    ["charges", "--f", "1", "--b", "1", "--n", "1"],
    *(["brackets", "--mode", mode, "--seed", str(seed)]
      for mode in ("particle", "string") for seed in range(10)),
]


class TestCanonicalJson:
    """Every JSON output is the bytes json.dumps(indent=2) writes for what it parses to."""

    @pytest.mark.parametrize("argv", CANONICAL_CASES, ids=" ".join)
    def test_output_is_its_own_canonical_form(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 2) and err == ""
        assert out == json.dumps(strict_loads(out), indent=2, allow_nan=False) + "\n"


class TestOneParserPerProcess:
    """main parses with the parser built at import, so no call may leak into the next."""

    def test_repeats_give_first_bytes(self, capsys):
        golden = [*BYTE_EXACT.values(), *(argv for argv, _, _ in NUMERIC.values())]
        between = [["verify", "--t", "1"],
                   ["verify", "--f", F_REF, "--b", B_REF, "--tol", "nan"],
                   ["charges", "--params", str(DATA / "params_n2_frame.json")]]
        calls = [argv for i, argv in enumerate(golden) for argv in (argv, between[i % 3])]
        first = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in first[1:6:2]] == [1, 1, 0]
        assert [run(capsys, *argv) for argv in calls] == first

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def build():
            raise AssertionError("main built a parser")
        monkeypatch.setattr(cli, "_build_parser", build)
        assert run(capsys, "bridge", "--f", F_REF, "--b", B_REF)[0] == 0

    def test_command_rebound_on_module_is_called(self, capsys, monkeypatch):
        # perfbench's tracer wraps cmd_* on the module after the parser exists
        seen = []
        original = cli.cmd_bridge
        monkeypatch.setattr(cli, "cmd_bridge", lambda args: seen.append(args.n) or original(args))
        assert run(capsys, "bridge", "--f", F_REF, "--b", B_REF, "--n", "3")[0] == 0
        assert seen == [3]


class TestEntryPoint:
    """python -m ads3s3.cli in a fresh interpreter, warnings as errors."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def run_python(self, *args):
        path = os.pathsep.join(filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-W", "error", *args],
                              capture_output=True, env={**os.environ, "PYTHONPATH": path},
                              timeout=120)

    def run_module(self, *argv):
        return self.run_python("-m", "ads3s3.cli", *argv)

    def test_help_exits_zero(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.startswith(b"usage: ads3s3")

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_returns_zero_in_process(self, capsys, argv):
        # main returns the code, as for every other outcome, and prints what the process prints
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.encode() == self.run_module(*argv).stdout

    def test_help_names_exit_codes_not_developer_notes(self, capsys):
        code, out, _ = run(capsys, "--help")
        out = " ".join(out.split())  # argparse wraps the description to the terminal width
        assert code == 0
        assert "0 success" in out and "1 validation or usage error" in out
        assert "2 numeric verification failure" in out
        assert "parser is built" not in out

    def test_verify_does_not_import_numpy_random(self):
        # the probe points are constants: a verify call pays no numpy.random import
        proc = self.run_python("-c", (
            "import sys; from ads3s3.cli import main; "
            f"code = main(['verify', '--f', '{F_REF}', '--b', '{B_REF}']); "
            "print(code, 'numpy.random' in sys.modules)"))
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.endswith(b"\n0 False\n")

    def test_bridge_prints_golden(self):
        proc = self.run_module("bridge", "--f", F_REF, "--b", B_REF, "--n", "1")
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == (DATA / "bridge_n1.json").read_bytes()


def golden_params():
    return params_to_dict(family_solution(5.0 / 3.0, 5.0 / 4.0, 2))


def assert_one_line_error(code, out, err, text):
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and text in err and "Traceback" not in err


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["bridge", "--f", F_REF, "--b", B_REF, "--tol", "1e-3"],
        ["bridge", "--f", F_REF, "--b", B_REF, "--scale", "9", "--seed", "3"],
        ["verify", "--f", F_REF, "--b", B_REF, "--format", "csv"],
        ["charges", "--f", F_REF, "--b", B_REF, "--format", "csv"],
        ["brackets", "--format", "csv"],
        ["scan", "--grid", "1:2:2,1:2:2", "--params", "p.json"],
        ["verify", "--f", F_REF, "--b", B_REF, "--n", "9", "--t", "1"],
        ["scan", "--grid", "1:2:2,1:2:2", "--f", "json"],
    ])
    def test_option_the_command_does_not_read_exits_one(self, capsys, argv):
        assert_one_line_error(*run(capsys, *argv), "unrecognized arguments")

    def test_unknown_mode_exits_one(self, capsys):
        assert_one_line_error(*run(capsys, "brackets", "--mode", "foo"), "invalid choice")

    @pytest.mark.parametrize("command", ["bridge", "sample"])
    def test_missing_point_exits_one(self, capsys, command):
        assert_one_line_error(*run(capsys, command, "--f", F_REF), "--b")

    def test_settable_values(self):
        from ads3s3.cli import _build_parser
        commands = _build_parser()._subparsers._group_actions[0].choices
        dests = {name: sorted(a.dest for a in p._actions if a.dest != "help")
                 for name, p in commands.items()}
        assert dests == {
            "bridge": ["b", "f", "format", "n", "out"],
            "verify": ["b", "f", "grid", "n", "out", "params", "tol"],
            "sample": ["b", "f", "format", "n", "out", "sigma_steps", "tau_steps"],
            "scan": ["format", "grid", "n", "out"],
            "charges": ["b", "f", "n", "out", "params", "scale"],
            "brackets": ["mode", "out", "seed"],
        }


class TestParameterFileMisuse:
    @pytest.mark.parametrize("command", ["verify", "charges"])
    @pytest.mark.parametrize("field, value, text", [
        ("lam", '"abc"', "error: lam must be a number\n"),
        # float(), complex() and numpy would convert these; a parameter file holds JSON numbers
        ("lam", '"1.5"', "error: lam must be a number\n"),
        ("rho_s", "false", "error: rho_s must be a number\n"),
        ("lam_s", "null", "error: lam_s must be a number\n"),
        ("lhat", '{"rapidity": "0.5", "angle": 0.0}', "error: lhat.rapidity must be a number\n"),
        ("rhat_s", '{"polar": 1.0, "azimuth": true}', "error: rhat_s.azimuth must be a number\n"),
        ("g0", '[["1", 0], [0, 1]]', "error: g0[0][0] must be a number\n"),
        ("h0", '[[[1, "0"], [0, 0]], [[0, 0], [1, 0]]]', "error: h0[0][0][1] must be a number\n"),
        ("n", "1e400", "error: winding n must be an integer\n"),
        ("g0", "[[1, 2], [3]]", "inhomogeneous"),
        ("n", "1.5", "error: winding n must be an integer\n"),
        ("m", "true", "error: winding m must be an integer\n"),
        ("m_s", "NaN", "error: winding m_s must be an integer\n"),
        ("n_s", "-Infinity", "error: winding n_s must be an integer\n"),
        # an integer, but beyond the largest a float holds
        ("n", "1" + "0" * 400, "error: winding n must be an integer\n"),
        ("lhat", "[1.0, 2.0]", "malformed"),
        ("lhat", '{"rapidity": 800.0, "angle": 0.0}', "overflow"),
        # cosh(709) is finite, so only the field arithmetic overflows
        ("lhat", '{"rapidity": 709.0, "angle": 0.0}', "overflow"),
        # a non-finite frequency is named, before any arithmetic warns on it
        ("lam", "1e400", "frequency lam = inf"),
        ("rho_s", "NaN", "frequency rho_s = nan"),
    ])
    def test_bad_field_exits_one(self, capsys, tmp_path, command, field, value, text):
        data = golden_params()
        data[field] = "PLACEHOLDER"
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', value))
        assert_one_line_error(*run(capsys, command, "--params", str(path)), text)

    @pytest.mark.parametrize("command", ["verify", "charges"])
    @pytest.mark.parametrize("point", [["--f", F_REF, "--b", B_REF, "--n", "7"], ["--n", "1"]])
    def test_params_with_family_point_exits_one(self, capsys, tmp_path, command, point):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(golden_params()))
        assert_one_line_error(*run(capsys, command, "--params", str(path), *point), "excludes")

    def test_binary_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_bytes(bytes(range(256)))
        assert_one_line_error(*run(capsys, "verify", "--params", str(path)), "UTF-8")

    @pytest.mark.parametrize("command", ["verify", "charges"])
    @pytest.mark.parametrize("text", ["", "{"])
    def test_non_json_file_exits_one(self, capsys, tmp_path, command, text):
        path = tmp_path / "params.json"
        path.write_text(text)
        assert_one_line_error(*run(capsys, command, "--params", str(path)),
                              "parameter file is not JSON: ")

    def test_directory_as_params_exits_one(self, capsys, tmp_path):
        assert_one_line_error(*run(capsys, "charges", "--params", str(tmp_path)),
                              "Is a directory")

    def test_directory_as_out_exits_one(self, capsys, tmp_path):
        assert_one_line_error(
            *run(capsys, "bridge", "--f", F_REF, "--b", B_REF, "--out", str(tmp_path)),
            "Is a directory")


class TestHugeInputs:
    """Overflow and exhausted memory end in one line; the suite allocates nothing huge."""

    @pytest.mark.parametrize("command", ["verify", "charges", "sample"])
    def test_winding_product_overflow_exits_one(self, capsys, command):
        # n = 10**300 passes the winding check, but m n no longer converts to a float
        assert_one_line_error(*run(capsys, command, "--f", "1.5", "--b", "1.25",
                                   "--n", "1" + "0" * 300), "too large")

    @staticmethod
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    @pytest.mark.parametrize("target, argv", [
        ("embedding_surface", ["sample", "--f", F_REF, "--b", B_REF,
                               "--tau-steps", "1000000", "--sigma-steps", "1000000"]),
        ("scan_region", ["scan", "--grid", "1:3:1000000,1:2:1000000"]),
    ])
    def test_memory_error_exits_one(self, capsys, monkeypatch, target, argv):
        monkeypatch.setattr(cli, target, self.refuse)
        assert_one_line_error(*run(capsys, *argv), "Unable to allocate")


class TestNoPassEverything:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--f", F_REF, "--b", B_REF, "--tol", tol)
        assert_one_line_error(code, out, err, "finite and positive")
        # the message names the option that was set, not a check
        assert "tol = " in err and "eom" not in err

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_scale_must_be_finite(self, capsys, scale):
        assert_one_line_error(
            *run(capsys, "charges", "--f", F_REF, "--b", B_REF, f"--scale={scale}"), "finite")

    def test_scale_overflow_exits_one(self, capsys):
        assert_one_line_error(
            *run(capsys, "charges", "--f", F_REF, "--b", B_REF, "--scale", "1e308"), "overflow")
