"""CLI outputs against golden files.

bridge, scan and sample (CSV and JSON) must match byte for byte.  verify, charges and both
bracket modes go through LAPACK and are compared number by number to 1e-12.
The string form and every bracket gradient come from exact chart tangents,
with no difference step to amplify roundoff, so the string brackets share
that tolerance and their algebra residuals read at roundoff.  The bracket
files are stored as compact JSON with the same numbers.

The verify cases cover the canonical point at n = 1 and n = 5, an n = 2
solution in a random isometry frame (complex sphere-sector arithmetic) and
the same parameters with lam scaled by 1 + 1e-3, which must fail (exit 2).
Their residuals come from exact derivatives, so the passing cases read at
roundoff (1e-16 to 1e-13), far inside the 1e-12 comparison.
The charges cases cover the canonical point, where l = r = t0, and the same
random-frame n = 2 solution, where the closed-form charges conjugate off
the reference axes.  Their parameter files sit next to the outputs.

errors.txt holds one "argv → stderr" line per misuse, for every class of input check (windings,
inadmissible points, grids, tol, scale, unreadable parameter files); each must exit 1 with that
one stderr line and no stdout, byte for byte.  In its argv, {not-json} and {not-utf8} name such
files and {field=value} a copy of params_n2_frame.json with that field's JSON text replaced.
"""

import json
import math
from pathlib import Path

import pytest

from ads3s3.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"
F_REF, B_REF = "1.6666666666666667", "1.25"
POINT = ["--f", F_REF, "--b", B_REF]

BYTE_EXACT = {
    "bridge_n1.json": ["bridge", *POINT, "--n", "1"],
    "bridge_n1.csv": ["bridge", *POINT, "--n", "1", "--format", "csv"],
    "bridge_n3.json": ["bridge", *POINT, "--n", "3"],
    "bridge_n3.csv": ["bridge", *POINT, "--n", "3", "--format", "csv"],
    "scan.csv": ["scan", "--grid", "0.5:4:15,0.5:3:11", "--n", "2"],
    "scan.json": ["scan", "--grid", "0.5:4:6,0.5:3:5", "--n", "2", "--format", "json"],
    "sample.csv": ["sample", *POINT, "--n", "2", "--tau-steps", "8", "--sigma-steps", "8"],
    "sample.json": ["sample", *POINT, "--n", "2", "--tau-steps", "4", "--sigma-steps", "6",
                    "--format", "json"],
}

NUMERIC = {
    "verify.json": (["verify", *POINT], 1e-12, 0),
    "verify_n5.json": (["verify", *POINT, "--n", "5"], 1e-12, 0),
    "verify_n2_frame.json":
        (["verify", "--params", str(DATA / "params_n2_frame.json")], 1e-12, 0),
    "verify_n2_lam_broken.json":
        (["verify", "--params", str(DATA / "params_n2_lam_broken.json")], 1e-12, 2),
    "charges.json": (["charges", *POINT], 1e-12, 0),
    "charges_n2_frame.json":
        (["charges", "--params", str(DATA / "params_n2_frame.json")], 1e-12, 0),
    "brackets_particle.json": (["brackets", "--mode", "particle", "--seed", "0"], 1e-12, 0),
    "brackets_string.json": (["brackets", "--mode", "string", "--seed", "0"], 1e-12, 0),
}


def output(capsys, argv, expected_code=0):
    code = main(argv)
    assert code == expected_code
    return capsys.readouterr().out


def assert_matches(got, want, tol, where="$"):
    """Same structure and non-numbers; every number within tol."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_matches(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=tol), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(BYTE_EXACT))
def test_byte_identical(capsys, name):
    assert output(capsys, BYTE_EXACT[name]) == (DATA / name).read_text()


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_numbers_match(capsys, name):
    argv, tol, code = NUMERIC[name]
    got = json.loads(output(capsys, argv, code))
    assert_matches(got, json.loads((DATA / name).read_text()), tol)


def _error_argument(token, tmp_path):
    """An errors.txt argv token, with a {...} file placeholder written out under tmp_path."""
    if not token.startswith("{"):
        return token
    path = tmp_path / f"params{len(list(tmp_path.iterdir()))}.json"
    spec = token[1:-1]
    if spec == "not-json":
        path.write_text("{")
    elif spec == "not-utf8":
        path.write_bytes(bytes(range(256)))
    else:
        field, value = spec.split("=", 1)
        data = json.loads((DATA / "params_n2_frame.json").read_text())
        data[field] = "PLACEHOLDER"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', value))
    return str(path)


def test_error_lines(capsys, tmp_path):
    want = (DATA / "errors.txt").read_text()
    got = []
    for line in want.splitlines():
        args = line.split(" → ")[0]
        code = main([_error_argument(token, tmp_path) for token in args.split()])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (1, "", 1), line
        got.append(f"{args} → {err}")
    assert "".join(got) == want
