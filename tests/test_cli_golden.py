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
