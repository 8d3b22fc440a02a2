"""Output checks of the benchmark, run outside the timed interval.

Each check returns None when a call's output is right and otherwise a short
cause, which the run counts against the operation.  The checks recompute
what they compare against without calling the library, so a defect in the
library cannot make them pass.
"""

from __future__ import annotations

import json
import math

from workloads import admissible

# Acceptance tolerances of the bracket algebras (criteria 5 and 6).
BRACKET_TOL = {"string": 1e-5, "particle": 1e-6}
QUADRATURE_GAP_TOL = 1e-10
EMBEDDING_TOL = 1e-12
SAMPLE_ROWS_CHECKED = 64


class CheckFailure(Exception):
    pass


def _reject_constant(name):
    raise CheckFailure(f"output is not strict JSON (bare {name})")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON does not allow."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc.msg}") from None


def _expect(ok, message):
    if not ok:
        raise CheckFailure(message)


def _check_bridge(call, stdout, _text):
    payload = strict_json(stdout)
    _expect(payload.get("n") == call.info["n"], "bridge echoes the wrong winding")


def _check_verify(call, stdout, _text):
    payload = strict_json(stdout)
    _expect(payload.get("ok") == (call.expect_exit == 0), "verify verdict disagrees with exit code")


def _check_charges(call, stdout, _text):
    gap = strict_json(stdout).get("quadrature_gap")
    _expect(isinstance(gap, float) and gap <= QUADRATURE_GAP_TOL,
            f"quadrature_gap above {QUADRATURE_GAP_TOL:g}")


def _check_brackets(call, stdout, _text):
    mode = call.info["mode"]
    resid = strict_json(stdout).get("max_algebra_residual")
    _expect(isinstance(resid, float) and resid <= BRACKET_TOL[mode],
            f"{mode} max_algebra_residual above {BRACKET_TOL[mode]:g}")


def _check_scan(call, _stdout, text):
    lines = text.splitlines()
    expected = call.info["f_count"] * call.info["b_count"]
    _expect(len(lines) - 1 == expected, f"scan has {len(lines) - 1} rows, grid has {expected}")
    header = lines[0].split(",")
    i_f, i_b, i_ok = header.index("f"), header.index("b"), header.index("admissible")
    for line in lines[1:]:
        cells = line.split(",")
        want = "true" if admissible(float(cells[i_f]), float(cells[i_b])) else "false"
        _expect(cells[i_ok] == want, f"admissible column wrong at f={cells[i_f]}, b={cells[i_b]}")


def _embedding_error(row):
    """max(|Y.Y + 1|, |X.X - 1|) of one sample row, Y with signature (-, -, +, +)."""
    y0p, y0, y1, y2 = row["Y0p"], row["Y0"], row["Y1"], row["Y2"]
    x = (row["X1"], row["X2"], row["X3"], row["X4"])
    ads = -y0p * y0p - y0 * y0 + y1 * y1 + y2 * y2
    return max(abs(ads + 1.0), abs(math.fsum(v * v for v in x) - 1.0))


def _check_sample(call, _stdout, text):
    expected = call.info["tau_steps"] * call.info["sigma_steps"]
    if call.info["format"] == "json":
        rows = strict_json(text)
        _expect(len(rows) == expected, f"sample has {len(rows)} rows, expected {expected}")
        picked = rows[::max(1, expected // SAMPLE_ROWS_CHECKED)]
    else:
        lines = text.splitlines()
        _expect(len(lines) - 1 == expected, f"sample has {len(lines) - 1} rows, expected {expected}")
        header = lines[0].split(",")
        picked = [dict(zip(header, map(float, line.split(","))))
                  for line in lines[1::max(1, expected // SAMPLE_ROWS_CHECKED)]]
    worst = max(_embedding_error(row) for row in picked)
    _expect(worst <= EMBEDDING_TOL, f"embedding constraint off by {worst:.2g}")


_CHECKS = {"bridge": _check_bridge, "verify": _check_verify, "charges": _check_charges,
           "brackets": _check_brackets, "scan": _check_scan, "sample": _check_sample}


def check_call(call, outcome, out_text=None):
    """Cause of failure of one call, or None.

    `outcome` is (exit_code, stdout, exception_name); `out_text` is the file
    the call wrote with --out, if any.
    """
    exit_code, stdout, exc_name = outcome
    if exc_name is not None:
        return f"{call.command}: uncaught {exc_name}"
    if exit_code != call.expect_exit:
        cause = f"{call.command}: exit {exit_code}, expected {call.expect_exit}"
        if call.command == "verify":
            cause += f" (n={call.info['n']})"
        return cause
    if call.out is not None and out_text is None:
        return f"{call.command}: wrote no output file"
    try:
        _CHECKS[call.command](call, stdout, out_text)
    except CheckFailure as exc:
        return f"{call.command}: {exc}"
    except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
        return f"{call.command}: malformed output ({type(exc).__name__})"
    return None
