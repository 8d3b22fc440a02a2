"""Command-line front end.

Subcommands: bridge, verify, sample, scan, charges, brackets.  Exit codes:
0 success, 1 validation or usage error (also an arithmetic overflow or an
allocation that does not fit in memory), 2 numeric verification failure.
Outputs are deterministic.  One strict-JSON writer writes every payload;
scan and sample write tables with one row template each for CSV (floats to
17 significant digits, so goldens round-trip) and for JSON.
The parser is built once per process, at import; main only parses with it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bridge import bridge as bridge_invariants, f_max, scan_region
from .algebra import (
    DegenerateConfigurationError,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
)
from .charges import _analytic_coeffs, _casimirs, _coefficients, _numeric_coeffs
from .geometry import verify_solution
from .solutions import embedding_surface, family_solution, params_from_dict
from .symplectic import (
    BRACKET_STRUCTURE,
    ParticleChart,
    ParticleChartPoint,
    StringChart,
    StringChartPoint,
    bracket_table,
)


class _UsageError(Exception):
    """Command line that argparse rejects; main reports it and exits 1."""


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors become one stderr line and exit code 1.

    Prefix matching is off in every subparser too: --t must not set --tol.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{"allow_abbrev": False, **kwargs})

    def error(self, message):
        message = message.replace("the following arguments are required:", "requires")
        raise _UsageError(f"{self.prog}: error: {message}")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(columns, fmt):
    """Named equal-length columns as CSV or JSON, one %-template per row.

    CSV floats carry 17 significant digits, bools read true/false and every
    other cell (int, CSV-only str) reads as str() does; JSON is the bytes of
    json.dumps(list_of_row_dicts, indent=2), non-finite floats as null.  Tables keep the
    template: through _json, the same bytes take over twice the time (a 128x128 JSON sample
    447 ms against 180 ms, a 120x120 scan 277 ms against 98 ms, best of 3 on a 2-core VM).
    """
    cells, slots = [], []
    for values in map(np.asarray, columns.values()):
        floats = values.dtype.kind == "f"
        # %s writes a float as its repr, which is what json writes
        slots.append("%.17g" if fmt == "csv" and floats else "%s")
        if values.dtype == bool:
            values = np.where(values, "true", "false")
        elif fmt == "json" and floats and not np.isfinite(values).all():
            values = np.where(np.isfinite(values), values.astype(object), "null")
        cells.append(values.tolist())
    rows = zip(*cells)
    if fmt == "csv":
        template = ",".join(slots)
        return "\n".join([",".join(columns), *(template % row for row in rows)]) + "\n"
    names = (json.dumps(name).replace("%", "%%") for name in columns)
    template = "  {\n" + ",\n".join(f"    {name}: {slot}" for name, slot in zip(names, slots)) + "\n  }"
    body = ",\n".join([template % row for row in rows])
    return f"[\n{body}\n]\n" if body else "[]\n"


def _json(payload):
    """Strict JSON: json.dumps(payload, indent=2, allow_nan=False) + newline, NaN/inf as null."""
    return _json_value(payload, "\n") + "\n"


def _json_value(value, indent):
    """value as indented JSON in one pass; indent is the newline and spaces before its end.

    Floats are written by float.__repr__, as json writes them (numpy 2's repr of an np.float64
    reads np.float64(...)); str keys, strings, ints, bools, None and {} or [] by json's C encoder.
    """
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [json.dumps(key) + ": " + _json_value(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
        items = map(float.__repr__, value)  # a flat list of finite floats in one join
    else:
        items = [_json_value(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _parse_range(spec, name):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{name} range must be start:stop:count, got {spec!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad {name} range {spec!r}: {exc}") from exc


def _load_params(args, strict):
    if args.params:
        if (args.f, args.b, args.n) != (None, None, None):
            raise ValidationError("--params excludes --f, --b and --n")
        with open(args.params) as fh:
            try:
                data = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ValidationError(f"parameter file is not UTF-8 text: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ValidationError(f"parameter file is not JSON: {exc}") from exc
        return params_from_dict(data, strict=strict)
    if args.f is None or args.b is None:
        raise ValidationError("provide --params or the family point --f, --b [--n]")
    return family_solution(args.f, args.b, 1 if args.n is None else args.n)


def cmd_bridge(args):
    payload = bridge_invariants(args.f, args.b, args.n).as_dict()
    if args.format == "csv":
        payload["degenerate"] = ";".join(payload["degenerate"])
        text = _table({name: [value] for name, value in payload.items()}, "csv")
    else:
        text = _json(payload)
    _emit(text, args.out)
    return 0


def cmd_verify(args):
    sol = _load_params(args, strict=False)
    grid = (4, 8)
    if args.grid:
        try:
            t, s = args.grid.lower().split("x")
            grid = (int(t), int(s))
        except ValueError as exc:
            raise ValidationError(f"bad --grid {args.grid!r}; expected TxS") from exc
    report = verify_solution(sol, grid=grid, tol=args.tol)
    _emit(_json(report.as_dict()), args.out)
    return 0 if report.ok else 2


def cmd_sample(args):
    if args.tau_steps < 1 or args.sigma_steps < 1:
        raise ValidationError("--tau-steps and --sigma-steps must be at least 1")
    sol = family_solution(args.f, args.b, args.n)
    taus = np.linspace(0.0, 2.0 * math.pi, args.tau_steps, endpoint=False)
    sigmas = np.linspace(0.0, 2.0 * math.pi, args.sigma_steps, endpoint=False)
    y, x = embedding_surface(sol, taus, sigmas)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = x[..., :3] / (1.0 + x[..., 3])[..., None]
    tau, sigma = np.meshgrid(taus, sigmas, indexing="ij")
    mesh = np.concatenate([tau[..., None], sigma[..., None], y, x, proj], axis=-1)
    names = ["tau", "sigma", "Y0p", "Y0", "Y1", "Y2",
             "X1", "X2", "X3", "X4", "P1", "P2", "P3"]
    _emit(_table(dict(zip(names, mesh.reshape(-1, len(names)).T)), args.format), args.out)
    return 0


def cmd_scan(args):
    if not args.grid:
        raise ValidationError("scan requires --grid fstart:fstop:count,bstart:bstop:count")
    try:
        f_spec, b_spec = args.grid.split(",")
    except ValueError as exc:
        raise ValidationError(f"bad --grid {args.grid!r}") from exc
    f_range = _parse_range(f_spec, "f")
    b_range = _parse_range(b_spec, "b")
    _emit(_table(scan_region(f_range, b_range, args.n), args.format), args.out)
    return 0


def cmd_charges(args):
    scale = np.float64(args.scale)  # numpy arithmetic: overflow raises under main's errstate
    if not math.isfinite(scale):
        raise ValidationError(f"--scale must be finite, got {scale}")
    sol = _load_params(args, strict=True)
    rows = _analytic_coeffs(sol)  # raw charge rows (L, R, L_s, R_s), as the checks leave them
    m_L, m_R, *_ = casimirs = _casimirs(rows)
    gap = float(np.max(np.abs(rows - _numeric_coeffs(sol))))
    names = ("L", "R", "L_s", "R_s")
    payload = {
        "scale": scale, **{k: [scale * v for v in row] for k, row in zip(names, rows.tolist())},
        "coefficients": {k: scale * c for k, c in zip(names, _coefficients(rows, sol))},
        **{"m" + k: scale * m for k, m in zip(names, casimirs)},
        "asymmetry_mR_over_mL": m_R / m_L if m_L else math.nan, "quadrature_gap": gap,
    }
    _emit(_json(payload), args.out)
    return 0


def _random_particle_point(rng):
    return ParticleChartPoint(
        lhat=UnitTimelikeVector(rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi)),
        rhat=UnitTimelikeVector(rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi)),
        lhat_s=UnitSphereVector(rng.uniform(0.4, 2.4), rng.uniform(0.0, 2.0 * math.pi)),
        rhat_s=UnitSphereVector(rng.uniform(0.4, 2.4), rng.uniform(0.0, 2.0 * math.pi)),
        m_s=rng.uniform(0.4, 1.6), M=rng.uniform(0.2, 1.2),
        phi=rng.uniform(0.0, 2.0 * math.pi), phi_s=rng.uniform(0.0, 2.0 * math.pi),
    )


def _random_string_point(rng, n=1):
    b = rng.uniform(1.05, 1.5)
    f = rng.uniform(b + 0.02, f_max(b) - 0.02)
    return StringChartPoint(
        lhat=UnitTimelikeVector(rng.uniform(0.2, 0.9), rng.uniform(0.0, 2.0 * math.pi)),
        rhat=UnitTimelikeVector(rng.uniform(0.2, 0.9), rng.uniform(0.0, 2.0 * math.pi)),
        lhat_s=UnitSphereVector(rng.uniform(0.5, 1.2), rng.uniform(0.0, 2.0 * math.pi)),
        rhat_s=UnitSphereVector(rng.uniform(1.8, 2.6), rng.uniform(0.0, 2.0 * math.pi)),
        f=f, b=b, phi1=rng.uniform(0.0, 1.0), phi2=rng.uniform(0.0, 1.0), n=n,
    )


def cmd_brackets(args):
    if args.seed < 0:
        raise ValidationError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    particle, results = args.mode == "particle", []
    for _ in range(5 if particle else 2):
        chart = (ParticleChart(_random_particle_point(rng)) if particle
                 else StringChart(_random_string_point(rng)))
        form = chart.form()  # next: the charge brackets at the base point, less the algebra
        table = bracket_table(chart.charges_jacobian(), form) - BRACKET_STRUCTURE @ chart.charges()
        result = {"mode": args.mode, "max_algebra_residual": float(np.max(np.abs(table)))}
        if not particle:
            result["orbit_coefficients"] = list(chart.orbit_block_coefficients(form))
        results.append({**result, "form": form.as_dict()})
    payload = {"seed": args.seed, "points": results,
               "max_algebra_residual": max(r["max_algebra_residual"] for r in results)}
    _emit(_json(payload), args.out)
    return 0


_OPTIONS = {
    "f": dict(type=float),
    "b": dict(type=float),
    "n": dict(type=int, default=1),
    "params": dict(help="JSON parameter file"),
    "grid": {},
    "tau-steps": dict(type=int, default=16),
    "sigma-steps": dict(type=int, default=64),
    "tol": dict(type=float),
    "seed": dict(type=int, default=0),
    "mode": dict(choices=("particle", "string"), default="particle"),
    "scale": dict(type=float, default=1.0,
                  help="overall coupling scale applied to reported charges"),
}


def _build_parser():
    parser = _Parser(prog="ads3s3", description="Constant-metric strings on AdS3 x S3: bridge, "
                     "verify, sample, scan, charges, brackets.  Exit codes: 0 success, "
                     "1 validation or usage error, 2 numeric verification failure.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, options, output=None, required=()):
        """Subcommand reading only `options`; `output` is its default --format."""
        p = sub.add_parser(name, help=helptext)
        for opt in options:
            p.add_argument(f"--{opt}", required=opt in required, **_OPTIONS[opt])
        if "params" in options:  # --n defaults to 1 but must be seen next to --params
            p.set_defaults(n=None)
        if output:
            p.add_argument("--format", choices=("json", "csv"), default=output)
        p.add_argument("--out")

    add("bridge", "invariants at a family point (f, b, n)",
        ("f", "b", "n"), "json", required=("f", "b"))
    add("verify", "residual verification battery", ("f", "b", "n", "params", "grid", "tol"))
    add("sample", "embedding-surface mesh export",
        ("f", "b", "n", "tau-steps", "sigma-steps"), "csv", required=("f", "b"))
    add("scan", "admissibility scan over an (f, b) grid", ("grid", "n"), "csv")
    add("charges", "conserved charges and Casimirs", ("f", "b", "n", "params", "scale"))
    add("brackets", "Poisson-bracket algebra residuals", ("seed", "mode"))
    return parser


_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help has printed; argparse ends it with parser.exit()
        return exc.code
    try:
        # overflow raises, for one line below (scan and sample set their own errstate);
        # by name at call time, so that a wrapper bound on the module (perfbench tracing) runs
        with np.errstate(over="raise"):
            return globals()[f"cmd_{args.command}"](args)
    except (ValidationError, DegenerateConfigurationError, OSError, FloatingPointError,
            OverflowError, MemoryError) as exc:
        print(f"ads3s3 {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
