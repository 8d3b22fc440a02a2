"""Command-line front end.

Subcommands: bridge, verify, sample, scan, charges, brackets.  Exit codes:
0 success, 1 validation or usage error (also an arithmetic overflow or an
allocation that does not fit in memory), 2 numeric verification failure.
Outputs are deterministic; CSV floats carry 17 significant digits so golden
files round-trip exactly.  scan and sample write column tables (_table).
The parser is built once per process, at import; main only parses with it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bridge import RegionError, bridge as bridge_invariants, f_max, scan_region
from .algebra import (
    DegenerateConfigurationError,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
)
from .charges import charge_coefficients, charge_gap, charges_analytic, charges_numeric
from .geometry import DEFAULT_THRESHOLDS, verify_solution
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
    json.dumps(list_of_row_dicts, indent=2), non-finite floats as null.
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


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json(payload):
    """Strict JSON: non-finite numbers are written as null."""
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"


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
    thresholds = None
    if args.tol is not None:
        thresholds = {k: args.tol for k in DEFAULT_THRESHOLDS}
    grid = (4, 8)
    if args.grid:
        try:
            t, s = args.grid.lower().split("x")
            grid = (int(t), int(s))
        except ValueError as exc:
            raise ValidationError(f"bad --grid {args.grid!r}; expected TxS") from exc
    report = verify_solution(sol, grid=grid, thresholds=thresholds)
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
    scale = args.scale
    if not math.isfinite(scale):
        raise ValidationError(f"--scale must be finite, got {scale}")
    sol = _load_params(args, strict=True)
    analytic = charges_analytic(sol)
    gap = charge_gap(analytic, charges_numeric(sol))
    c_L, c_R, c_Ls, c_Rs = charge_coefficients(analytic, sol)
    payload = {
        "scale": scale,
        "L": [scale * v for v in analytic.L.coeffs.tolist()],
        "R": [scale * v for v in analytic.R.coeffs.tolist()],
        "L_s": [scale * v for v in analytic.L_s.coeffs.tolist()],
        "R_s": [scale * v for v in analytic.R_s.coeffs.tolist()],
        "coefficients": {"L": scale * c_L, "R": scale * c_R,
                         "L_s": scale * c_Ls, "R_s": scale * c_Rs},
        "mL": scale * analytic.m_L, "mR": scale * analytic.m_R,
        "mL_s": scale * analytic.m_L_s, "mR_s": scale * analytic.m_R_s,
        "asymmetry_mR_over_mL": analytic.m_R / analytic.m_L if analytic.m_L else math.nan,
        "quadrature_gap": gap,
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


def _algebra_residual(chart, form, x):
    """Max deviation of the charge brackets from the left/right algebra."""
    table = bracket_table([chart.charges], form, x)
    return float(np.max(np.abs(table - BRACKET_STRUCTURE @ chart.charges(x))))


def cmd_brackets(args):
    if args.seed < 0:
        raise ValidationError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    results = []
    if args.mode == "particle":
        for _ in range(5):
            point = _random_particle_point(rng)
            chart = ParticleChart(point)
            form = chart.form()
            resid = _algebra_residual(chart, form, chart.coords(point))
            results.append({"mode": "particle", "max_algebra_residual": resid,
                            "form": form.as_dict()})
    else:
        for _ in range(2):
            point = _random_string_point(rng)
            chart = StringChart(point)
            form = chart.form()
            resid = _algebra_residual(chart, form, chart.coords(point))
            results.append({"mode": "string", "max_algebra_residual": resid,
                            "orbit_coefficients": list(chart.orbit_block_coefficients(form)),
                            "form": form.as_dict()})
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
    parser = _Parser(prog="ads3s3", description=__doc__)
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
    except (ValidationError, RegionError, DegenerateConfigurationError, OSError,
            json.JSONDecodeError, FloatingPointError, OverflowError, MemoryError) as exc:
        print(f"ads3s3 {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
