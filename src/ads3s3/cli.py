"""Command-line front end.

Subcommands: bridge, verify, sample, scan, charges, brackets.  Exit codes:
0 success, 1 validation or usage error (also an arithmetic overflow or an
allocation that does not fit in memory), 2 numeric verification failure.
Outputs are deterministic.  One strict-JSON writer writes every payload.  scan
and sample write tables (_table) a block of rows at a time: CSV floats as '%.17g'
writes them (17 significant digits, so goldens round-trip), JSON floats as
float.__repr__ does.  One numpy kernel makes the exact digits of a whole block of
floats, from Dekker's error-free product and Clinger's exact read-back test, in the
exact range |x| in [1e-6, 1e17) for CSV and [1e-4, 1e16) for JSON; only the other
floats (+-0, nan and inf among them) go through Python's formatter, _float_text.  A grid
axis is a column (values, index) that stands for values[index]: each of its values is
formatted once and gathered by index.  Each block is written as soon as it is made.
The parser is built once per process, at import; main only parses with it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    """Write text, a str or the str pieces of a table in order, to the file out or to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines((text,) if isinstance(text, str) else text)


_BLOCK_ROWS = 2048
# A float cell: a sign, the "0.000" that leads a fixed number below 1, digits d0..d16 each
# followed by a point slot, and CSV's exponent e-05 or e-06 as "e-056"
_FLOAT_CELL = b"-0.000" + b"0." * 17 + b"e-056"


def _table(columns, fmt):
    """Named equal-length columns as CSV or JSON text, yielded in pieces of _BLOCK_ROWS rows.

    A column is an array or a pair (values, index) of floats, which stands for values[index].
    CSV floats read as '%.17g' writes them, bools true/false and every other cell (int,
    CSV-only str) as str() does; JSON is the bytes of json.dumps(list_of_row_dicts, indent=2),
    floats as float.__repr__ writes them and non-finite ones as null (_float_text).  A block
    is a uint8 grid of rows of separators, keys and cells, each cell's text padded with NUL
    bytes, which no cell holds: its text is the grid with the NULs deleted.  _emit writes
    each in turn.  Floats of the exact range come from one kernel per block (_float_cells,
    _digits), other floats from _float_text, once per distinct value in the block; every
    other cell is gathered from its column's texts, each encoded once: a pair's values,
    false and true, or an int or str column's cells.
    """
    json_rows = fmt == "json"
    if json_rows:
        heads = [("  {\n" if i == 0 else ",\n") + f"    {json.dumps(name)}: "
                 for i, name in enumerate(columns)]
        tail = "\n  },\n"  # the last row's ",\n" becomes "\n]\n"
    else:
        heads, tail = [""] + [","] * (len(columns) - 1), "\n"
    template, cells = bytearray(), []  # cells: (section of a row, floats or index, texts or None)
    for head, column in zip(heads, columns.values()):
        template += head.encode()
        if isinstance(column, tuple):
            values, index = column
            texts = _texts([_float_text(v, json_rows) for v in values.tolist()])
        else:
            column = np.asarray(column)
            index, texts = (column, None) if column.dtype.kind == "f" else (
                (column.astype(np.intp), _texts(["false", "true"])) if column.dtype == bool
                else (np.arange(len(column)), _texts(list(map(str, column.tolist())))))
        width = len(_FLOAT_CELL) if texts is None else texts.shape[1]
        cells.append((slice(len(template), len(template) + width), index, texts))
        template += bytes(width)
    rows = len(cells[0][1])
    yield ("[\n" if rows else "[]\n") if json_rows else ",".join(columns) + "\n"
    template = np.frombuffer(bytes(template + tail.encode()), np.uint8)
    floats = [(section.start, column) for section, column, texts in cells if texts is None]
    for first in range(0, rows, _BLOCK_ROWS):
        block = slice(first, min(first + _BLOCK_ROWS, rows))
        grid = np.tile(template, (block.stop - first, 1))
        for section, index, texts in cells:
            if texts is not None:
                grid[:, section] = texts[index[block]]
        if floats:
            _float_cells(grid, [start for start, _ in floats], json_rows,
                         np.stack([column[block] for _, column in floats], dtype=np.float64))
        text = grid.tobytes().translate(None, b"\0").decode()
        yield text[:-2] + "\n]\n" if json_rows and block.stop == rows else text


def _texts(texts, width=1):
    """The strings texts encoded once, as rows of bytes NUL-padded to width or more."""
    encoded = [text.encode() for text in texts]
    width = max([width, *map(len, encoded)])
    return np.array(encoded, f"S{width}").view(np.uint8).reshape(len(encoded), width)


def _float_text(v, json_cells):
    """The float v as a CSV cell, '%.17g', or a JSON one, float.__repr__ or null if not finite."""
    return (float.__repr__(v) if math.isfinite(v) else "null") if json_cells else "%.17g" % v


@functools.cache
def _float_templates(json_cells):
    """_FLOAT_CELL with the bytes it does not show as NUL, at key (e + 6) 34 + 2 (digits - 1) +
    negative, for the decimal exponent e and the count of significant digits; read-only.

    repr writes 1.0 where %g writes 1, and %g's exponent form starts below 1e-4.
    """
    e, count, negative = (k.ravel() for k in np.meshgrid(
        np.arange(-6, 17), np.arange(1, 18), [False, True], indexing="ij"))
    exponent = (e < -4) & (not json_cells)
    point = np.where(exponent, 0, np.maximum(e, -1))  # the digit before the point, -1: "0."
    digits = np.maximum(count, point + 1 + json_cells)
    shown = np.zeros((e.size, len(_FLOAT_CELL)), bool)
    shown[:, 0] = negative
    shown[:, 1:6] = np.arange(5) < np.where((e < 0) & ~exponent, 1 - e, 0)[:, None]
    shown[:, 6:40:2] = np.arange(17) < digits[:, None]
    shown[:, 7:40:2] = np.arange(17) == np.where(digits > point + 1, point, -1)[:, None]
    shown[:, 40:43] = exponent[:, None]
    shown[:, 43:] = exponent[:, None] & (e[:, None] == [-5, -6])
    templates = np.where(shown, np.frombuffer(_FLOAT_CELL, np.uint8), 0)
    templates.flags.writeable = False
    return templates


def _float_cells(grid, starts, json_cells, values):
    """Write float columns `values` of a block into their cells at byte `starts` of its rows.

    A float of the exact range, |x| in [1e-6, 1e17) for CSV and [1e-4, 1e16) for JSON, is the
    template its exponent, digit count and sign select, its digits or-ed into the "0" slots (a
    hidden slot's digit is 0); any other, +-0, nan and inf too, is Python's text of its value.
    """
    a = np.abs(values)
    fast = (1e-4 <= a) & (a < 1e16) if json_cells else (1e-6 < a) & (a < 1e17)
    d, e, slow = _digits(np.where(fast, a, 1.0).ravel(), json_cells)
    high = d // 10 ** 9
    halves = np.array([high, d - high * 10 ** 9], np.uint32)  # 8 and 9 digits
    digits = np.empty((18, d.size), np.uint8)  # one row per digit; row 0 is a leading 0
    for k in range(8, -1, -1):
        quotient = halves // np.uint32(10)
        digits[k::9] = halves - quotient * np.uint32(10)
        halves = quotient
    count = ((digits[1:] != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    keys = ((e + 6) * 34 + 2 * count - 2 + np.signbit(values).ravel()).reshape(values.shape)
    digits, templates = digits[1:].reshape(17, *values.shape), _float_templates(json_cells)
    for column, start in enumerate(starts):
        cells = grid[:, start:start + len(_FLOAT_CELL)]
        cells[:] = np.take(templates, keys[column], axis=0)
        cells[:, 6:40:2] |= digits[:, column].T
    column, row = np.nonzero(~fast | slow.reshape(values.shape))
    bits, index = np.unique(values[column, row].view(np.int64), return_inverse=True)
    at = (row * grid.shape[1] + np.array(starts)[column])[:, None] + np.arange(len(_FLOAT_CELL))
    grid.ravel()[at] = _texts([_float_text(v, json_cells) for v in bits.view(np.float64).tolist()],
                              len(_FLOAT_CELL))[index]


def _two_product(a, b):
    """hi, lo with hi + lo == a * b exactly: Dekker's product of factors split by Veltkamp."""
    hi = a * b
    a_split, b_split = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    a1, b1 = a_split - (a_split - a), b_split - (b_split - b)
    a2, b2 = a - a1, b - b1
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _digits(a, shortest):
    """(d, e, slow): a > 0 of the exact range reads d 10**(e - 16), d in [1e16, 1e17).

    d is a rounded half-even to 17 digits, from one exact product hi + lo = a 10**(16 - e);
    with `shortest` (repr's digits), to 15 or else 16 digits and padded with zeros where
    that reads back as a.  The reading back is exact, Clinger's fast path: a float below
    2**53 times or over an exact power of ten.  slow marks an odd 16-digit d above 2**53.
    No d rounds up to 1e17: no float of the exact ranges lies within half a 17-digit unit
    below a power of ten, or is the float nearest to one from below (1e-5 to 1e-1 lie above).
    """
    pow10 = np.array([float(10 ** k) for k in range(23)])
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    hi, lo = _two_product(a, pow10[16 - e])
    # log10 may be one off next to a power of ten: compare hi + lo with 1e16 and 1e17 exactly
    off = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.intp)
    off -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    if off.any():
        e += off
        hi, lo = _two_product(a, pow10[16 - e])
    floor_lo = np.floor(lo)  # hi >= 2**53 is an integer and |lo| <= 8
    frac = lo - floor_lo  # exact: lo is a multiple of 2**-52
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)  # the integer part of a 10**(16 - e)
    d = n + ((frac > 0.5) | (frac == 0.5) & (n & 1 == 1))
    slow, found = np.zeros(a.shape, bool), np.zeros(a.shape, bool)
    for unit, p in ((100, e - 14), (10, e - 15)) if shortest else ():
        q = n // unit  # floor division by a scalar is fast, np.divmod and % are not
        r = n - q * unit
        q += (r > unit // 2) | (r == unit // 2) & ((frac != 0) | (q & 1 == 1))
        exact = (q <= 2 ** 53) | (q & 1 == 0)  # float(q) == q
        back = q.astype(np.float64)
        back = np.where(p < 0, back / pow10[np.maximum(-p, 0)], back * pow10[np.maximum(p, 0)])
        ok, slow = ~found & exact & (back == a), slow | ~found & ~exact
        d, found = np.where(ok, q * unit, d), found | ok
    return d, e, slow


def _json(payload):
    """Strict JSON: json.dumps(payload, indent=2, allow_nan=False) + newline, NaN/inf as null."""
    return _json_value(payload, "\n") + "\n"


def _json_value(value, indent):
    """value as indented JSON in one pass; indent is the newline and spaces before its end.

    Floats are written by float.__repr__, as json writes them (numpy 2's repr of an np.float64
    reads np.float64(...)); str keys, strings, ints, bools, None and {} or [] by json's C encoder.
    """
    if isinstance(value, float):
        return _float_text(value, True)
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
    mesh = np.concatenate([y, x, proj], axis=-1)
    names = ["Y0p", "Y0", "Y1", "Y2", "X1", "X2", "X3", "X4", "P1", "P2", "P3"]
    i_tau, i_sigma = np.indices(mesh.shape[:2]).reshape(2, -1)
    columns = {"tau": (taus, i_tau), "sigma": (sigmas, i_sigma),
               **dict(zip(names, mesh.reshape(-1, len(names)).T))}
    _emit(_table(columns, args.format), args.out)
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
    columns, nb = scan_region(f_range, b_range, args.n), b_range[2]
    i_f, i_b = np.indices((columns["f"].size // nb, nb)).reshape(2, -1)  # f-major, as the rows
    columns.update(f=(columns["f"][::nb], i_f), b=(columns["b"][:nb], i_b))
    _emit(_table(columns, args.format), args.out)
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
