"""Command-line front end: analyze, verify, invariants, constraints, rescale.

Configs are flat ``key = value`` text with bracketed section headers;
expression values are double-quoted::

    [structure]
    u = "0"
    P11 = "x*y"
    P12 = "(y*y - x*x)/2"
    P22 = "-(x*y)"

    [region]
    xmin = -2.0
    xmax = 2.0
    ymin = -2.0
    ymax = 2.0
    nx = 21
    ny = 21

    [points]
    points = "1,0; 0.5,0"

    [options]
    mode = real
    orientation = +1

Exit codes: 0 success, 1 verification failure (``verify`` only),
2 config error, 3 expression error (one that does not parse, or that fails
at a point: ``ln`` or ``sqrt`` of a nonpositive value, a zero divisor).
Each section and key of a config must be one read here; any other (a typo,
``[tolerances]`` or ``jet_order``) is a config error naming it: a config sets
the problem, and the numerical thresholds are constants of the program.
Reports are deterministic and byte-stable for a fixed config (no
timestamps); numbers are emitted in round-trip-exact decimal form.
"""

import configparser
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from .analyzer import (
    MODES,
    RESULTANT_PAIRS,
    TAGS,
    TOL_RESIDUAL,
    RegionSpec,
    SolutionCandidate,
    check_mode,
    classify_columns,
    verify_columns,
)
from .constraints import NOT_FINITE, coeffs_P0, coeffs_P1, coeffs_P2, coeffs_P3
from .expr import ExprError, parse, to_source
from .geometry import MoebiusStructure
from .invariants import FlatPoint, compute_invariants
from .jets import JetError
from .polyalg import trimmed_degrees

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_EXPR = 3

try:
    _VERSION = version("sfmew")
except PackageNotFoundError:  # running from a source tree
    _VERSION = "unknown"


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    structure_exprs: dict  # raw strings: u, P11, P12, P22
    region: RegionSpec | None
    points: list  # [(x, y), ...]
    orientation: int  # +1 or -1
    mode: str  # of verify: a real candidate, or a complex one


def _unquote(raw):
    s = raw.strip()
    if len(s) >= 2 and s[0] == '"' and s[-1] == '"':
        return s[1:-1]
    return s


def _parse_points(text):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad point {chunk!r}: expected 'x,y'")
        try:
            pt = (float(parts[0]), float(parts[1]))
        except ValueError as err:
            raise ConfigError(f"bad point {chunk!r}: {err}") from err
        if not all(map(math.isfinite, pt)):
            raise ConfigError(f"bad point {chunk!r}: coordinates must be finite")
        pts.append(pt)
    return pts


#: The keys that :func:`load_config` reads, by section.
_CONFIG_KEYS = {
    "structure": ("u", "P11", "P12", "P22"),
    "region": ("xmin", "xmax", "ymin", "ymax", "nx", "ny"),
    "points": ("points",),
    "options": ("mode", "orientation"),
}


def _check_keys(parser):
    """Raise :class:`ConfigError` naming the first section or key that is not read."""
    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}] is not a config section; remove it")
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"[{section}] is not a config section; remove it")
        known = {parser.optionxform(key) for key in _CONFIG_KEYS[section]}
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"{key!r} in [{section}] is not a setting; remove the key")


def load_config(path):
    """Parse a run config; raises :class:`ConfigError` on structural problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as err:  # a duplicate, a line outside any section
        raise ConfigError(f"unreadable config: {err}") from err
    if not read:
        raise ConfigError(f"config file not found: {path}")
    _check_keys(parser)

    if "structure" not in parser:
        raise ConfigError("missing [structure] section")
    st = parser["structure"]
    structure_exprs = {}
    for key in _CONFIG_KEYS["structure"]:
        if key not in st:
            raise ConfigError(f"missing structure key {key!r}")
        structure_exprs[key] = _unquote(st[key])

    region = None
    if "region" in parser:
        rg = parser["region"]
        try:
            region = RegionSpec(
                xmin=rg.getfloat("xmin"),
                xmax=rg.getfloat("xmax"),
                ymin=rg.getfloat("ymin"),
                ymax=rg.getfloat("ymax"),
                nx=rg.getint("nx"),
                ny=rg.getint("ny"),
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad [region] section: {err}") from err

    points = []
    if "points" in parser and "points" in parser["points"]:
        points = _parse_points(_unquote(parser["points"]["points"]))

    orientation, mode = 1, "real"
    if "options" in parser:
        op = parser["options"]
        if "mode" in op:
            mode = _unquote(op["mode"])
        if "orientation" in op:
            raw = _unquote(op["orientation"]).replace("+", "")
            try:
                orientation = int(raw)
            except ValueError as err:
                raise ConfigError(f"bad orientation: {err}") from err
    if orientation not in (1, -1):
        raise ConfigError("orientation must be +1 or -1")
    try:
        check_mode(mode)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return RunConfig(structure_exprs, region, points, orientation, mode)


# -- report writing ---------------------------------------------------------
#
# ``_dump_json(x)`` is ``json.dumps(_plain(x), indent=2) + "\n"``: ``_plain``
# copies x with its numpy values read as Python values, a NaN float as null and
# a complex number as {"re", "im"} (whose NaN parts json writes as NaN).  A
# float's text is ``float.__repr__``; report keys are strings.  The per-node
# records of ``analyze`` and ``verify`` are not copied: they are built as one
# text column per key, straight from the analyzer's verdict and residual
# columns, each float formatted once and its text shared by report.json and
# grid.csv (``docs/decisions.md`` section 11).  A :class:`_Records` holds the
# text columns, and is laid in as the whole report or as a value of its
# top-level dict, the only places the commands put one.

_NAN_AS_NULL = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity", None: "null"}
_NAN_AS_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dict_template(keys, level):
    inner = "\n" + "  " * (level + 1)
    fields = [inner + _json_str(key).replace("%", "%%") + ": %s" for key in keys]
    return "{" + ",".join(fields) + "\n" + "  " * level + "}"


def _bracketed(texts, level):
    """The JSON text of a list whose items have the texts ``texts``."""
    if not texts:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + "  " * level + "]"


class _Records(NamedTuple):
    """Records of one key sequence as text columns, one per key: a column is
    the JSON text of each record's value, or a function that gives those
    texts laid out at the level of the values.  Record i has the first
    ``cuts[i]`` keys."""

    keys: tuple
    columns: list
    cuts: list


def _records_text(records, level):
    templates = {n: _dict_template(records.keys[:n], level + 1) for n in set(records.cuts)}
    columns = [c(level + 2) if callable(c) else c for c in records.columns]
    return _bracketed(
        [templates[n] % row[:n] for n, row in zip(records.cuts, zip(*columns))], level
    )


def _json_texts(reprs, table=_NAN_AS_NULL):
    """The JSON texts of numbers given by their reprs, None as null."""
    return list(map(table.get, reprs, reprs))


def _reprs(values, present=None):
    """``float.__repr__`` of each value of an array, None where ``present`` does not hold."""
    texts = list(map(float.__repr__, values.tolist()))
    if present is None:
        return texts
    return [text if there else None for text, there in zip(texts, present.tolist())]


def _json_lists(items):
    """A column of lists, given by the JSON texts of their items."""
    return lambda level: [_bracketed(texts, level) for texts in items]


def _json_complexes(values):
    """A column of complex numbers, an array, each a {"re", "im"} object."""
    re, im = (_json_texts(_reprs(part), _NAN_AS_JSON) for part in (values.real, values.imag))
    return lambda level: list(map(_dict_template(("re", "im"), level).__mod__, zip(re, im)))


def _plain(value):
    """The copy of ``value`` that ``json`` writes as the report."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, _Records):  # json would write it as a list
        raise TypeError("records are a report, or a value of its top-level dict")
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys are str, not {type(key).__name__}")
        return {k: _plain(v) for k, v in value.items()}
    return value


def _dump_json(data):
    if isinstance(data, _Records):
        return _records_text(data, 0) + "\n"
    records = {}
    if isinstance(data, dict):
        records = {k: v for k, v in data.items() if isinstance(v, _Records)}
        data = {k: None if k in records else v for k, v in data.items()}
    text = json.dumps(_plain(data), indent=2)
    # json.dumps writes each top-level key, and no other string, two spaces in
    for key, value in records.items():
        field = "\n  " + _json_str(key) + ": "
        text = text.replace(field + "null", field + _records_text(value, 1), 1)
    return text + "\n"


@contextmanager
def _expression_errors_exit():
    """Exit 3 on an expression that does not parse, or that fails where it is
    evaluated at a point; the message gives the source offset (and the point)."""
    try:
        yield
    except (ExprError, JetError) as err:
        click.echo(f"expression error: {err}", err=True)
        sys.exit(EXIT_EXPR)


def _load_or_exit(config_path, mode, orientation, points_opt):
    """The run config, with the command line's overrides, and its structure."""
    try:
        cfg = load_config(config_path)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    with _expression_errors_exit():
        structure = MoebiusStructure.from_strings(
            cfg.structure_exprs["u"],
            cfg.structure_exprs["P11"],
            cfg.structure_exprs["P12"],
            cfg.structure_exprs["P22"],
        )
    if mode:
        cfg.mode = mode
    if orientation:
        cfg.orientation = int(orientation.replace("+", ""))
    if points_opt:
        try:
            cfg.points = _parse_points(points_opt)
        except ConfigError as err:
            click.echo(f"config error: {err}", err=True)
            sys.exit(EXIT_CONFIG)
    return cfg, structure


def _metadata(cfg):
    return {
        "tool": "sfmew",
        "version": _VERSION,
        "mode": cfg.mode,
        "orientation": cfg.orientation,
    }


_TAG_TEXTS = np.array([tag.value for tag in TAGS], dtype=object)
# the keys of an ``analyze`` record: a node without resultant reports has the first ones
_VERDICT_KEYS = ("x", "y", "verdict", "note", "f_candidates", "residual", "m_norm")
_NODE_KEYS = _VERDICT_KEYS + tuple(
    key for pair in RESULTANT_PAIRS for key in (pair, pair + "_value", pair + "_gap")
)
_GRID_HEADER = ("x", "y", "verdict", *RESULTANT_PAIRS, "F_candidates", "residual")


def _node_records(columns):
    """The records of the nodes of ``columns``, a
    :class:`~sfmew.analyzer.VerdictColumns`, and their rows of ``grid.csv``:
    there a number is its ``float.__repr__`` (NaN is ``nan``), a missing one
    is empty, and the candidates are joined by ``;``.  Returns two functions
    of a slice of the nodes: its :class:`_Records`, and its rows."""
    n = len(columns.points)
    xs, ys = (list(map(float.__repr__, [p[k] for p in columns.points])) for k in (0, 1))
    tags = _TAG_TEXTS[columns.tag].tolist()
    texts = _reprs(columns.f_value)
    bounds = np.searchsorted(columns.f_node, np.arange(n + 1)).tolist()
    f_candidates = [texts[a:b] for a, b in zip(bounds, bounds[1:])]
    residual = _reprs(*columns.residual())
    # per pair, the texts of its normalized resultants (None where a node has
    # none), values and gaps
    normalized = [_reprs(row, columns.resultant) for row in columns.normalized]
    pairs = zip(normalized, map(_reprs, columns.value), map(_reprs, columns.gap))
    json = [
        _json_texts(xs),
        _json_texts(ys),
        list(map(_json_str, tags)),
        list(map(_json_str, columns.note)),
        [_json_texts(t) for t in f_candidates],
        _json_texts(residual),
        _json_texts(_reprs(columns.m_norm, columns.branch)),
        *(_json_texts(texts) for pair in pairs for texts in pair),
    ]
    cuts = np.where(columns.resultant, len(_NODE_KEYS), len(_VERDICT_KEYS)).tolist()
    csv_columns = [xs, ys, tags, *normalized, list(map(";".join, f_candidates)), residual]

    def records(nodes):
        part = [column[nodes] for column in json]
        part[4] = _json_lists(part[4])  # f_candidates: lists laid out at their level
        return _Records(_NODE_KEYS, part, cuts[nodes])

    return records, lambda nodes: zip(*(column[nodes] for column in csv_columns))


def _grid_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_GRID_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


_RESIDUALS = ("res_alpha_U", "res_alpha_W", "res_tensor", "res_trace", "f_gradient_mismatch",
              "max_residual")


def _residual_records(columns):
    """The :class:`_Records` of a ``verify`` call's residual columns, a
    :class:`~sfmew.analyzer.ResidualColumns`; F is complex in complex mode."""
    keys = ("x", "y", "F", *_RESIDUALS, "passed")
    f = columns.f
    return _Records(
        keys,
        [
            *(_json_texts(list(map(float.__repr__, [p[k] for p in columns.points])))
              for k in (0, 1)),
            _json_complexes(f) if np.iscomplexobj(f) else _json_texts(_reprs(f)),
            *(_json_texts(_reprs(getattr(columns, name))) for name in _RESIDUALS),
            ["true" if passed else "false" for passed in columns.passed.tolist()],
        ],
        [len(keys)] * len(columns.points),
    )


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, help="run config path")(fn)
    fn = click.option("--out", "out_dir", default=".", help="output directory")(fn)
    fn = click.option("--mode", type=click.Choice(MODES), default=None)(fn)
    fn = click.option("--orientation", type=click.Choice(["+1", "-1"]), default=None)(fn)
    fn = click.option("--points", "points_opt", default=None, help='extra points "x,y;x,y"')(fn)
    return fn


def _points_or_exit(cfg, command):
    """The configured points, else the region's nodes; exit 2 when there are neither."""
    points = cfg.points or (list(cfg.region.nodes()) if cfg.region else [])
    if not points:
        click.echo(f"config error: {command} needs [points] or [region]", err=True)
        sys.exit(EXIT_CONFIG)
    return points


@click.group()
@click.version_option(version=_VERSION, prog_name="sfmew")
def main():
    """Decide local solvability of the scalar-flat Moebius Einstein-Weyl equation."""


@main.command()
@_common_options
def analyze(config_path, out_dir, mode, orientation, points_opt):
    """Classify a region grid and/or explicit points; write report.json + grid.csv."""
    cfg, structure = _load_or_exit(config_path, mode, orientation, points_opt)
    if cfg.region is None and not cfg.points:
        click.echo("config error: analyze needs a [region] or [points] section", err=True)
        sys.exit(EXIT_CONFIG)
    if cfg.region is not None and min(cfg.region.nx, cfg.region.ny) < 2:
        click.echo(
            f"config error: analyze needs a [region] of at least 2x2 nodes "
            f"(got nx = {cfg.region.nx}, ny = {cfg.region.ny})",
            err=True,
        )
        sys.exit(EXIT_CONFIG)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report = {
        "metadata": _metadata(cfg),
        "structure": dict(cfg.structure_exprs),
    }
    grid = list(cfg.region.nodes()) if cfg.region is not None else []
    with _expression_errors_exit():
        columns = classify_columns(structure, grid + cfg.points, cfg.orientation)
    records, rows = _node_records(columns)

    summary = None
    if cfg.region is not None:
        part = slice(0, len(grid))
        histogram, summary, flags = columns.tally(part)
        report["region"] = {
            "xmin": cfg.region.xmin,
            "xmax": cfg.region.xmax,
            "ymin": cfg.region.ymin,
            "ymax": cfg.region.ymax,
            "nx": cfg.region.nx,
            "ny": cfg.region.ny,
        }
        report["grid"] = records(part)
        report["histogram"] = histogram
        report["flags"] = flags
        (out / "grid.csv").write_text(_grid_csv(rows(part)))

    if cfg.points:
        report["points"] = records(slice(len(grid), None))
        summary = columns.tally()[1]

    report["summary"] = summary
    (out / "report.json").write_text(_dump_json(report))
    click.echo(summary)
    sys.exit(EXIT_OK)


@main.command()
@_common_options
@click.option(
    "--alpha",
    "alpha_exprs",
    multiple=True,
    required=True,
    help="candidate components: 2 in real mode, 4 (re1 re2 im1 im2) in complex mode",
)
def verify(config_path, out_dir, mode, orientation, points_opt, alpha_exprs):
    """Verify a closed-form candidate; exit 0 when all residuals pass."""
    cfg, structure = _load_or_exit(config_path, mode, orientation, points_opt)
    run_mode = cfg.mode
    expected = 4 if run_mode == "complex" else 2
    if len(alpha_exprs) != expected:
        click.echo(
            f"config error: {run_mode} mode needs {expected} --alpha components, "
            f"got {len(alpha_exprs)}",
            err=True,
        )
        sys.exit(EXIT_CONFIG)
    with _expression_errors_exit():
        exprs = tuple(parse(e) for e in alpha_exprs)

    points = _points_or_exit(cfg, "verify")

    candidate = SolutionCandidate(
        F=0.0, alpha=np.zeros(2, dtype=complex), source="UserSupplied", alpha_exprs=exprs
    )
    with _expression_errors_exit():
        columns = verify_columns(structure, candidate, points, run_mode, cfg.orientation)
    passed = bool(columns.passed.all())
    payload = {
        "metadata": _metadata(cfg),
        "alpha": [to_source(e) for e in exprs],
        "tol_residual": TOL_RESIDUAL,
        "max_residual": float(np.max(columns.max_residual)),  # NaN if one is
        "passed": passed,
        "points": _residual_records(columns),
    }
    text = _dump_json(payload)
    click.echo(text, nl=False)
    if out_dir != ".":
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "residuals.json").write_text(text)
    sys.exit(EXIT_OK if passed else EXIT_RESIDUAL)


@main.command()
@_common_options
def invariants(config_path, out_dir, mode, orientation, points_opt):
    """Dump point invariants as JSON at the configured points."""
    cfg, structure = _load_or_exit(config_path, mode, orientation, points_opt)
    points = _points_or_exit(cfg, "invariants")
    with _expression_errors_exit():
        records = [_invariants_record(structure, pt, cfg.orientation) for pt in points]
    click.echo(_dump_json({"metadata": _metadata(cfg), "points": records}), nl=False)
    sys.exit(EXIT_OK)


# the invariants of an ``invariants`` record, in order
_RECORD_INVARIANTS = (
    "rho", "mu", "phi", "sigma", "tau", "ell", "Y", "U", "W", "L", "grad_rho", "dsigma_U",
    "dsigma_Y", "hess_rho_UU", "hess_rho_YY", "dY_UU", "dU_YY", "dL_UU", "dL_YY", "curl_L",
    "P_UU", "P_YY", "P_UY", "m", "psi", "k",
)


def _invariants_record(structure, pt, orientation):
    try:
        inv = compute_invariants(structure, pt, orientation=orientation)
    except FlatPoint:
        return {"x": pt[0], "y": pt[1], "flat": True}
    return {
        "x": pt[0],
        "y": pt[1],
        "flat": False,
        # (1,2,c) components of the full Cotton-York tensor: rescale-invariant
        "Y_abc_12": [0.5 * inv.orientation * inv.e2u * y for y in inv.Y],
        **{name: getattr(inv, name) for name in _RECORD_INVARIANTS},
    }


@main.command()
@_common_options
def constraints(config_path, out_dir, mode, orientation, points_opt):
    """Dump the constraint polynomials P0..P3 as JSON at the configured points."""
    cfg, structure = _load_or_exit(config_path, mode, orientation, points_opt)
    points = _points_or_exit(cfg, "constraints")
    with _expression_errors_exit():
        records = [_constraints_record(structure, pt, cfg.orientation) for pt in points]
    click.echo(_dump_json({"metadata": _metadata(cfg), "points": records}), nl=False)
    sys.exit(EXIT_OK)


_CONSTRAINTS = (("P0", coeffs_P0), ("P1", coeffs_P1), ("P2", coeffs_P2), ("P3", coeffs_P3))


def _constraints_record(structure, pt, orientation):
    try:
        inv = compute_invariants(structure, pt, orientation=orientation)
    except FlatPoint:
        return {"x": pt[0], "y": pt[1], "flat": True}
    with np.errstate(over="ignore", invalid="ignore"):  # checked below: finite or marked
        coeffs = [(name, fn(inv)) for name, fn in _CONSTRAINTS]
    record = {"x": pt[0], "y": pt[1], "flat": False}
    if not all(np.isfinite(c).all() for _, c in coeffs):
        return {**record, "finite": False, "note": NOT_FINITE}
    return {**record, **{name: _trimmed(c) for name, c in coeffs}}


def _trimmed(coeffs):
    """The coefficients up to the polynomial's degree (none for the zero one)."""
    column = np.asarray(coeffs, dtype=float)[:, None]
    (degree,), _ = trimmed_degrees(column)
    return column[: degree + 1, 0]


@main.command()
@_common_options
@click.option("--omega", required=True, help="log rescaling factor expression")
def rescale(config_path, out_dir, mode, orientation, points_opt, omega):
    """Dump the conformally rescaled structure and its invariants."""
    cfg, structure = _load_or_exit(config_path, mode, orientation, points_opt)
    with _expression_errors_exit():
        omega_expr = parse(omega)
        rescaled = structure.rescaled(omega_expr)
        records = [_invariants_record(rescaled, pt, cfg.orientation) for pt in cfg.points or []]
    payload = {
        "metadata": _metadata(cfg),
        "omega": to_source(omega_expr),
        "structure": {
            "u": to_source(rescaled.u),
            "P11": to_source(rescaled.p11),
            "P12": to_source(rescaled.p12),
            "P22": to_source(rescaled.p22),
        },
        "points": records,
    }
    click.echo(_dump_json(payload), nl=False)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
