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

    [tolerances]
    jet_order = 6
    tol_root = 1e-7
    tol_res_low = 1e-12
    tol_res_high = 1e-5
    tol_residual = 1e-6

    [options]
    mode = real
    orientation = +1

Exit codes: 0 success, 1 verification failure (``verify`` only),
2 config error, 3 expression error (one that does not parse, or that fails
at a point: ``ln`` or ``sqrt`` of a nonpositive value, a zero divisor).
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
from pathlib import Path

import click
import numpy as np

from .analyzer import (
    RegionSpec,
    Settings,
    SolutionCandidate,
    classify_points,
    region_report,
    summarize,
    verify_candidates,
)
from .constraints import assemble_P0, assemble_P1, assemble_P2, assemble_P3
from .expr import ExprError, parse, to_source
from .geometry import MoebiusStructure
from .invariants import FlatPoint, compute_invariants
from .jets import JetError

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
    settings: Settings


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


def load_config(path):
    """Parse a run config; raises :class:`ConfigError` on structural problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    if "structure" not in parser:
        raise ConfigError("missing [structure] section")
    st = parser["structure"]
    structure_exprs = {}
    for key in ("u", "P11", "P12", "P22"):
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

    kwargs = {}
    if "tolerances" in parser:
        tl = parser["tolerances"]
        for key, cast in (
            ("tol_root", float),
            ("tol_res_low", float),
            ("tol_res_high", float),
            ("tol_residual", float),
            ("tol_flat", float),
            ("jet_order", int),
        ):
            if key in tl:
                try:
                    kwargs[key] = cast(_unquote(tl[key]))
                except ValueError as err:
                    raise ConfigError(f"bad tolerance {key!r}: {err}") from err
    if "options" in parser:
        op = parser["options"]
        if "mode" in op:
            kwargs["mode"] = _unquote(op["mode"])
        if "orientation" in op:
            raw = _unquote(op["orientation"]).replace("+", "")
            try:
                kwargs["orientation"] = int(raw)
            except ValueError as err:
                raise ConfigError(f"bad orientation: {err}") from err
    try:
        settings = Settings(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return RunConfig(structure_exprs, region, points, settings)


def _fmt(value):
    """Round-trip-exact decimal rendering of one number."""
    if isinstance(value, complex):
        return f"{_fmt(value.real)}{'+' if value.imag >= 0 else '-'}{_fmt(abs(value.imag))}j"
    if value is None:
        return ""
    f = float(value)
    if math.isnan(f):
        return "nan"
    return repr(f)


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return None if math.isnan(f) else f
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _dump_json(data):
    return json.dumps(_jsonable(data), indent=2, sort_keys=False) + "\n"


@contextmanager
def _expression_errors_exit():
    """Exit 3 on an expression that does not parse, or that fails where it is
    evaluated at a point; the message gives the source offset (and the point)."""
    try:
        yield
    except (ExprError, JetError) as err:
        click.echo(f"expression error: {err}", err=True)
        sys.exit(EXIT_EXPR)


def _load_or_exit(config_path):
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
    return cfg, structure


def _metadata(cfg):
    return {
        "tool": "sfmew",
        "version": _VERSION,
        "mode": cfg.settings.mode,
        "orientation": cfg.settings.orientation,
        "jet_order": cfg.settings.jet_order,
    }


def _verdict_record(x, y, verdict):
    rec = {
        "x": x,
        "y": y,
        "verdict": verdict.tag.value,
        "note": verdict.note,
        "f_candidates": [_jsonable(f) for f in verdict.f_candidates],
        "residual": min((r.max_residual for r in verdict.residuals), default=None),
        "m_norm": verdict.m_norm,
    }
    for r in verdict.resultants:
        rec[r.pair] = r.normalized
        rec[r.pair + "_value"] = r.value
        rec[r.pair + "_gap"] = r.gap
    return rec


def _csv_rows(nodes):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "verdict", "res12", "res13", "res23", "F_candidates", "residual"])
    for n in nodes:
        v = n.verdict
        res = {r.pair: r.normalized for r in v.resultants}
        writer.writerow(
            [
                _fmt(n.x),
                _fmt(n.y),
                v.tag.value,
                _fmt(res.get("res12")) if "res12" in res else "",
                _fmt(res.get("res13")) if "res13" in res else "",
                _fmt(res.get("res23")) if "res23" in res else "",
                ";".join(_fmt(f) for f in v.f_candidates),
                _fmt(min((r.max_residual for r in v.residuals), default=None))
                if v.residuals
                else "",
            ]
        )
    return buf.getvalue()


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, help="run config path")(fn)
    fn = click.option("--out", "out_dir", default=".", help="output directory")(fn)
    fn = click.option("--mode", type=click.Choice(["real", "complex"]), default=None)(fn)
    fn = click.option("--orientation", type=click.Choice(["+1", "-1"]), default=None)(fn)
    fn = click.option("--jet-order", type=int, default=None)(fn)
    fn = click.option("--points", "points_opt", default=None, help='extra points "x,y;x,y"')(fn)
    return fn


def _apply_overrides(cfg, mode, orientation, jet_order, points_opt):
    if mode:
        cfg.settings.mode = mode
    if orientation:
        cfg.settings.orientation = int(orientation.replace("+", ""))
    if jet_order:
        cfg.settings.jet_order = jet_order
        try:
            cfg.settings.__post_init__()
        except ValueError as err:
            click.echo(f"config error: {err}", err=True)
            sys.exit(EXIT_CONFIG)
    if points_opt:
        try:
            cfg.points = _parse_points(points_opt)
        except ConfigError as err:
            click.echo(f"config error: {err}", err=True)
            sys.exit(EXIT_CONFIG)
    return cfg


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
def analyze(config_path, out_dir, mode, orientation, jet_order, points_opt):
    """Classify a region grid and/or explicit points; write report.json + grid.csv."""
    cfg, structure = _load_or_exit(config_path)
    cfg = _apply_overrides(cfg, mode, orientation, jet_order, points_opt)
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
        all_verdicts = classify_points(structure, grid + cfg.points, cfg.settings)

    if cfg.region is not None:
        grid_report = region_report(cfg.region, all_verdicts[: len(grid)])
        report["region"] = {
            "xmin": cfg.region.xmin,
            "xmax": cfg.region.xmax,
            "ymin": cfg.region.ymin,
            "ymax": cfg.region.ymax,
            "nx": cfg.region.nx,
            "ny": cfg.region.ny,
        }
        report["grid"] = [_verdict_record(n.x, n.y, n.verdict) for n in grid_report.nodes]
        report["histogram"] = grid_report.histogram
        report["flags"] = grid_report.flags
        (out / "grid.csv").write_text(_csv_rows(grid_report.nodes))

    if cfg.points:
        report["points"] = [
            _verdict_record(x, y, v) for (x, y), v in zip(cfg.points, all_verdicts[len(grid) :])
        ]

    report["summary"] = summarize(all_verdicts)
    (out / "report.json").write_text(_dump_json(report))
    click.echo(report["summary"])
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
def verify(config_path, out_dir, mode, orientation, jet_order, points_opt, alpha_exprs):
    """Verify a closed-form candidate; exit 0 when all residuals pass."""
    cfg, structure = _load_or_exit(config_path)
    cfg = _apply_overrides(cfg, mode, orientation, jet_order, points_opt)
    run_mode = cfg.settings.mode
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
        reports = verify_candidates(structure, candidate, points, run_mode, cfg.settings)
    records = []
    worst = 0.0
    for pt, rep in zip(points, reports):
        worst = max(worst, rep.max_residual)
        records.append(
            {
                "x": pt[0],
                "y": pt[1],
                "F": rep.f,
                "res_alpha_U": rep.res_alpha_U,
                "res_alpha_W": rep.res_alpha_W,
                "res_tensor": rep.res_tensor,
                "res_trace": rep.res_trace,
                "f_gradient_mismatch": rep.f_gradient_mismatch,
                "max_residual": rep.max_residual,
                "passed": rep.passed,
            }
        )
    payload = {
        "metadata": _metadata(cfg),
        "alpha": [to_source(e) for e in exprs],
        "tol_residual": cfg.settings.tol_residual,
        "max_residual": worst,
        "passed": worst < cfg.settings.tol_residual,
        "points": records,
    }
    text = _dump_json(payload)
    click.echo(text, nl=False)
    if out_dir != ".":
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "residuals.json").write_text(text)
    sys.exit(EXIT_OK if worst < cfg.settings.tol_residual else EXIT_RESIDUAL)


@main.command()
@_common_options
def invariants(config_path, out_dir, mode, orientation, jet_order, points_opt):
    """Dump point invariants as JSON at the configured points."""
    cfg, structure = _load_or_exit(config_path)
    cfg = _apply_overrides(cfg, mode, orientation, jet_order, points_opt)
    points = _points_or_exit(cfg, "invariants")
    with _expression_errors_exit():
        records = [_invariants_record(structure, pt, cfg.settings) for pt in points]
    click.echo(_dump_json({"metadata": _metadata(cfg), "points": records}), nl=False)
    sys.exit(EXIT_OK)


def _invariants_record(structure, pt, settings):
    try:
        inv = compute_invariants(
            structure, pt, settings.jet_order, settings.orientation, settings.tol_flat
        )
    except FlatPoint:
        return {"x": pt[0], "y": pt[1], "flat": True}
    return {
        "x": pt[0],
        "y": pt[1],
        "flat": False,
        # (1,2,c) components of the full Cotton-York tensor: rescale-invariant
        "Y_abc_12": [0.5 * inv.orientation * inv.e2u * y for y in inv.Y],
        "rho": inv.rho,
        "mu": inv.mu,
        "phi": inv.phi,
        "sigma": inv.sigma,
        "tau": inv.tau,
        "ell": inv.ell,
        "Y": inv.Y,
        "U": inv.U,
        "W": inv.W,
        "L": inv.L,
        "grad_rho": inv.grad_rho,
        "dsigma_U": inv.dsigma_U,
        "dsigma_Y": inv.dsigma_Y,
        "hess_rho_UU": inv.hess_rho_UU,
        "hess_rho_YY": inv.hess_rho_YY,
        "dY_UU": inv.dY_UU,
        "dU_YY": inv.dU_YY,
        "dL_UU": inv.dL_UU,
        "dL_YY": inv.dL_YY,
        "curl_L": inv.curl_L,
        "P_UU": inv.P_UU,
        "P_YY": inv.P_YY,
        "P_UY": inv.P_UY,
        "m": inv.m,
        "psi": inv.psi,
        "k": inv.k,
    }


@main.command()
@_common_options
def constraints(config_path, out_dir, mode, orientation, jet_order, points_opt):
    """Dump the constraint polynomials P0..P3 as JSON at the configured points."""
    cfg, structure = _load_or_exit(config_path)
    cfg = _apply_overrides(cfg, mode, orientation, jet_order, points_opt)
    points = _points_or_exit(cfg, "constraints")
    records = []
    with _expression_errors_exit():
        for pt in points:
            try:
                inv = compute_invariants(
                    structure, pt, cfg.settings.jet_order, cfg.settings.orientation,
                    cfg.settings.tol_flat,
                )
            except FlatPoint:
                records.append({"x": pt[0], "y": pt[1], "flat": True})
                continue
            records.append(
                {
                    "x": pt[0],
                    "y": pt[1],
                    "flat": False,
                    "P0": assemble_P0(inv).coeffs,
                    "P1": assemble_P1(inv).coeffs,
                    "P2": assemble_P2(inv).coeffs,
                    "P3": assemble_P3(inv).coeffs,
                }
            )
    click.echo(_dump_json({"metadata": _metadata(cfg), "points": records}), nl=False)
    sys.exit(EXIT_OK)


@main.command()
@_common_options
@click.option("--omega", required=True, help="log rescaling factor expression")
def rescale(config_path, out_dir, mode, orientation, jet_order, points_opt, omega):
    """Dump the conformally rescaled structure and its invariants."""
    cfg, structure = _load_or_exit(config_path)
    cfg = _apply_overrides(cfg, mode, orientation, jet_order, points_opt)
    with _expression_errors_exit():
        omega_expr = parse(omega)
        rescaled = structure.rescaled(omega_expr)
        records = [_invariants_record(rescaled, pt, cfg.settings) for pt in cfg.points or []]
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
