#!/usr/bin/env python3
"""Check that this tree's program writes the same outputs as another tree's.

    python tools/same_outputs.py PARENT_SRC

Runs ``sfmew analyze`` and ``sfmew verify`` on every member of the three
families of ``perfbench/families.py`` at seeds 7 and 131: ``analyze`` on the
21x21 grid over [-2, 2]^2 plus the near-flat points and the far field (24
points each on the circles r = 20 and r = 30), in real mode, and
``verify`` on the same points, with the family's closed-form candidate
alpha = d omega + i (y, -x) in complex mode on the opposite family and
alpha = d omega + (y, -x) in real mode on the other two, and again with a
wrong candidate, 1.5 (y, -x) without d omega (1.5 i (y, -x) on the
opposite family), whose residuals are nonzero and fail.  ``invariants``,
``constraints`` and ``rescale`` (with omega = 0.1 x - 0.05 y^2) run in
real mode on the near-flat points plus every 55th grid node, nine nodes
from corner to corner.  On the first rescaled member of each family at
seed 7, ``analyze`` runs once more with a config that sets
``orientation = -1``, and ``analyze`` and ``verify`` run with ``--mode``
and ``--orientation -1`` overriding the config (``verify``'s config names
the other mode), and ``invariants`` and ``constraints`` run on the grid,
the near-flat points and the far field, 495 points in one batch.  No
family batch mixes the signs of sigma, so the mixed structure (``MIXED``)
runs too: ``analyze`` on the grid plus the near-flat points, and
``invariants`` and ``constraints`` on the near-flat points, the every-55th
grid nodes and one node of each kind (sigma = 0 exactly, sigma < 0,
sigma > 0).  The generic structure (``GENERIC``), whose
constraints share a real root at isolated points only, runs ``analyze`` on
the grid plus those points and their neighbours 1e-3 away along each axis:
a node with a common-root witness next to nodes whose verdicts read their
Sylvester gaps.  Five calls carry values beyond the float range into their
records: ``analyze`` on the base spiral structure with P scaled by 1e150
(``HUGE_SPIRAL``) at ``HUGE_POINTS``, whose invariants or constraint
coefficients are not all finite, with null residuals and m_norm (and
``invariants``, ``constraints`` and ``rescale`` at the same points, whose
records carry Infinity, null, ``"finite": false`` and ``"flat": true``); and
``verify --mode complex`` on the base opposite structure with the candidate
``HUGE_CANDIDATE``, whose residuals are null where they are NaN (exit 1).
Two structures take the products of polynomial subtrees that ``eval_jet``
sums sparsely: ``TREES``, whose expressions mix polynomial and
non-polynomial subtrees, runs ``analyze`` on the grid plus the near-flat
points and ``verify`` of ``TREES_CANDIDATE`` on the same points; and
``HUGE_POLYNOMIAL``, a polynomial structure with the coefficient 1e300,
runs ``analyze`` on the grid plus ``HUGE_POINTS`` and ``verify`` of
``INF_CANDIDATE``, one of whose factors has an infinite coefficient.
The calls run
once with this tree's ``src`` and once with ``PARENT_SRC`` (the ``src``
directory of another checkout), each in a fresh interpreter, and every
file they write (``report.json``, ``grid.csv``, ``residuals.json``) is
compared byte for byte, as are each call's exit code and console output.

No file holds a reconstructed candidate's alpha, so each interpreter also
pickles the ``classify_points`` verdicts of the same structures in memory:
every member on the grid, the near-flat points and the far field (both
orientations on the member of the overriding calls), the mixed structure
on the grid, the near-flat points and ``MIXED_NODES``, the generic one
on the grid and ``GENERIC_POINTS``, and ``TREES`` and ``HUGE_POLYNOMIAL`` on
the points of their ``analyze`` calls.  Their verdicts are compared field by
field, every float by its bits: candidates with their alpha, resultant
reports and residual reports included.
Exits 0 when everything is equal, and 1 naming every file that differs and
the first verdict that differs.
Reads ``perfbench/families.py`` and writes nothing under ``perfbench/``.
"""

import argparse
import contextlib
import dataclasses
import enum
import filecmp
import io
import math
import os
import pickle
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 131)
FAMILIES = ("spiral", "quadratic", "opposite")
GRID = 21
DUMP_STRIDE = 55  # grid nodes of the invariants, constraints and rescale calls
OMEGA = "0.1*x - 0.05*y*y"  # the log rescaling factor of the rescale calls
# the calls that set or override the orientation and the mode run on this member
# (seed, index) of each family
OVERRIDDEN = (7, 1)
# the far field, where the rescaled members' invariants approach the float range
FAR_FIELD = [(r * math.cos(2.0 * math.pi * k / 24), r * math.sin(2.0 * math.pi * k / 24))
             for r in (20.0, 30.0) for k in range(24)]
# u, P11, P12, P22 of a structure whose batches take every branch of the invariant
# chain: flat at the origin, sigma = 0 exactly on the axis x = 0 and sigma of
# either sign elsewhere, so that the degenerate branch runs on a column subset
MIXED = ("0", "x*y + 0.3*x*x*x", "(y*y - x*x)/2", "-(x*y + 0.3*x*x*x)")
MIXED_NODES = [(0.0, 1.0), (1.0, 0.5), (-1.0, 0.5), (-1.2, -0.3)]  # sigma = 0, < 0, > 0, > 0
# a trace-free structure, flat at the origin, whose P1..P3 share a real root F only at
# isolated points: these four (F = 1.9687, 2.0267, 1.9983, 1.8125, from a Newton search
# on (x, y, F)) and their mirrors (x, -y), with -F
GENERIC = ("0", "(x*x - y*y)/2 + 0.05*x*x*x", "x*y + 0.05*y*y*y",
           "-((x*x - y*y)/2 + 0.05*x*x*x)")
GENERIC_ROOTS = [(-0.7969681981762106, 0.5387902638833664),
                 (0.8423075800757412, -0.592865481011178),
                 (2.2740656893155706, 0.23517643418789247),
                 (2.1417792027825815, -0.16884962436470247)]
GENERIC_POINTS = [
    q for x, y in GENERIC_ROOTS for p in ((x, y), (x, -y)) for q in
    (p, (p[0] + 1e-3, p[1]), (p[0] - 1e-3, p[1]), (p[0], p[1] + 1e-3), (p[0], p[1] - 1e-3))
]

# the base spiral structure with P scaled by 1e150, and points where its invariants
# (1,0 and 0.5,0.5) or its constraint coefficients (1e-160,0) leave the float range,
# and its flat origin
HUGE_SPIRAL = ("0", "1e150*x*y", "1e150*(y*y - x*x)/2", "-1e150*x*y")
HUGE_POINTS = [(1.0, 0.0), (0.5, 0.5), (1e-160, 0.0), (0.0, 0.0)]
# the base opposite structure, and a complex candidate whose residuals overflow
OPPOSITE = ("0", "(y*y - x*x)/2", "-(x*y)", "(x*x - y*y)/2")
HUGE_CANDIDATE = ("1e200*y", "1e200*x", "y", "-x")
# a trace-free structure whose expressions mix polynomial and non-polynomial
# subtrees, and a real candidate of the same kind
TREES = ("0", "exp(0.1*x)*x*y", "x*x/(1 + y*y)", "-(exp(0.1*x)*x*y)")
TREES_CANDIDATE = ("exp(0.1*x)*x*y + y", "x*x/(1 + y*y) - x")
# a trace-free polynomial structure with one coefficient near the float's largest,
# and a candidate whose constant factor 1e300*1e300 is inf
HUGE_POLYNOMIAL = ("0", "1e300*x*x + x*y", "(y*y - x*x)/2", "-(1e300*x*x + x*y)")
INF_CANDIDATE = ("1e300*1e300*x*y", "x*y*y")


def config_text(sources, grid, points, mode, orientation=None):
    u, p11, p12, p22 = sources
    lines = ["[structure]", f'u = "{u}"', f'P11 = "{p11}"', f'P12 = "{p12}"', f'P22 = "{p22}"']
    if grid:
        lines += ["[region]", "xmin = -2.0", "xmax = 2.0", "ymin = -2.0", "ymax = 2.0",
                  f"nx = {grid}", f"ny = {grid}"]
    lines += ["[points]", 'points = "' + "; ".join(f"{x!r},{y!r}" for x, y in points) + '"']
    lines += ["[options]", f"mode = {mode}"]
    if orientation:
        lines.append(f"orientation = {orientation}")
    return "\n".join(lines) + "\n"


def calls(fam, out):
    """Write the configs; the CLI arguments of every call, with its output directory."""
    for seed in SEEDS:
        for family in FAMILIES:
            for member in fam.members(family, seed):
                base = out / str(seed) / member.name
                base.mkdir(parents=True)
                sources = member.structure_sources()
                (base / "analyze.cfg").write_text(
                    config_text(sources, GRID, list(fam.NEAR_FLAT) + FAR_FIELD, "real"))
                yield base / "analyze", ["analyze", "--config", str(base / "analyze.cfg")]
                points = fam.grid_nodes(GRID) + list(fam.NEAR_FLAT)
                wx, wy, *_ = fam.verify_alpha_sources(member)
                if family == "opposite":
                    mode, alpha = "complex", fam.verify_alpha_sources(member)
                else:
                    mode, alpha = "real", (f"y + {wx}", f"-x + {wy}")
                wrong = ("1.5*y", "-1.5*x") if mode == "real" else ("0", "0", "1.5*y", "-1.5*x")
                (base / "verify.cfg").write_text(config_text(sources, 0, points, mode))
                for name, candidate in (("verify", alpha), ("verify-wrong", wrong)):
                    yield base / name, ["verify", "--config", str(base / "verify.cfg")] + [
                        f"--alpha={a}" for a in candidate]
                if (seed, member.index) == OVERRIDDEN:
                    alpha_args = [f"--alpha={a}" for a in alpha]
                    other = "real" if mode == "complex" else "complex"
                    (base / "analyze-flipped.cfg").write_text(config_text(
                        sources, GRID, list(fam.NEAR_FLAT) + FAR_FIELD, "real", "-1"))
                    (base / "verify-other.cfg").write_text(config_text(sources, 0, points, other))
                    yield base / "analyze-flipped", [
                        "analyze", "--config", str(base / "analyze-flipped.cfg")]
                    yield base / "verify-overrides", [
                        "verify", "--config", str(base / "verify-other.cfg"), f"--mode={mode}",
                        "--orientation=-1"] + alpha_args
                    yield base / "analyze-overrides", [
                        "analyze", "--config", str(base / "analyze.cfg"), "--mode=complex",
                        "--orientation=-1"]
                    # one full-width batch of dumps
                    wide = fam.grid_nodes(GRID) + list(fam.NEAR_FLAT) + FAR_FIELD
                    (base / "dump-wide.cfg").write_text(config_text(sources, 0, wide, "real"))
                    for command in ("invariants", "constraints"):
                        yield base / f"{command}-wide", [
                            command, "--config", str(base / "dump-wide.cfg")]
                points = list(fam.NEAR_FLAT) + fam.grid_nodes(GRID)[::DUMP_STRIDE]
                (base / "dump.cfg").write_text(config_text(sources, 0, points, "real"))
                for command in ("invariants", "constraints"):
                    yield base / command, [command, "--config", str(base / "dump.cfg")]
                yield base / "rescale", ["rescale", "--config", str(base / "dump.cfg"),
                                         f"--omega={OMEGA}"]
    base = out / "mixed"
    base.mkdir(parents=True)
    (base / "analyze.cfg").write_text(config_text(MIXED, GRID, list(fam.NEAR_FLAT), "real"))
    yield base / "analyze", ["analyze", "--config", str(base / "analyze.cfg")]
    points = list(fam.NEAR_FLAT) + fam.grid_nodes(GRID)[::DUMP_STRIDE] + MIXED_NODES
    (base / "dump.cfg").write_text(config_text(MIXED, 0, points, "real"))
    for command in ("invariants", "constraints"):
        yield base / command, [command, "--config", str(base / "dump.cfg")]
    base = out / "generic"
    base.mkdir(parents=True)
    (base / "analyze.cfg").write_text(config_text(GENERIC, GRID, GENERIC_POINTS, "real"))
    yield base / "analyze", ["analyze", "--config", str(base / "analyze.cfg")]
    base = out / "non-finite"
    base.mkdir(parents=True)
    (base / "analyze.cfg").write_text(config_text(HUGE_SPIRAL, 0, HUGE_POINTS, "real"))
    yield base / "analyze", ["analyze", "--config", str(base / "analyze.cfg")]
    for command in ("invariants", "constraints"):
        yield base / command, [command, "--config", str(base / "analyze.cfg")]
    yield base / "rescale", ["rescale", "--config", str(base / "analyze.cfg"), f"--omega={OMEGA}"]
    (base / "verify.cfg").write_text(config_text(OPPOSITE, 0, HUGE_POINTS, "real"))
    yield base / "verify", ["verify", "--config", str(base / "verify.cfg"), "--mode=complex"] + [
        f"--alpha={a}" for a in HUGE_CANDIDATE]
    for name, sources, points, candidate in (
        ("trees", TREES, list(fam.NEAR_FLAT), TREES_CANDIDATE),
        ("huge-polynomial", HUGE_POLYNOMIAL, HUGE_POINTS, INF_CANDIDATE),
    ):
        base = out / name
        base.mkdir(parents=True)
        (base / "analyze.cfg").write_text(config_text(sources, GRID, points, "real"))
        yield base / "analyze", ["analyze", "--config", str(base / "analyze.cfg")]
        (base / "verify.cfg").write_text(
            config_text(sources, 0, fam.grid_nodes(GRID) + points, "real"))
        yield base / "verify", ["verify", "--config", str(base / "verify.cfg")] + [
            f"--alpha={a}" for a in candidate]


def scans(fam):
    """The label, structure sources, points and orientation of every
    ``classify_points`` call whose verdicts are compared in memory."""
    for seed in SEEDS:
        for family in FAMILIES:
            for member in fam.members(family, seed):
                points = fam.grid_nodes(GRID) + list(fam.NEAR_FLAT) + FAR_FIELD
                for orientation in (1, -1) if (seed, member.index) == OVERRIDDEN else (1,):
                    yield (f"{seed}/{member.name} orientation {orientation}",
                           member.structure_sources(), points, orientation)
    yield "mixed", MIXED, fam.grid_nodes(GRID) + list(fam.NEAR_FLAT) + MIXED_NODES, 1
    yield "generic", GENERIC, fam.grid_nodes(GRID) + GENERIC_POINTS, 1
    yield "trees", TREES, fam.grid_nodes(GRID) + list(fam.NEAR_FLAT), 1
    yield "huge-polynomial", HUGE_POLYNOMIAL, fam.grid_nodes(GRID) + HUGE_POINTS, 1


def canon(obj):
    """A picklable form of a verdict made of plain values, field by field, each
    float as its bits (so NaN signs and -0.0 count)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if hasattr(obj, "_fields"):  # a named tuple
        return {name: canon(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, enum.Enum):
        return obj.value
    if hasattr(obj, "dtype"):  # a numpy array or scalar
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, dict):
        return {k: canon(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, complex):
        return struct.pack("<dd", obj.real, obj.imag)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def scan_verdicts(fam):
    """(label, point, canonical verdict) of every point of every scan."""
    from sfmew.analyzer import classify_points
    from sfmew.geometry import MoebiusStructure

    return [
        (label, point, canon(verdict))
        for label, sources, points, orientation in scans(fam)
        for point, verdict in zip(points, classify_points(
            MoebiusStructure.from_strings(*sources), points, orientation))
    ]


def first_difference(a, b, path=""):
    """The path of the first field where two canonical forms differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return next((d for k in a if (d := first_difference(a[k], b[k], f"{path}.{k}"))), None)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return next((d for i, (x, y) in enumerate(zip(a, b))
                     if (d := first_difference(x, y, f"{path}[{i}]"))), None)
    return None if a == b else path or "."


def verdict_difference(mine, theirs):
    """A line naming the first verdict that differs, and its first field, or None."""
    if len(mine) != len(theirs):
        return f"{len(mine)} verdicts against {len(theirs)}"
    for (label, point, a), (_, _, b) in zip(mine, theirs):
        if (field := first_difference(a, b)) is not None:
            return f"{label} at {point}: verdict{field}"
    return None


def run_all(src, out):
    """Every call in this interpreter, with the program imported from ``src``;
    the verdicts of the in-memory check are pickled to ``out``.pickle."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import families as fam
    from sfmew.cli import main

    for out_dir, args in calls(fam, out):
        console = io.StringIO()
        with contextlib.redirect_stdout(console):
            try:
                main.main(args=args + ["--out", str(out_dir)], standalone_mode=False)
                code = 0
            except SystemExit as done:
                code = done.code
        out_dir.mkdir(parents=True, exist_ok=True)  # the console commands write none
        (out_dir / "console.txt").write_text(f"exit {code}\n{console.getvalue()}")
    out.with_suffix(".pickle").write_bytes(pickle.dumps(scan_verdicts(fam)))


def differences(a, b):
    """The files (relative paths) that differ or exist on one side only."""
    files = lambda root: sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    mine, theirs = files(a), files(b)
    return [
        rel for rel in sorted(set(mine) | set(theirs))
        if rel not in mine or rel not in theirs
        or not filecmp.cmp(a / rel, b / rel, shallow=False)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--run", type=Path, metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run is not None:  # one side, in its own interpreter
        run_all(args.parent_src, args.run)
        return 0
    if not (args.parent_src / "sfmew" / "__init__.py").is_file():
        parser.error(f"no sfmew sources under {args.parent_src}")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for name, src in (("this", ROOT / "src"), ("parent", args.parent_src.resolve())):
            out = Path(tmp) / name
            subprocess.run([sys.executable, __file__, str(src), "--run", str(out)],
                           env=env, check=True)
            outs.append(out)
        diffs = differences(*outs)
        verdicts = verdict_difference(
            *(pickle.loads(out.with_suffix(".pickle").read_bytes()) for out in outs))
    if diffs:
        print("outputs differ:", *diffs, sep="\n  ")
    else:
        print("outputs are byte-identical")
    if verdicts:
        print("verdicts differ, first at", verdicts)
    else:
        print("verdicts are identical, field by field")
    return 1 if diffs or verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
