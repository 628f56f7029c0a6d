import csv
import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sfmew.analyzer import (
    _GAP_ORDER,
    _TOL_RES_HIGH,
    _TOL_RES_LOW,
    RESULTANT_PAIRS,
    TAGS,
    ResidualColumns,
    ResidualReport,
    Verdict,
    VerdictColumns,
    VerdictTag,
    classify_points,
)
from sfmew.cli import (
    _CONFIG_KEYS,
    _dump_json,
    _Records,
    _grid_csv,
    _node_records,
    _residual_records,
    main,
)
from sfmew.geometry import MoebiusStructure
from sfmew.polyalg import CommonRoots, ResultantReport, RootSet

SPIRAL = """
[structure]
u = "0"
P11 = "x*y"
P12 = "(y*y - x*x)/2"
P22 = "-(x*y)"
"""

QUADRATIC = """
[structure]
u = "0"
P11 = "(x*x - y*y)/2"
P12 = "x*y"
P22 = "(y*y - x*x)/2"
"""

OPPOSITE = """
[structure]
u = "0"
P11 = "(y*y - x*x)/2"
P12 = "-(x*y)"
P22 = "(x*x - y*y)/2"
"""

REGION = """
[region]
xmin = -2.0
xmax = 2.0
ymin = -2.0
ymax = 2.0
nx = 7
ny = 7
"""

POINTS = """
[points]
points = "1,0; 0.5,0.8"
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_spiral_summary(runner, tmp_path):
    cfg = write(tmp_path, "s.cfg", SPIRAL + REGION)
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "OBSTRUCTED" in result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"] == "OBSTRUCTED"
    assert report["histogram"]["Obstructed"] >= 44
    assert (tmp_path / "grid.csv").exists()


def test_analyze_quadratic_summary(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + REGION.replace("7", "5"))
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"] == "ADMITS (F = ±2)"


def test_analyze_csv_json_verdicts_agree(runner, tmp_path):
    cfg = write(tmp_path, "s.cfg", SPIRAL + REGION)
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report["grid"])
    for row, rec in zip(rows, report["grid"]):
        assert float(row["x"]) == rec["x"]
        assert float(row["y"]) == rec["y"]
        assert row["verdict"] == rec["verdict"]


def test_analyze_byte_stable(runner, tmp_path):
    cfg = write(tmp_path, "s.cfg", SPIRAL + POINTS)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path / sub)])
        assert result.exit_code == 0
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()


def test_analyze_config_and_expression_errors(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "--config", str(tmp_path / "missing.cfg")])
    assert result.exit_code == 2

    cfg = write(tmp_path, "bad.cfg", '[structure]\nu = "0"\nP11 = "x+*y"\nP12 = "0"\nP22 = "0"\n' + POINTS)
    result = runner.invoke(main, ["analyze", "--config", cfg])
    assert result.exit_code == 3
    assert "offset" in result.output

    cfg2 = write(tmp_path, "nopts.cfg", SPIRAL)
    result = runner.invoke(main, ["analyze", "--config", cfg2])
    assert result.exit_code == 2


def test_verify_quadratic_solution(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    result = runner.invoke(main, ["verify", "--config", cfg, "--alpha", "y", "--alpha", "-x"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert payload["max_residual"] < 1e-9


def test_verify_rejects_non_solution(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    result = runner.invoke(main, ["verify", "--config", cfg, "--alpha", "x", "--alpha", "y"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["passed"] is False


def test_verify_complex_mode(runner, tmp_path):
    cfg = write(tmp_path, "o.cfg", OPPOSITE + POINTS + "\n[options]\nmode = complex\n")
    result = runner.invoke(
        main,
        ["verify", "--config", cfg, "--alpha", "0", "--alpha", "0", "--alpha", "y", "--alpha", "-x"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["points"][0]["F"] == {"re": 0.0, "im": -2.0}


def _counting_constructors(monkeypatch):
    """Count every construction of the analyzer's per-node objects, by class name."""
    built = Counter()

    def counted(construct, name):
        def construct_counted(*args, **kwargs):
            built[name] += 1
            return construct(*args, **kwargs)
        return construct_counted

    for cls in (Verdict, ResidualReport, RootSet):  # dataclasses
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__, cls.__name__))
    for cls in (ResultantReport, CommonRoots):  # named tuples
        monkeypatch.setattr(cls, "__new__", staticmethod(counted(cls.__new__, cls.__name__)))
    return built


# spiral: Obstructed nodes that read gaps, and the Inconclusive near-flat (0.05, 0),
# whose spurious roots are lifted; quadratic: verified roots; opposite: complex roots
PER_NODE_CALLS = [
    (SPIRAL + REGION + '[points]\npoints = "0.05,0; 1,0"\n', ["analyze"]),
    (QUADRATIC + REGION + POINTS, ["analyze"]),
    (OPPOSITE + REGION + POINTS, ["analyze"]),
    (QUADRATIC + REGION, ["verify", "--alpha", "y", "--alpha", "-x"]),
    (OPPOSITE + REGION + "[options]\nmode = complex\n",
     ["verify", "--alpha", "0", "--alpha", "0", "--alpha", "y", "--alpha", "-x"]),
]


def test_analyze_and_verify_build_no_per_node_objects(runner, tmp_path, monkeypatch):
    # the commands decide and write every node from the analyzer's columns
    built = _counting_constructors(monkeypatch)
    for k, (config, args) in enumerate(PER_NODE_CALLS):
        cfg = write(tmp_path, f"{k}.cfg", config)
        out = tmp_path / str(k)
        result = runner.invoke(main, [args[0], "--config", cfg, "--out", str(out), *args[1:]])
        assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "0" / "report.json").read_text())
    assert report["points"][0]["verdict"] == "Inconclusive"
    assert report["points"][0]["residual"] is not None
    assert not built, built
    # the count sees the objects where they are built: the verdicts of the API
    verdicts = classify_points(MoebiusStructure.from_strings("0", "x*y", "(y*y - x*x)/2", "-(x*y)"),
                               [(0.05, 0.0), (1.0, 0.0)])
    assert built == {"Verdict": 2, "ResultantReport": 6, "ResidualReport": 2}, built
    assert [v.tag for v in verdicts] == [VerdictTag.INCONCLUSIVE, VerdictTag.OBSTRUCTED]


def test_verify_wrong_component_count(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    result = runner.invoke(main, ["verify", "--config", cfg, "--alpha", "y"])
    assert result.exit_code == 2


def test_invariants_dump(runner, tmp_path):
    cfg = write(tmp_path, "o.cfg", OPPOSITE + POINTS)
    result = runner.invoke(main, ["invariants", "--config", cfg, "--points", "1,0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    rec = payload["points"][0]
    assert rec["sigma"] / rec["rho"] == pytest.approx(8.0)
    assert rec["mu"] == pytest.approx(0.0, abs=1e-10)
    assert rec["tau"] == pytest.approx(0.0, abs=1e-8)
    assert rec["ell"] == pytest.approx(0.0, abs=1e-8)


def test_constraints_dump(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    result = runner.invoke(main, ["constraints", "--config", cfg, "--points", "1,0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["points"][0]["P0"] == pytest.approx([-128.0, 0.0, -48.0])


def test_rescale_identity(runner, tmp_path):
    cfg = write(tmp_path, "o.cfg", OPPOSITE + POINTS)
    base = runner.invoke(main, ["invariants", "--config", cfg, "--points", "1,0"])
    rescaled = runner.invoke(
        main, ["rescale", "--config", cfg, "--omega", "0", "--points", "1,0"]
    )
    assert rescaled.exit_code == 0
    inv0 = json.loads(base.output)["points"][0]
    inv1 = json.loads(rescaled.output)["points"][0]
    for key in ("rho", "sigma", "tau", "ell", "mu", "phi"):
        assert inv1[key] == pytest.approx(inv0[key], abs=1e-12)


def test_rescale_cotton_tensor_invariant(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    base = runner.invoke(main, ["invariants", "--config", cfg, "--points", "1,0"])
    rescaled = runner.invoke(
        main, ["rescale", "--config", cfg, "--omega", "0.3*x", "--points", "1,0"]
    )
    y0 = json.loads(base.output)["points"][0]["Y_abc_12"]
    y1 = json.loads(rescaled.output)["points"][0]["Y_abc_12"]
    assert y1 == pytest.approx(y0, abs=1e-8)


def test_orientation_flag(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    result = runner.invoke(
        main,
        ["verify", "--config", cfg, "--orientation", "-1", "--alpha", "y", "--alpha", "-x"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["points"][0]["F"] == pytest.approx(2.0)


# a structure whose conformal factor is defined for x >= 0 only
ROOT_U = """
[structure]
u = "0*sqrt(x)"
P11 = "(x*x - y*y)/2"
P12 = "x*y"
P22 = "(y*y - x*x)/2"
"""


@pytest.mark.parametrize(
    "config, args",
    [
        (ROOT_U, ["analyze"]),
        (QUADRATIC, ["verify", "--alpha", "sqrt(x)", "--alpha", "-x"]),
        (ROOT_U, ["verify", "--alpha", "y", "--alpha", "-x"]),
        (ROOT_U, ["invariants"]),
        (ROOT_U, ["constraints"]),
        (QUADRATIC, ["rescale", "--omega", "sqrt(x)"]),
    ],
    ids=["analyze", "verify-alpha", "verify-structure", "invariants", "constraints", "rescale"],
)
def test_domain_error_at_a_point_is_an_expression_error(runner, tmp_path, config, args):
    cfg = write(tmp_path, "c.cfg", config)
    command = [args[0], "--config", cfg, "--out", str(tmp_path / "out"), "--points", "1,0; -1,0"]
    result = runner.invoke(main, command + args[1:])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "expression error: sqrt of nonpositive value" in result.output
    assert "base point (-1.0, 0.0)" in result.output


# u fails at the second point only, P22 at the first point only
LN_SQRT = """
[structure]
u = "ln(x)"
P11 = "0"
P12 = "0"
P22 = "sqrt(y)"
"""


@pytest.mark.parametrize("args", [["analyze"], ["verify", "--alpha", "0", "--alpha", "0"]])
def test_domain_error_is_the_first_failing_points(runner, tmp_path, args):
    # evaluating u over both points first would meet the second point's ln error
    cfg = write(tmp_path, "c.cfg", LN_SQRT)
    command = [args[0], "--config", cfg, "--out", str(tmp_path / "out"), "--points", "1,-1; -1,1"]
    result = runner.invoke(main, command + args[1:])
    assert result.exit_code == 3, result.output
    assert "expression error: sqrt of nonpositive value" in result.output
    assert "base point (1.0, -1.0)" in result.output


def test_domain_error_message_prints_the_value_as_a_plain_float(runner, tmp_path):
    cfg = write(tmp_path, "c.cfg", LN_SQRT)
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path / "out"),
                                  "--points", "1,-1"])
    assert result.exit_code == 3, result.output
    assert result.output == (
        "expression error: sqrt of nonpositive value -1.0 (at offset 0, base point (1.0, -1.0))\n"
    )


# e^{2u} leaves the float range where 2 x^2 > 709.78, e.g. at x = 30
HUGE_FACTOR = """
[structure]
u = "x*x"
P11 = "0"
P12 = "0"
P22 = "0"
"""


@pytest.mark.parametrize("command", ["analyze", "invariants"])
def test_conformal_factor_beyond_the_float_range_is_an_expression_error(
    runner, tmp_path, command
):
    cfg = write(tmp_path, "c.cfg", HUGE_FACTOR)
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out"),
                                  "--points", "1,0; 30,0"])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)  # no OverflowError traceback
    assert result.output == (
        "expression error: exp of 1800.0 beyond the float range "
        "(conformal factor e^(2u), base point (30.0, 0.0))\n"
    )


def test_analyze_far_spiral_points_are_obstructed(runner, tmp_path):
    # the resultant scale leaves the float range at these points; it is inf,
    # not an OverflowError, and the Sylvester gaps decide the verdict
    cfg = write(tmp_path, "s.cfg", SPIRAL)
    for x in ("1e4", "1e5", "1e6"):
        out = tmp_path / x
        result = runner.invoke(
            main, ["analyze", "--config", cfg, "--out", str(out), "--points", f"{x},0"]
        )
        assert result.exit_code == 0, result.output
        (record,) = json.loads((out / "report.json").read_text())["points"]
        assert record["verdict"] == "Obstructed", x


def test_analyze_far_spiral_zero_resultant_is_zero(runner, tmp_path):
    # P2 and P3 share a factor: a normalized determinant of exactly 0 with an
    # inf scale, whose value was 0 * inf = NaN (null in report.json)
    cfg = write(tmp_path, "s.cfg", SPIRAL)
    result = runner.invoke(
        main, ["analyze", "--config", cfg, "--out", str(tmp_path), "--points", "1e4,0"]
    )
    assert result.exit_code == 0, result.output
    (record,) = json.loads((tmp_path / "report.json").read_text())["points"]
    assert record["res23_value"] == 0.0


def _analyze_point(runner, tmp_path, structure, point):
    """The report.json record of one point that ``sfmew analyze`` classifies."""
    cfg = write(tmp_path, "s.cfg", structure)
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path),
                                  "--points", point])
    assert result.exit_code == 0, result.output
    (record,) = json.loads((tmp_path / "report.json").read_text())["points"]
    return record


@pytest.mark.parametrize("structure, verdict", [
    (OPPOSITE, "VanishingObstructionsNoRealSolution"),
    (QUADRATIC, "AdmitsRealCandidate"),
])
def test_analyze_reads_no_gap_where_a_witness_decides(runner, tmp_path, structure, verdict):
    record = _analyze_point(runner, tmp_path, structure, "1,0")
    assert record["verdict"] == verdict
    for pair in RESULTANT_PAIRS:
        assert record[pair + "_gap"] is None
        assert record[pair + "_value"] is not None  # the resultants are still reported


@pytest.mark.parametrize("point, taken", [("1,0", 1), ("0.5,0.8", 3)])
def test_analyze_takes_gaps_up_to_the_first_that_certifies(runner, tmp_path, point, taken):
    # smallest Sylvester matrix first; the last gap taken certifies a resultant nonzero
    record = _analyze_point(runner, tmp_path, SPIRAL, point)
    assert record["verdict"] == "Obstructed"
    assert record["note"] == "at least one resultant certified nonzero"
    gaps = [record[pair + "_gap"] for pair in _GAP_ORDER]
    assert all(gap <= _TOL_RES_HIGH for gap in gaps[: taken - 1])
    assert gaps[taken - 1] > _TOL_RES_HIGH
    assert gaps[taken:] == [None] * (3 - taken)


def test_analyze_inconclusive_node_without_a_witness_carries_all_three_gaps(runner, tmp_path):
    record = _analyze_point(runner, tmp_path, SPIRAL, "0.2,0")  # fault F1
    assert record["verdict"] == "Inconclusive"
    assert record["note"] == "resultants at numerical zero without a common-root witness"
    assert all(record[pair + "_gap"] < _TOL_RES_LOW for pair in RESULTANT_PAIRS)


def test_analyze_point_with_non_finite_coefficients_is_inconclusive(runner, tmp_path):
    # the invariants' powers leave the float range in P1's coefficients: an
    # inf, not an OverflowError traceback, and no verdict from such a node
    cfg = write(tmp_path, "s.cfg", SPIRAL)
    result = runner.invoke(
        main, ["analyze", "--config", cfg, "--out", str(tmp_path), "--points", "1e30,0"]
    )
    assert result.exit_code == 0, result.output
    (record,) = json.loads((tmp_path / "report.json").read_text())["points"]
    assert record["verdict"] == "Inconclusive"
    assert record["note"] == "constraint coefficients are not all finite"


HUGE_POLYNOMIAL = """
[structure]
u = "0"
P11 = "1e300*x*x + x*y"
P12 = "(y*y - x*x)/2"
P22 = "-(1e300*x*x + x*y)"
"""


@pytest.mark.parametrize("config, points", [
    (HUGE_POLYNOMIAL + REGION, None),  # the flat origin and 48 nodes without finite invariants
    (SPIRAL, "1e30,0; 0,0"),  # the flat origin and a node without finite coefficients
], ids=["grid", "points"])
def test_analyze_summary_is_flat_only_where_every_node_is_flat(runner, tmp_path, config, points):
    # one flat node among undecided ones decides nothing
    args = ["analyze", "--config", write(tmp_path, "s.cfg", config), "--out", str(tmp_path)]
    result = runner.invoke(main, args + (["--points", points] if points else []))
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    records = report.get("grid") or report["points"]
    assert Counter(r["verdict"] for r in records).keys() == {"Flat", "Inconclusive"}
    assert report["summary"] == "INCONCLUSIVE"
    assert result.output == "INCONCLUSIVE\n"


def test_constraints_marks_a_point_with_non_finite_coefficients(runner, tmp_path):
    # as analyze calls such a point Inconclusive: no empty polynomials, no warnings
    cfg = write(tmp_path, "s.cfg", SPIRAL)
    result = runner.invoke(main, ["constraints", "--config", cfg, "--points", "1e30,0; 1,0"])
    assert result.exit_code == 0, result.output
    far, near = json.loads(result.output)["points"]
    assert far == {
        "x": 1e30, "y": 0.0, "flat": False, "finite": False,
        "note": "constraint coefficients are not all finite",
    }
    assert "finite" not in near and all(near[p] for p in ("P0", "P1", "P2", "P3"))


@pytest.mark.parametrize("point", ["nan,0", "inf,1", "0,-inf"])
def test_non_finite_point_is_a_config_error(runner, tmp_path, point):
    # from --points and from the config's [points]
    cfg = write(tmp_path, "s.cfg", SPIRAL)
    result = runner.invoke(main, ["analyze", "--config", cfg, "--points", point])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "coordinates must be finite" in result.output
    cfg = write(tmp_path, "p.cfg", SPIRAL + f'[points]\npoints = "{point}"\n')
    result = runner.invoke(main, ["analyze", "--config", cfg])
    assert result.exit_code == 2, result.output
    assert "coordinates must be finite" in result.output


@pytest.mark.parametrize("bound", ["xmin = -inf", "ymax = inf", "xmax = nan"])
def test_non_finite_region_bound_is_a_config_error(runner, tmp_path, bound):
    key = bound.split()[0]
    region = "\n".join(
        bound if line.startswith(key + " ") else line for line in REGION.splitlines()
    )
    cfg = write(tmp_path, "s.cfg", SPIRAL + region + "\n")
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error" in result.output


ONE_ROW = """
[region]
xmin = -1.0
xmax = 1.0
ymin = -1.0
ymax = 1.0
nx = 1
ny = 3
"""


def test_one_row_region_is_a_config_error_for_analyze_only(runner, tmp_path):
    cfg = write(tmp_path, "q.cfg", QUADRATIC + ONE_ROW)
    result = runner.invoke(main, ["analyze", "--config", cfg, "--out", str(tmp_path / "a")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error" in result.output and "nx = 1, ny = 3" in result.output
    # the other commands take the region's nodes as a point list
    result = runner.invoke(main, ["verify", "--config", cfg, "--alpha", "y", "--alpha", "-x"])
    assert result.exit_code == 0, result.output
    assert [(p["x"], p["y"]) for p in json.loads(result.output)["points"]] == [
        (-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0)
    ]
    for command in ("invariants", "constraints"):
        result = runner.invoke(main, [command, "--config", cfg])
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["points"]) == 3


def test_verify_region_writes_the_residuals_of_the_same_point_list(runner, tmp_path):
    region = REGION.replace("2.0", "1.0").replace("= 7", "= 3")
    cfg = write(tmp_path, "q.cfg", QUADRATIC + region)
    nodes = "; ".join(f"{x!r},{y!r}" for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0))
    outputs = []
    for extra in ([], ["--points", nodes]):
        out = tmp_path / f"out{len(extra)}"
        result = runner.invoke(
            main, ["verify", "--config", cfg, "--out", str(out), "--alpha", "y", "--alpha", "-x"]
            + extra,
        )
        assert result.exit_code == 0, result.output
        outputs.append((out / "residuals.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["points"]) == 9


_EVERY_COMMAND = (
    ["analyze"], ["verify", "--alpha", "y", "--alpha", "-x"], ["invariants"], ["constraints"],
    ["rescale", "--omega", "0.1*x"],
)


def test_jet_order_option_is_rejected(runner, tmp_path):
    """The jet order is no setting: ``--jet-order`` is an unknown option (exit 2)."""
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg, "--jet-order", "6"])
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and "--jet-order" in result.output


def test_config_that_sets_jet_order_is_a_config_error(runner, tmp_path):
    """A leftover ``[tolerances] jet_order`` is not ignored: exit 2, naming the section."""
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS + "[tolerances]\njet_order = 6\n")
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error: [tolerances] is not a config section" in result.output


def test_config_sets_the_structure_region_points_and_options():
    assert _CONFIG_KEYS == {
        "structure": ("u", "P11", "P12", "P22"),
        "region": ("xmin", "xmax", "ymin", "ymax", "nx", "ny"),
        "points": ("points",),
        "options": ("mode", "orientation"),
    }


@pytest.mark.parametrize("extra, named", [
    ("[options]\norientaton = -1\n", "'orientaton' in [options]"),  # a typo
    ("[options]\ntol_residual = 1e-6\n", "'tol_residual' in [options]"),  # a field no loader reads
    ("[options]\nfoo = bar\n", "'foo' in [options]"),
    (REGION + "nz = 7\n", "'nz' in [region]"),
    ("[output]\ndir = out\n", "[output] is not a config section"),
    ("[DEFAULT]\ntol_root = 1e-6\n", "[DEFAULT] is not a config section"),
], ids=["typo", "unread-field", "options", "region", "section", "default-section"])
def test_config_keys_that_are_not_read_are_config_errors(runner, tmp_path, extra, named):
    """A key or section that no loader reads is not silently dropped: exit 2, naming it."""
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS + extra)
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (args, result.output)
        assert f"config error: {named}" in result.output


def test_mode_must_be_real_or_complex(runner, tmp_path):
    """A bad ``[options] mode`` is a config error for every command (exit 2), naming it."""
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS + "[options]\nmode = quantum\n")
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (args, result.output)
        assert "config error: mode must be 'real' or 'complex', not 'quantum'" in result.output


@pytest.mark.parametrize("text", [
    QUADRATIC + POINTS + POINTS,  # a duplicate section
    QUADRATIC + "u = \"1\"\n",  # a duplicate key
    "u = \"0\"\n" + QUADRATIC,  # a key outside any section
], ids=["duplicate-section", "duplicate-key", "no-section"])
def test_config_that_does_not_parse_is_a_config_error(runner, tmp_path, text):
    cfg = write(tmp_path, "q.cfg", text)
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (args, result.output)
        assert "config error: unreadable config" in result.output


@pytest.mark.parametrize("key, value", [
    ("tol_flat", "1e-10"), ("tol_root", "1e-7"), ("tol_res_low", "1e-12"),
    ("tol_res_high", "1e-5"), ("tol_residual", "1e-6"),
    ("tol_residual", "inf"),  # once made verify pass a candidate that is no solution
])
def test_tolerances_section_is_a_config_error(runner, tmp_path, key, value):
    """The numerical thresholds are constants, not config keys: a ``[tolerances]``
    section is a config error for every command (exit 2), naming the section."""
    cfg = write(tmp_path, "s.cfg", SPIRAL + POINTS + f"[tolerances]\n{key} = {value}\n")
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (args, result.output)
        assert "config error: [tolerances] is not a config section; remove it" in result.output


def test_orientation_must_be_plus_or_minus_one(runner, tmp_path):
    """A bad ``[options] orientation`` is a config error for every command (exit 2);
    a good one is read."""
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS + "[options]\norientation = 2\n")
    for args in _EVERY_COMMAND:
        result = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (args, result.output)
        assert "config error: orientation must be +1 or -1" in result.output
    cfg = write(tmp_path, "q.cfg", QUADRATIC + POINTS + "[options]\norientation = -1\n")
    result = runner.invoke(main, ["verify", "--config", cfg, "--alpha", "y", "--alpha", "-x"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["points"][0]["F"] == pytest.approx(2.0)


def test_verify_fails_where_every_residual_is_nan(runner, tmp_path):
    """A candidate beyond the float range: every residual maximum is NaN (null),
    no point passes, and neither does the run (exit 1), without numpy warnings."""
    cfg = write(tmp_path, "q.cfg", QUADRATIC + '[points]\npoints = "1,0; 0.5,-0.5; 0,0"\n')
    result = runner.invoke(
        main, ["verify", "--config", cfg, "--alpha", "1e200*1e200*x", "--alpha", "y"]
    )
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)
    assert payload["passed"] is False
    assert payload["max_residual"] is None
    for rec in payload["points"]:
        assert rec["passed"] is False
        assert rec["max_residual"] is None
        assert rec["res_tensor"] is None


# -- the report writer ----------------------------------------------------------


def _jsonable(value):
    """The deep copy that the report writer once made before ``json.dumps``,
    kept as the oracle of its output."""
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


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320])
_STRINGS = st.text() | st.sampled_from(["%s", "100%", 'a"b', "back\\slash", "é", " ", "\x00"])
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _STRINGS,
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    arrays(st.sampled_from([np.float64, np.int64, np.bool_, complex]), array_shapes(max_dims=2)),
)


def _containers(children):
    records = st.lists(_STRINGS, unique=True, max_size=4).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=4)
    )
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        records,
    )


@given(st.recursive(_LEAVES, _containers, max_leaves=30))
@settings(max_examples=300, deadline=None)
def test_report_writer_is_json_dumps_of_the_copy(value):
    assert _dump_json(value) == json.dumps(_jsonable(value), indent=2) + "\n"


# the per-node records that the writer once built, kept as the oracle of its columns


def _old_verdict_record(x, y, verdict):
    rec = {
        "x": x,
        "y": y,
        "verdict": verdict.tag.value,
        "note": verdict.note,
        "f_candidates": verdict.f_candidates,
        "residual": min((r.max_residual for r in verdict.residuals), default=None),
        "m_norm": verdict.m_norm,
    }
    for pair, rep in verdict.resultants.items():
        rec[pair], rec[pair + "_value"], rec[pair + "_gap"] = rep.normalized, rep.value, rep.gap
    return rec


def _old_csv_text(value):
    if value is None:
        return ""
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return f"{_old_csv_text(value.real)}{sign}{_old_csv_text(abs(value.imag))}j"
    return float.__repr__(float(value))


def _old_csv_row(x, y, v):
    return [
        _old_csv_text(x),
        _old_csv_text(y),
        v.tag.value,
        *(_old_csv_text(v.resultants[p].normalized) if v.resultants else "" for p in RESULTANT_PAIRS),
        ";".join([_old_csv_text(f) for f in v.f_candidates]),
        _old_csv_text(min([r.max_residual for r in v.residuals])) if v.residuals else "",
    ]


def _old_residual_record(pt, rep):
    return {
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


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_VALUES = _NON_FINITE | st.floats() | st.floats().map(np.float64)
_NOTES = st.text() | st.sampled_from(['say "no"', "back\\slash", "F = ±2", "100%s", "é\n"])
_POINTS = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2)


def _floats(draw, elements, shape):
    return np.array([draw(elements) for _ in range(math.prod(shape))], dtype=float).reshape(shape)


@st.composite
def _residual_columns(draw, n, complex_f):
    """Residual columns of ``n`` nodes, F real or complex."""
    f = _floats(draw, _VALUES, (n,))
    if complex_f:
        f = f.astype(complex)
        f.imag = _floats(draw, _VALUES, (n,))
    return ResidualColumns(
        [draw(_POINTS) for _ in range(n)], "complex" if complex_f else "real", "jets", f,
        *(_floats(draw, _VALUES, (n,)) for _ in range(6)),
        np.array([draw(st.booleans()) for _ in range(n)], dtype=bool),
    )


_NORMALIZED = st.sampled_from([0.0, -0.0, 2.5, -1e-300]) | st.floats()
_SCALES = st.sampled_from([math.inf, 1.0, 1e300]) | st.floats(0.0, allow_infinity=True)


@st.composite
def _verdict_columns(draw):
    """Verdict columns of up to 6 nodes of any tags, each with up to 3 F
    candidates and up to 2 residual reports."""
    n = draw(st.integers(0, 6))
    f_node = np.repeat(np.arange(n), [draw(st.integers(0, 3)) for _ in range(n)])
    report_node = np.repeat(np.arange(n), [draw(st.integers(0, 2)) for _ in range(n)])
    pairs = (len(RESULTANT_PAIRS), n)
    return VerdictColumns(
        points=[draw(_POINTS) for _ in range(n)],
        tag=np.array([draw(st.integers(0, len(TAGS) - 1)) for _ in range(n)], dtype=int),
        note=[draw(_NOTES) for _ in range(n)],
        m_norm=_floats(draw, _VALUES, (n,)),
        branch=np.array([draw(st.booleans()) for _ in range(n)], dtype=bool),
        resultant=np.array([draw(st.booleans()) for _ in range(n)], dtype=bool),
        normalized=_floats(draw, _NORMALIZED, pairs),
        scale=_floats(draw, _SCALES, pairs),
        gap=_floats(draw, _VALUES, pairs),
        f_node=f_node,
        f_value=_floats(draw, _VALUES, f_node.shape),
        f_alpha=_floats(draw, _VALUES, (2,) + f_node.shape),
        report_node=report_node,
        reports=draw(_residual_columns(report_node.size, False)),
    )


def _nested(value, depth):
    for _ in range(depth):
        value = {"k": value}
    return value


@given(columns=_verdict_columns(), depth=st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_node_records_are_the_per_node_records_and_csv_rows(columns, depth):
    # the records and rows of generated verdict columns are those that the old
    # per-node rule writes of their verdicts
    nodes = list(zip(columns.points, columns.verdicts()))
    records, rows = _node_records(columns)
    old = [_old_verdict_record(x, y, v) for (x, y), v in nodes]
    assert _dump_json(_nested(records(slice(None)), depth)) == (
        json.dumps(_jsonable(_nested(old, depth)), indent=2) + "\n"
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "verdict", *RESULTANT_PAIRS, "F_candidates", "residual"])
    writer.writerows([_old_csv_row(x, y, v) for (x, y), v in nodes])
    assert _grid_csv(rows(slice(None))) == buf.getvalue()
    # any slice of the nodes, as a call's grid and points take them
    cut = len(nodes) // 2
    for part in (slice(0, cut), slice(cut, None)):
        assert _dump_json(records(part)) == json.dumps(_jsonable(old[part]), indent=2) + "\n"


@given(data=st.data(), n=st.integers(0, 6), complex_f=st.booleans(), depth=st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_residual_records_are_the_per_node_records(data, n, complex_f, depth):
    # the records of generated residual columns are those that the old per-node
    # rule writes of their reports
    columns = data.draw(_residual_columns(n, complex_f))
    old = [_old_residual_record(rep.point, rep) for rep in columns.reports()]
    assert _dump_json(_nested(_residual_records(columns), depth)) == (
        json.dumps(_jsonable(_nested(old, depth)), indent=2) + "\n"
    )


def test_records_are_laid_in_at_the_top_level_only():
    # records are the report or a value of its top-level dict, whatever else
    # the report holds under the same key
    records = _Records(("a", "b"), [["1.0", "2.5"], ["null", "Infinity"]], [2, 1])
    old = [{"a": 1.0, "b": None}, {"a": 2.5}]
    assert _dump_json(records) == json.dumps(old, indent=2) + "\n"
    report = {"x": {"k": None, "y": [None]}, "k": records, "z": "\n  \"k\": null"}
    expected = {**report, "k": old}
    assert _dump_json(report) == json.dumps(expected, indent=2) + "\n"
    # json would write a deeper one as a list of its fields
    for value in ({"k": {"k": records}}, {"k": [records]}, [records], (records,),
                  {"k": {"j": {"i": records}}}):
        with pytest.raises(TypeError, match="records are a report"):
            _dump_json(value)


def test_report_writer_rejects_what_json_rejects_and_keys_that_are_not_str():
    for value in (object(), {(1, 2): 3}, {np.int64(1): 2}, np.complex64(1), {"a": [set()]}):
        with pytest.raises(TypeError):
            json.dumps(_jsonable(value), indent=2)
        with pytest.raises(TypeError):
            _dump_json(value)
    with pytest.raises(TypeError, match="report keys are str"):
        _dump_json({"a": [{1: 2.0}]})
