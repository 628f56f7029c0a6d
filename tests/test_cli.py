import csv
import json

import pytest
from click.testing import CliRunner

from sfmew.cli import main

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

    cfg3 = write(tmp_path, "q.cfg", QUADRATIC + POINTS)
    result = runner.invoke(main, ["analyze", "--config", cfg3, "--jet-order", "4"])
    assert result.exit_code == 2
    assert "jet_order must be >= 5" in result.output


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
