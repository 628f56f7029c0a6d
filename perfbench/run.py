#!/usr/bin/env python3
"""Region-scan benchmark for sfmew.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree (the program is imported from ``src/``).
Each workload runs ``sfmew analyze`` (and ``sfmew verify`` where it needs it)
in this one single-threaded process, on configs written under
``perfbench/_work/``, in whole rounds over every member of its families
while another round fits in S seconds.  Every point of every output is checked against the
closed-form answers in ``families.py``; a wrong point counts as a failed
operation.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
``--smoke`` runs one round of every workload on a 3x3 grid, untraced and
traced, and prints one JSON line per workload.  See README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import families as fam  # noqa: E402
from tracing import Tracer  # noqa: E402

# name -> the families it runs: (family, grid size, whether the complex
# solution is verified too)
WORKLOADS = {
    "scan-obstructed-admits": (("spiral", 21, False), ("quadratic", 5, False)),
    "vanishing-verify": (("opposite", 21, True),),
}
SMOKE_GRID = 3
SETUP_PROBES = 5
PROBE_POINT = (1.0, 0.0)


class Call:
    """One in-process CLI invocation of a round, and the check of its output."""

    def __init__(self, kind, member, args, out_dir, points):
        self.kind = kind
        self.member = member
        self.args = args
        self.out_dir = out_dir
        self.points = points
        self.key = f"{kind}:{member.name}"

    def check(self, code, tally):
        """Compare every point of the output with the closed form."""
        family = self.member.family
        records = None
        try:
            if self.kind == "analyze" and code == 0:
                report = json.loads((self.out_dir / "report.json").read_text())
                records = report.get("grid", []) + report.get("points", [])
                ok = lambda rec: fam.check_analyze_record(self.member, rec)
            elif self.kind == "verify" and code in (0, 1):
                payload = json.loads((self.out_dir / "residuals.json").read_text())
                records = payload["points"]
                ok = lambda rec: fam.check_verify_record(self.member, rec)
        except (OSError, ValueError, KeyError) as err:
            tally.errors.append(f"{self.key}: unreadable output: {err}")
        if records is None or len(records) != len(self.points):
            tally.errors.append(f"{self.key}: exit code {code}, output does not cover the points")
            tally.attempted += len(self.points)
            tally.failed += len(self.points)
            return
        for rec in records:
            tally.attempted += 1
            if ok(rec):
                continue
            tally.failed += 1
            fault = fam.known_fault(family, rec["x"], rec["y"])
            if fault is None:
                tally.errors.append(f"{self.key}: wrong answer at ({rec['x']!r}, {rec['y']!r})")
            tally.faults[f"{self.kind}:{fault}"] += 1


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = Counter()
        self.errors = []


def config_text(member, grid, points, mode):
    u, p11, p12, p22 = member.structure_sources()
    lines = ["[structure]", f'u = "{u}"', f'P11 = "{p11}"', f'P12 = "{p12}"', f'P22 = "{p22}"']
    if grid:
        lines += ["[region]", "xmin = -2.0", "xmax = 2.0", "ymin = -2.0", "ymax = 2.0",
                  f"nx = {grid}", f"ny = {grid}"]
    if points:
        lines += ["[points]", 'points = "' + "; ".join(f"{x!r},{y!r}" for x, y in points) + '"']
    lines += ["[options]", f"mode = {mode}"]
    return "\n".join(lines) + "\n"


def member_calls(member, base, grid, near, verify):
    """Write the configs of one member; its analyze (and verify) calls."""
    base.mkdir(parents=True, exist_ok=True)
    points = fam.grid_nodes(grid) + list(near)
    (base / "analyze.cfg").write_text(config_text(member, grid, near, "real"))
    calls = [Call("analyze", member, ["analyze", "--config", str(base / "analyze.cfg"),
                                      "--out", str(base / "analyze")], base / "analyze", points)]
    if verify:
        (base / "verify.cfg").write_text(config_text(member, 0, points, "complex"))
        alpha = [f"--alpha={a}" for a in fam.verify_alpha_sources(member)]
        calls.append(Call("verify", member, ["verify", "--config", str(base / "verify.cfg"),
                                             "--out", str(base / "verify")] + alpha,
                          base / "verify", points))
    return calls


def build_calls(workload, seed, smoke, work):
    """The calls of one round, of the warm-up, and the probe's CLI arguments."""
    calls, warm, probe = [], [], []
    for family, grid, verify in WORKLOADS[workload]:
        members = fam.members(family, seed)
        grid = SMOKE_GRID if smoke else grid
        calls += [c for m in members
                  for c in member_calls(m, work / m.name, grid, fam.NEAR_FLAT, verify)]
        warm += [c for m in members
                 for c in member_calls(m, work / f"warm-{m.name}", SMOKE_GRID, (), verify)]
        if not probe:
            probe = member_calls(members[0], work / "probe", 0, (PROBE_POINT,), verify)
    return calls, warm, [c.args for c in probe]


# One console for every call: click caches a wrapper per stream object and
# keeps the stream alive, so a fresh StringIO per call would never be freed.
CONSOLE = io.StringIO()


def run_cli(main, args):
    """One CLI command, in-process, with its console output discarded."""
    CONSOLE.seek(0)
    CONSOLE.truncate()
    with contextlib.redirect_stdout(CONSOLE):
        try:
            main.main(args=args, standalone_mode=False)
        except SystemExit as done:
            return done.code
    return 0


def measure_setup(probe_args):
    """Seconds from starting a fresh interpreter until its first result."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(probe_args)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.split()[1:] != ["0"] * len(probe_args):
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line.strip()} {err[-500:]}")
    return elapsed


def run_round(main, calls, times, tally, tracer=None):
    """Each call once; its wall time is appended to ``times[call.key]``."""
    for call in calls:
        t0 = time.perf_counter()
        if tracer is None:
            code = run_cli(main, call.args)
        else:
            tracer.trace_id += 1
            code = tracer.run("cli", f"cli.{call.kind}", run_cli, main, call.args)
        times[call.key].append(time.perf_counter() - t0)
        call.check(code, tally)


def run_rounds(main, calls, seconds, tally, tracer=None):
    """Rounds while another one fits in ``seconds`` (at least one).

    With a tracer, an untraced round and a traced round alternate, so that
    both see the same host.  Returns the call times (untraced, traced).
    """
    plain = {c.key: [] for c in calls}
    traced = {c.key: [] for c in calls}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(main, calls, plain, tally)
        if tracer is not None:
            tracer.install()
            try:
                run_round(main, calls, traced, tally, tracer)
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if 2.0 * now - round_start - start > seconds:
            return plain, traced


def points_per_s(calls, times):
    """Points of one round over the sum of each call's fastest time.

    Other tenants of the host slow single passes by up to a half, for seconds
    to minutes; the fastest of a call's passes is the estimate of its own
    cost that varies least from run to run (see README.md).
    """
    return sum(len(c.points) for c in calls) / sum(min(times[c.key]) for c in calls)


def run_workload(workload, seed, seconds, trace, smoke, probes):
    from sfmew import cli

    work = WORK / workload
    calls, warm, probe_args = build_calls(workload, seed, smoke, work)
    setup = [measure_setup(probe_args) for _ in range(probes)]

    for call in warm:
        run_cli(cli.main, call.args)

    tally = Tally()
    detail = {"workload": workload, "seed": seed, "smoke": smoke,
              "omega": {c.member.name: c.member.coeffs for c in calls}}
    if not trace:
        times, _ = run_rounds(cli.main, calls, seconds, tally)
        metrics = {
            "points_per_s": (points_per_s(calls, times), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["setup_s"] = setup
    else:
        tracer = Tracer()
        plain, times = run_rounds(cli.main, calls, seconds, tally, tracer)
        tracer.write_spans(work / "spans.jsonl")
        metrics = tracer.layer_metrics(tally.attempted // 2)
        metrics.update(tracer.tag_metrics(fam.TAGS))
        overhead = 100.0 * (points_per_s(calls, plain) / points_per_s(calls, times) - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
    detail.update(times_s=times, faults=dict(tally.faults), errors=tally.errors[:20])
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload on a 3x3 grid, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "sfmew" / "__init__.py").is_file():
        print(f"sfmew sources not found under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    sys.path.insert(0, str(SRC))

    if args.smoke:
        all_correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, tally = run_workload(workload, args.seed, 0.0, trace, smoke=True,
                                             probes=1 - trace)
                all_correct &= result["correct"]
                print(json.dumps({"workload": workload, "trace": trace, **result,
                                  "faults": dict(tally.faults), "errors": tally.errors[:5]}))
        return 0 if all_correct else 1

    result, tally = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                 smoke=False, probes=0 if args.trace else SETUP_PROBES)
    for err in tally.errors[:5]:
        print(err, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
