"""kummerlab benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload bundled-verify --seed 1 --seconds 20 --trace 0

Load model: one process, a closed loop with one client. Each operation
drives `kummerlab.cli.main` in-process through click's CliRunner and waits
for it, as a CLI user waits for each `verify`. With --trace 0 one untimed
round warms the process up first. Interpreter start-up, the import, spec
parsing and first-call calibration are paid once per CLI invocation and
measured separately, in fresh interpreters, as `setup_s`. The end-to-end
times are corrected for host contention (see contention.py); the details
line keeps the raw wall times next to them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs one untraced and one traced round of operations, then the
group-order and glue-grid scaling ladders traced, and reports the
per-layer metrics.
The last line of standard output is the result; the line before it holds
provenance and the raw samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import contention
import workloads
from tracing import Tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 11
OP_SAMPLE_INTERVAL_S = 0.05  # contention samples during an operation
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

# Per-operation span totals and call counts reported by the traced run.
SPAN_METRICS = (
    "torus.generate_group", "torus.fixed_locus", "torus.pi1_certificate",
    "curvature.decay_scan", "curvature.glue_ricci_scan", "curvature.mu_report",
    "fstructure.extend_rule", "fstructure.verify_f_structure",
    "forms.orbifold_betti", "forms.invariant_forms", "forms.resolved_betti",
    "clifford.spin_obstruction", "specfile.parse_construction",
    *[f"pipeline.run_{s}_stage" for s in
      ("group", "census", "pi1", "spin", "betti", "curvature", "fstructure", "expected")],
    "pipeline.Report.to_json", "pipeline.write_scan_csv",
)
CALL_METRICS = (
    "torus.fixed_locus", "torus.transform_component", "intlinalg.unimodular_inverse",
    "intlinalg.smith_normal_form", "curvature.cohomo_curvature", "forms.induced_action",
)
COUNTER_METRICS = (
    "fstructure.checks", "fstructure.checks_failed", "pipeline.claims", "pipeline.claims_failed",
)
# Calls through each binding for one example-a `verify` at the commit that
# added this benchmark; a change to the group core or the scan is expected
# to move them.
SEED_COUNTS_EXAMPLE_A = {
    "kummerlab.torus.fixed_locus": 23,
    "kummerlab.fstructure.fixed_locus": 7,
    "kummerlab.torus.transform_component": 480,
    "kummerlab.torus.unimodular_inverse": 674,
    "kummerlab.curvature.cohomo_curvature": 2570,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(seed: int, threads_env: str | None) -> dict:
    import importlib.metadata

    import kummerlab
    import numpy

    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "kummerlab": kummerlab.__version__,
        "kummerlab_path": str(Path(kummerlab.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "KUMMERLAB_THREADS": "unset" if threads_env is None
        else f"unset by the harness (inherited {threads_env!r})",
    }


class SetupProbes:
    """Times of fresh interpreters doing the workload's set-up (see probe.py).

    The probes are spread over the run, between operations, so that they
    see the same machine load as the operations do. Each probe samples its
    own contention and prints the samples; `times` holds the corrected
    times and `walls` the raw ones.
    """

    def __init__(self, wl):
        self.cmd = [sys.executable, str(HERE / "probe.py")]
        self.cmd += ["--calibrate"] if wl.calibrates else []
        self.cmd += wl.spec_paths
        self.times: list[float] = []
        self.walls: list[float] = []
        self._probe()  # warm-up: the first run byte-compiles the package

    def _probe(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, check=True, timeout=120,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        samples = json.loads(proc.stdout.splitlines()[-1])["samples"]
        return wall, contention.adjusted(wall, samples)

    def catch_up(self, progress: float) -> float:
        """Run the probes due once `progress` of the run is done; return the time spent."""
        t0 = time.perf_counter()
        while len(self.times) < min(SETUP_PROBES, math.ceil(progress * SETUP_PROBES)):
            wall, adjusted = self._probe()
            self.walls.append(wall)
            self.times.append(adjusted)
        return time.perf_counter() - t0


def run_op(runner, main, op, tracer=None, sampler=None) -> tuple[float, str | None]:
    """Run one operation, traced or sampled if asked; return its wall time and
    why it failed, if it did."""
    for path in op.out_paths:
        path.unlink(missing_ok=True)
    gc.collect()  # each operation starts with the same garbage, none
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer, tracer.span("cli"):
            res = runner.invoke(main, op.args)
    elif sampler is not None:
        with sampler:
            res = runner.invoke(main, op.args)
    else:
        res = runner.invoke(main, op.args)
    dt = time.perf_counter() - t0
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        return dt, f"{op.label}: {type(res.exception).__name__}: {res.exception}"
    try:
        op.check(res.exit_code)
    except workloads.CheckFailed as exc:
        return dt, f"{op.label}: {exc}"
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return dt, f"{op.label}: unreadable output: {type(exc).__name__}: {exc}"
    return dt, None


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that percentile would sit at or under the
    median, so the maximum (percentile 100) is reported instead.
    """
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(tracers: list[Tracer]) -> dict:
    """Per-operation means over the traced operations, plus work ratios."""
    n = len(tracers)

    def total(fn):
        return sum(fn(t) for t in tracers)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.s"] = total(lambda t: t.total_s(name)) / n
    for name in CALL_METRICS:
        m[f"{name}.calls"] = total(lambda t: t.calls(name)) / n
    for name in COUNTER_METRICS:
        m[name] = total(lambda t: t.counters[name]) / n
    elements = total(lambda t: t.counters["torus.group_elements"])
    m["torus.generate_group.order"] = ratio(elements, total(lambda t: t.counters["torus.groups"]))
    m["torus.fixed_locus.recompute_ratio"] = ratio(total(lambda t: t.calls("torus.fixed_locus")), elements)
    m["torus.singular_census.self_s"] = total(lambda t: t.self_s("torus.singular_census")) / n
    m["torus.census.transform_per_component"] = ratio(
        total(lambda t: t.calls("torus.transform_component")),
        total(lambda t: t.counters["torus.census.components"]),
    )
    m["curvature.glue.s_per_point"] = ratio(
        total(lambda t: t.total_s("curvature.glue_ricci_scan")),
        total(lambda t: t.counters["curvature.glue.points"]),
    )
    m["cli.self_s"] = total(lambda t: t.self_s("cli")) / n
    return m


def group_ladder(work: Path) -> tuple[dict, list[dict], list[str]]:
    from kummerlab import specfile, torus

    metrics, rows, errors = {}, [], []
    for translation, order in workloads.GROUP_LADDER:
        path = work / f"ladder-order{order}.spec"
        path.write_text(workloads.group_spec_text(translation), encoding="utf-8")
        spec = specfile.parse_construction(path)
        with Tracer() as tracer:
            group = torus.generate_group(spec.generators, spec.generator_names)
            census = torus.singular_census(group)
        row = {
            "order": group.order,
            "translation": translation or "0",
            "census_s": tracer.total_s("torus.singular_census"),
            "transform_component_calls": tracer.calls("torus.transform_component"),
            "components": census.total_components,
            "orbits": census.orbit_count,
        }
        if group.order != order:
            errors.append(f"group ladder: order {group.order}, expected {order}")
        rows.append(row)
        metrics[f"torus.census.o{order}.s"] = row["census_s"]
        metrics[f"torus.census.o{order}.transform_calls"] = row["transform_component_calls"]
    metrics["torus.census.order_exponent"] = workloads.loglog_slope(
        [r["order"] for r in rows], [r["census_s"] for r in rows])
    return metrics, rows, errors


def glue_ladder() -> tuple[dict, list[dict], list[str]]:
    from kummerlab import curvature

    metrics, rows, errors = {}, [], []
    for grid in workloads.GLUE_LADDER_GRIDS:
        with Tracer() as tracer:
            scan = curvature.glue_ricci_scan(workloads.GLUE_LADDER_D, grid)
        sups = scan.series["sup_ric_annulus"].values
        if len(sups) != len(workloads.GLUE_LADDER_D) or not all(s > 0 for s in sups):
            errors.append(f"glue ladder: grid {grid} gave {sups}")
        row = {"grid": grid, "scan_s": tracer.total_s("curvature.glue_ricci_scan"),
               "cohomo_curvature_calls": tracer.calls("curvature.cohomo_curvature")}
        rows.append(row)
        metrics[f"curvature.glue.g{grid}.s"] = row["scan_s"]
    metrics["curvature.glue.grid_exponent"] = workloads.loglog_slope(
        [r["grid"] for r in rows], [r["scan_s"] for r in rows])
    return metrics, rows, errors


def op_loop(wl, seed: int, seconds: float, trace: bool, after_op=None):
    """After one untimed warm-up round, repeat rounds of the workload's
    operations, in a seeded order, until `seconds` pass.

    With `trace`, one untraced round and one traced round are run instead,
    with no warm-up, so that the traced run and its ladders end in time.
    `after_op(progress)` runs after each untraced operation and returns the
    time it took, which does not count towards `seconds`. Returns the
    untraced (wall, corrected) time pairs, the traced (label, time, tracer)
    triples, the failure reasons and the number of operations attempted.
    """
    from click.testing import CliRunner

    from kummerlab import cli

    runner = CliRunner()
    rng = random.Random(f"order:{seed}")
    sampler = None if trace else contention.Sampler(OP_SAMPLE_INTERVAL_S)
    plain, traced, failures = [], [], []
    warm_up = () if trace else wl.ops
    for op in warm_up:
        _, err = run_op(runner, cli.main, op)
        failures += [err] if err else []
    start, paused = time.perf_counter(), 0.0

    def elapsed():
        return time.perf_counter() - start - paused

    while True:
        for op in rng.sample(wl.ops, len(wl.ops)):
            dt, err = run_op(runner, cli.main, op, sampler=sampler)
            plain.append((dt, contention.adjusted(dt, sampler.samples if sampler else [])))
            failures += [err] if err else []
            if after_op:
                paused += after_op(elapsed() / seconds)
        for op in rng.sample(wl.ops, len(wl.ops)) if trace else ():
            tracer = Tracer()
            dt, err = run_op(runner, cli.main, op, tracer)
            traced.append((op.label, dt, tracer))
            failures += [err] if err else []
        if trace or elapsed() >= seconds:
            return plain, traced, failures, len(warm_up) + len(plain) + len(traced)


def end_to_end(wl, args, details) -> tuple[dict, int, list[str]]:
    probes = SetupProbes(wl)
    plain, _, failures, attempted = op_loop(wl, args.seed, args.seconds, trace=False,
                                            after_op=probes.catch_up)
    probes.catch_up(1.0)
    walls = [w for w, _ in plain]
    times = [t for _, t in plain]
    value, pct = tail(times)
    details.update({
        "setup_s": probes.times, "setup_wall_s": probes.walls, "op_s": times, "op_wall_s": walls,
        "op_s.tail": {"percentile": pct, "samples": len(times)},
        "op_wall_s.p50": statistics.median(walls), "setup_wall_s.p50": statistics.median(probes.walls),
    })
    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": value,
        "success_ratio": (attempted - len(failures)) / attempted,
        "setup_s": statistics.median(probes.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, failures


def per_layer(wl, args, details, work: Path) -> tuple[dict, int, list[str]]:
    from kummerlab import curvature

    plain, traced, failures, attempted = op_loop(wl, args.seed, args.seconds, trace=True)
    plain = [w for w, _ in plain]
    times = [dt for _, dt, _ in traced]
    tracers = [t for _, _, t in traced]
    metrics = layer_metrics(tracers)
    metrics["trace.overhead_ratio"] = statistics.median(times) / statistics.median(plain)
    metrics["curvature.calibration.s"] = 0.0
    if wl.calibrates:  # in-process the record is cached, so time the function behind the cache
        calibrate = getattr(curvature.calibration, "__wrapped__", curvature.calibration)
        cal = []
        for _ in range(5):
            t0 = time.perf_counter()
            calibrate()
            cal.append(time.perf_counter() - t0)
        metrics["curvature.calibration.s"] = statistics.median(cal)
    details.update({"op_s": plain, "traced_op_s": times})
    a_tracer = next((t for label, _, t in traced if label == "example-a.spec"), None)
    if a_tracer is not None:
        details["seed_count_check_example_a"] = {
            b: {"expected": want, "traced": a_tracer.binding_calls[b]}
            for b, want in SEED_COUNTS_EXAMPLE_A.items()
        }
    details["ladders"] = {}
    for name, ladder in (("group_order", lambda: group_ladder(work)), ("glue_grid", glue_ladder)):
        ladder_metrics, rows, errors = ladder()
        metrics.update(ladder_metrics)
        details["ladders"][name] = rows
        failures += errors
        attempted += len(rows)
    details["ladders_not_run"] = {"group_order": workloads.GROUP_NOT_RUN}
    spans_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([{"op": label, "spans": t.to_json()} for label, _, t in traced], fh)
    details["spans"] = str(spans_path.relative_to(ROOT))
    return metrics, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kummerlab" / "cli.py").is_file():
        print(f"error: no kummerlab sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    threads_env = os.environ.pop("KUMMERLAB_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    from kummerlab import pipeline

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, work, ROOT / "src" / "kummerlab" / "data",
                             pipeline.SLOPE_WINDOWS)
        details = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
                   "provenance": provenance(args.seed, threads_env),
                   "load": "closed loop, one client, in-process CliRunner"}
        if args.trace:
            metrics, attempted, failures = per_layer(wl, args, details, work)
        else:
            metrics, attempted, failures = end_to_end(wl, args, details)
        details["failures"] = failures
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
