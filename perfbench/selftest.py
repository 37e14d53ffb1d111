"""Self-test of the benchmark harness itself. Run from the checkout root:

    python3 perfbench/selftest.py

Checks that
- two seeds of group-order32 and of scan-dense give different inputs that
  pass the same invariants;
- a flipped claim status, a wrong orbit count and a wrong CSV header, each
  injected into the program in-process, count as failed operations;
- an operation run under the contention sampler still passes its check;
- the traced call counts of one example-a `verify` equal the counts pinned
  in run.SEED_COUNTS_EXAMPLE_A (the counts of the commit that added the
  benchmark; they move when the group core or the scan changes);
- run.py exits non-zero, printing no result, where there are no sources.
Exits 1 if any check fails. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import contention
import run
import workloads
from tracing import Tracer

ROOT, OUT = run.ROOT, run.OUT
DATA = ROOT / "src" / "kummerlab" / "data"


@contextmanager
def patched(owner, attr, make_replacement):
    original = owner.__dict__[attr]
    setattr(owner, attr, make_replacement(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def flip_first_claim(to_json):
    def replacement(self):
        report = json.loads(to_json(self))
        claim = report["claims"][0]
        claim["status"] = "FAIL" if claim["status"] == "PASS" else "PASS"
        return json.dumps(report)
    return replacement


def wrong_orbit_count(run_census_stage):
    def replacement(group, report):
        census = run_census_stage(group, report)
        report.sections["census"]["orbit_count"] += 1
        return census
    return replacement


def wrong_csv_header(write_scan_csv):
    def replacement(gscan, mu, path):
        files = write_scan_csv(gscan, mu, path)
        text = Path(files[0]).read_text(encoding="utf-8")
        Path(files[0]).write_text(text.replace("sup_ric_annulus", "sup_ric", 1), encoding="utf-8")
        return files
    return replacement


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("KUMMERLAB_THREADS", None)
    from click.testing import CliRunner

    from kummerlab import cli, pipeline

    runner = CliRunner()
    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results = []

    def expect(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'}  {label}{'  (' + detail + ')' if detail and not ok else ''}")
        results.append(bool(ok))

    def build(name, seed):
        return workloads.build(name, seed, work / f"{name}-{seed}", DATA, pipeline.SLOPE_WINDOWS)

    try:
        for name in ("group-order32", "scan-dense"):
            specs = []
            for seed in (1, 2):
                wl = build(name, seed)
                specs.append(Path(wl.spec_paths[0]).read_text(encoding="utf-8"))
                _, err = run.run_op(runner, cli.main, wl.ops[0])
                expect(f"{name} seed {seed} passes the invariants", err is None, err)
            expect(f"{name} seeds 1 and 2 give different inputs", specs[0] != specs[1])

        bundled = {op.label: op for op in build("bundled-verify", 1).ops}
        group = build("group-order32", 1).ops[0]
        scan = build("scan-dense", 1).ops[0]
        for label, owner, attr, fault, op in (
            ("flipped claim status", pipeline.Report, "to_json", flip_first_claim,
             bundled["example-a.spec"]),
            ("wrong orbit count", pipeline, "run_census_stage", wrong_orbit_count, group),
            ("wrong CSV header", pipeline, "write_scan_csv", wrong_csv_header, scan),
        ):
            with patched(owner, attr, fault):
                _, err = run.run_op(runner, cli.main, op)
            expect(f"{label} counts as a failed operation", err is not None)

        _, err = run.run_op(runner, cli.main, bundled["example-b.spec"])
        expect("example-b's deliberate covariance[W_ab] FAIL is the correct output", err is None, err)

        sampler = contention.Sampler(run.OP_SAMPLE_INTERVAL_S)
        wall, err = run.run_op(runner, cli.main, bundled["example-a.spec"], sampler=sampler)
        corrected = contention.adjusted(wall, sampler.samples)
        expect("an operation under the contention sampler passes, with samples and a positive "
               "corrected time", err is None and len(sampler.samples) > 0 and corrected > 0,
               f"{err}, {len(sampler.samples)} samples, corrected {corrected}")

        tracer = Tracer()
        run.run_op(runner, cli.main, bundled["example-a.spec"], tracer)
        got = {b: tracer.binding_calls[b] for b in run.SEED_COUNTS_EXAMPLE_A}
        expect("traced example-a counts equal the pinned counts",
               got == run.SEED_COUNTS_EXAMPLE_A, json.dumps(got))

        bare = work / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "group-order32", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect("run.py without sources exits non-zero and prints no result",
               proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"exit {proc.returncode}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
