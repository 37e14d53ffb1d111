"""Workload inputs and their correctness oracles.

Each workload turns a seed into spec files and a list of operations. An
operation is one `kummerlab` CLI invocation plus the check that its exit
code and output are right. The program only ever sees the spec files.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
BUNDLED = ("example-a.spec", "example-b.spec")
# Sections of the verify report that are exact and must match the reference.
EXACT_SECTIONS = ("group", "fixed_loci", "census", "pi1", "betti", "f_structure")
BUNDLED_EXIT = {"example-a.spec": 0, "example-b.spec": 1}

# The generators of example-a: (Z_2)^3 acting on the flat 5-torus.
EXAMPLE_A = (
    ("alpha", (1, -1, -1, -1, -1), ("0", "0", "0", "1/2", "0")),
    ("beta", (-1, -1, -1, 1, -1), ("0", "1/2", "0", "0", "0")),
    ("gamma", (-1, -1, -1, -1, 1), ("0", "0", "1/2", "0", "0")),
)
CIRCLE_AXIS = 0  # alpha fixes circles along the first coordinate

# Group ladder: translation along the circle axis -> group order.
GROUP_LADDER = ((None, 8), ("1/2", 16), ("1/4", 32), ("1/8", 64))
GROUP_NOT_RUN = {
    "256": "not run: the order-256 census (Z_2^3 plus a (1/8,1/8) translation) "
    "did not finish in about 9.5 min on a 2-core Intel Xeon VM",
    "1024": "not run: beyond order 256, which already does not finish",
}
GLUE_LADDER_GRIDS = (256, 512, 1024, 2048, 4096)
GLUE_LADDER_D = (10, 20, 40, 80)

SCAN_HEADERS = (
    "d,r_sup,sup_ric_annulus,sup_rm_annulus",
    "d,rescaled_sup_ric,diam_bound,mu_proxy",
)


class CheckFailed(Exception):
    """An operation's exit code or output is wrong."""


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def group_spec_text(translation: str | None, perm=None) -> str:
    """example-a plus a pure translation along alpha's circle axis.

    `perm[i]` is the new index of coordinate i; the whole group is
    conjugated by that coordinate permutation.
    """
    n = 5
    perm = list(range(n)) if perm is None else list(perm)

    def permute(values):
        out = [None] * n
        for i, v in enumerate(values):
            out[perm[i]] = v
        return out

    gens = list(EXAMPLE_A)
    if translation is not None:
        t = ["0"] * n
        t[CIRCLE_AXIS] = translation
        gens.append(("tau", (1,) * n, tuple(t)))
    lines = ["version 1", f"dimension {n}", ""]
    for name, diag, trans in gens:
        lines += [
            f"[generator {name}]",
            "diag " + " ".join(str(x) for x in permute(diag)),
            "translation " + " ".join(permute(trans)),
            "",
        ]
    return "\n".join(lines)


def scan_spec_text(d0: float) -> str:
    """alpha of example-a with a gluing block: d = d0 * 2**k, k = 0..4, on 2048 radii."""
    name, diag, trans = EXAMPLE_A[0]
    d_values = " ".join(repr(d0 * 2**k) for k in range(5))
    return "\n".join([
        "version 1",
        "dimension 5",
        "",
        f"[generator {name}]",
        "diag " + " ".join(str(x) for x in diag),
        "translation " + " ".join(trans),
        "",
        "[gluing]",
        f"d_values {d_values}",
        "annulus_grid 2048",
        "decay_radii 10 20 40 80 160",
        "ricci_flat_radii 1.2 2 5 20 50",
        "ricci_flat_tol 1e-6",
        "",
    ])


@dataclass
class Op:
    """One CLI invocation and the oracle for its result."""

    label: str
    args: list[str]
    check: Callable[[int], None]  # raises CheckFailed on a wrong exit code or output
    out_paths: list[Path] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one round, run in a seeded order; the harness repeats rounds
    spec_paths: list[str]
    calibrates: bool  # whether the workload reaches curvature.calibration()


def _load_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def oracle_view(report: dict) -> dict:
    """The part of a verify report that the bundled reference pins."""
    view = {k: report[k] for k in EXACT_SECTIONS}
    view["claims"] = [[c["name"], c["status"]] for c in report["claims"]]
    return view


def _check_bundled(spec_name: str, json_path: Path):
    with open(HERE / "reference" / spec_name.replace(".spec", ".json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    def check(exit_code: int) -> None:
        _require(exit_code == BUNDLED_EXIT[spec_name], f"exit code {exit_code}")
        view = oracle_view(_load_report(json_path))
        for key in ("claims",) + EXACT_SECTIONS:
            _require(view[key] == reference[key], f"{spec_name}: {key} differs from the reference")

    return check


def _check_group32(json_path: Path):
    def check(exit_code: int) -> None:
        _require(exit_code == 0, f"exit code {exit_code}")
        rep = _load_report(json_path)
        _require(rep["group"]["order"] == 32, "group order")
        cen = rep["census"]
        _require(cen.get("total_components") == 144, "circle count")
        _require(cen.get("orbit_count") == 12, "orbit count")
        betti = rep["betti"]
        _require(betti["orbifold"] == [1, 0, 1, 1, 0, 1], "orbifold betti")
        res = betti.get("resolved", {})
        _require(res.get("b2") == 13 and res.get("b3") == 13, "resolved betti")
        _require(res.get("euler") == 0, "euler characteristic")
        _require(rep["pi1"]["status"] == "PASS", "pi1 certificate")
        # The spin verdict is deliberately not checked: it is issued outside
        # its hypotheses for this exponent-4 group.

    return check


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _slope_ok(rows, x, y, window) -> bool:
    target, width = window
    return abs(loglog_slope([r[x] for r in rows], [r[y] for r in rows]) - target) <= width


def _check_scan(d_values, csv_path: Path, mu_path: Path, windows):
    def read(path: Path, header: str):
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        _require(bool(lines) and lines[0] == header, f"{path.name}: header {lines[:1]}")
        rows = list(csv.reader(lines[1:]))
        _require(len(rows) == len(d_values), f"{path.name}: {len(rows)} rows")
        _require(
            all(math.isclose(float(r[0]), d) for r, d in zip(rows, d_values)),
            f"{path.name}: d column",
        )
        return [[float(x) for x in r] for r in rows]

    def check(exit_code: int) -> None:
        _require(exit_code == 0, f"exit code {exit_code}")
        annulus = read(csv_path, SCAN_HEADERS[0])
        mu = read(mu_path, SCAN_HEADERS[1])
        _require(_slope_ok(annulus, 0, 2, windows["glue"]), "sup_ric slope")
        _require(_slope_ok(mu, 0, 1, windows["rescaled"]), "rescaled slope")
        mus = [r[3] for r in mu]
        _require(all(b < a for a, b in zip(mus, mus[1:])), "mu_proxy not strictly decreasing")

    return check


def _seeded_permutation(rng: random.Random) -> list[int]:
    perm = list(range(5))
    rng.shuffle(perm)
    return perm


def build(name: str, seed: int, work: Path, data_dir: Path, slope_windows) -> Workload:
    """Write the workload's spec files under `work` and return its operations."""
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "bundled-verify":
        ops, specs = [], []
        for spec_name in BUNDLED:
            spec = str(data_dir / spec_name)
            out = work / spec_name.replace(".spec", ".json")
            ops.append(Op(spec_name, ["--json", str(out), "verify", spec],
                          _check_bundled(spec_name, out), [out]))
            specs.append(spec)
        return Workload(name, ops, specs, calibrates=True)
    if name == "group-order32":
        spec = work / "group-order32.spec"
        spec.write_text(group_spec_text("1/4", _seeded_permutation(rng)), encoding="utf-8")
        out = work / "group-order32.json"
        op = Op("group-order32", ["--json", str(out), "verify", str(spec)], _check_group32(out), [out])
        return Workload(name, [op], [str(spec)], calibrates=False)
    if name == "scan-dense":
        d0 = rng.randint(16, 64) / 4  # d0 in [4, 16]
        spec = work / "scan-dense.spec"
        spec.write_text(scan_spec_text(d0), encoding="utf-8")
        csv_path, mu_path = work / "scan.csv", work / "scan.mu.csv"
        d_values = [d0 * 2**k for k in range(5)]
        op = Op("scan-dense", ["curvature-scan", str(spec), "--csv", str(csv_path)],
                _check_scan(d_values, csv_path, mu_path, slope_windows), [csv_path, mu_path])
        return Workload(name, [op], [str(spec)], calibrates=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bundled-verify", "group-order32", "scan-dense")
