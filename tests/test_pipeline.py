import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR, diagonal, reference_report_json
from kummerlab import forms, pipeline
from kummerlab.cli import bundled_examples
from kummerlab.curvature import glue_ricci_scan, mu_report
from kummerlab.specfile import parse_construction, parse_construction_text
from kummerlab.torus import generate_group

# The spec of each golden report, by stem: the bundled examples and the pinned specs.
GOLDEN_SPECS = {
    **{stem: bundled_examples()[f"{stem}.spec"] for stem in ("example-a", "example-b")},
    **{stem: DATA_DIR / f"{stem}.spec" for stem in
       ("example-b-four-chart", "group-order32", "order-256", "example-a-shift70", "quarter-turn")},
}

TRIVIAL_SPEC = """
version 1
dimension 5

[generator t]
diag 1 1 1 1 1
translation 0 0 0 0 0
"""


def test_run_all_first_example(spec_a):
    report = pipeline.run_all(dataclasses.replace(spec_a, gluing=None))
    assert report.overall == "PASS"
    census = report.sections["census"]
    assert census["total_components"] == 48
    assert census["orbit_count"] == 12
    assert report.sections["betti"]["resolved"]["b2"] == 13
    assert report.sections["spin"]["verdict"] == "OBSTRUCTED"
    assert report.sections["spin"]["conclusion"] == (
        "holonomy G -> SO(n) does not lift to Spin(n); this does not decide spin "
        "for the quotient complement or for M")
    assert report.sections["pi1"]["status"] == "PASS"
    assert report.sections["f_structure"]["overall"] == "PASS"
    assert report.sections["f_structure"]["rank"] == 1


def test_run_all_second_example_documents_atlas_defect(spec_b):
    report = pipeline.run_all(dataclasses.replace(spec_b, gluing=None))
    assert report.overall == "FAIL"
    failing = [c.name for c in report.claims if not c.passed]
    assert failing == ["f_structure.conditions"]
    assert report.sections["betti"]["resolved"]["b2"] == 17
    assert report.sections["census"]["half_translation_orbits"] == 8
    rows = {c["name"]: c["status"] for c in [cl.to_dict() for cl in report.claims]}
    assert rows["expected.b2_resolved"] == "PASS"
    assert "not verified" in report.sections["f_structure"]["minvol_note"]


def test_run_all_trivial_group_report():
    spec = parse_construction_text(TRIVIAL_SPEC)
    report = pipeline.run_all(spec)
    assert report.sections["census"]["total_components"] == 0
    assert report.sections["spin"]["verdict"] == "LIFTABLE"
    assert report.sections["betti"]["orbifold"] == [1, 5, 10, 10, 5, 1]
    assert "refused" in report.sections["betti"]["resolved"]
    assert report.sections["pi1"]["status"] == "FAIL"
    assert report.overall == "PASS"  # no expected block, no internal failure


def test_expected_mismatch_fails():
    spec = parse_construction_text(TRIVIAL_SPEC + "\n[expected]\norbits 3\n")
    report = pipeline.run_all(spec)
    assert report.overall == "FAIL"
    bad = [c for c in report.claims if not c.passed]
    assert [c.name for c in bad] == ["expected.orbits"]
    assert bad[0].value == 0 and bad[0].expected == 3


TORI_SPEC = """
version 1
dimension 5

[generator s]
diag -1 -1 1 1 1
translation 0 0 0 0 0
"""

SWAP_SPEC = """
version 1
dimension 4

[generator s]
row 0 1 0 0
row 1 0 0 0
row 0 0 -1 0
row 0 0 0 -1
translation 1/2 1/2 0 0
"""


@pytest.mark.parametrize(
    "text, block",
    [(TORI_SPEC, "orbits 1\nhalf_orbits 0\n"),  # the fixed loci are 3-tori: a census error
     (TRIVIAL_SPEC, "b2_resolved 1\nb3_resolved 1\n"),  # pi1 FAILs: the resolved table is refused
     (SWAP_SPEC, "spin nonspin\n"),  # a non-diagonal generator: a spin error
     (TRIVIAL_SPEC, "f_rank 1\n")],  # no atlas
    ids=["census-error", "resolved-refused", "spin-error", "no-atlas"],
)
def test_expected_rows_without_a_stage_value_fail(text, block):
    report = pipeline.run_all(parse_construction_text(text + "\n[expected]\n" + block))
    rows = [(c.name, c.status, c.value) for c in report.claims if c.name.startswith("expected.")]
    assert rows == [(f"expected.{line.split()[0]}", "FAIL", None) for line in block.splitlines()]


def test_expected_rows_keep_their_order_whatever_the_block_order(spec_a):
    expected = {**spec_a.expected, "b3_resolved": 13}
    order = ["fixed_circles.alpha", "fixed_circles.beta", "fixed_circles.gamma", "abelian", "orbits",
             "half_orbits", "b2_resolved", "b3_resolved", "spin", "pi1", "f_rank"]
    for block in (expected, dict(reversed(expected.items()))):
        report = pipeline.run_all(dataclasses.replace(spec_a, gluing=None, expected=block))
        rows = [(c.name, c.status) for c in report.claims if c.name.startswith("expected.")]
        assert rows == [(f"expected.{name}", "PASS") for name in order]


def test_expected_fixed_circles_of_a_repeated_generator():
    alpha = "diag 1 -1 -1 -1 -1\ntranslation 0 0 0 1/2 0\n"
    text = ("version 1\ndimension 5\n\n[generator alpha]\n" + alpha + "\n[generator alpha2]\n" + alpha
            + "\n[expected]\nfixed_circles alpha 16\nfixed_circles alpha2 16\n")
    report = pipeline.run_all(parse_construction_text(text))
    rows = [(c.name, c.status, c.value) for c in report.claims if c.name.startswith("expected.")]
    assert rows == [("expected.fixed_circles.alpha", "PASS", 16), ("expected.fixed_circles.alpha2", "PASS", 16)]


def test_census_stage_rejects_non_circle_components():
    report = pipeline.Report()
    group = generate_group([diagonal([1, 1, -1], [0, 0, 0])])
    assert pipeline.run_census_stage(group, report) is None
    assert report.sections["census"] == {
        "error": "circles-only census requested but a fixed component has dimension 2"}
    assert not report.claims


@pytest.mark.parametrize("name", GOLDEN_SPECS)
def test_spin_stage_reads_the_generator_codes(name):
    spec = parse_construction(GOLDEN_SPECS[name])
    report = pipeline.Report()
    pipeline.run_spin_stage(spec, generate_group(spec.generators), report)
    assert report.sections["spin"]
    assert not any("linear" in vars(g) for g in spec.generators)


def test_betti_stage_reads_each_signed_permutation_once(group_a, monkeypatch):
    calls = []
    traces = forms.exterior_traces
    monkeypatch.setattr(forms, "exterior_traces", lambda *ps: calls.append(ps) or traces(*ps))
    report = pipeline.Report()
    census = pipeline.run_census_stage(group_a, report)
    cert = pipeline.run_pi1_stage(group_a, report)
    pipeline.run_betti_stage(group_a, census, cert, report)
    assert len(calls) == len(set(calls))
    assert set(calls) <= {(el.perm, el.signs) for el in group_a.elements}


def test_report_json_deterministic(spec_a):
    r1 = pipeline.run_all(dataclasses.replace(spec_a, gluing=None)).to_json()
    r2 = pipeline.run_all(dataclasses.replace(spec_a, gluing=None)).to_json()
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["overall"] == "PASS"
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == r1


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_report_writer_matches_json_dumps_on_goldens(name):
    """Each golden report, read back into sections and claims, is written to
    its own bytes by the writer and by the encoder it replaced."""
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    payload = json.loads(golden)
    claims = [pipeline.Claim(**c) for c in payload.pop("claims")]
    assert payload.pop("overall") == ("PASS" if all(c.passed for c in claims) else "FAIL")
    report = pipeline.Report(sections=payload, claims=claims)
    assert report.to_json() == reference_report_json(report) == golden


LEAVES = [
    "", "plain", "ünïcödé ∧ ℂ²/±1", "tab\tnew\nline\r", 'quote " back \\ slash /', "\x00\x1f\x7f\x80",
    "\ud800 lone surrogate", "emoji 🙂", "\u2028\u2029",
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7,
    0, -1, 2**64, -(2**70), True, False, None,
    Fraction(0), Fraction(-3, 4), Fraction(7), (Fraction(1, 2), 3),
    np.float64(0.0), np.float64(-0.0), np.float64("nan"), np.float64("inf"), np.float32(0.1),
    np.bool_(True), np.bool_(False), np.int64(-5), (), [], {},
]


def random_report_value(rng, depth):
    """A leaf of LEAVES, a random float or integer, or a list, tuple or dict of
    such values, with keys of every kind (some equal after str())."""
    draw = rng.random()
    if depth == 0 or draw < 0.35:
        pick = rng.randrange(len(LEAVES) + 3)
        if pick == len(LEAVES):
            return rng.uniform(-1, 1) * 10.0 ** rng.randint(-40, 40)
        if pick == len(LEAVES) + 1:
            return np.float64(rng.uniform(-1, 1) * 10.0 ** rng.randint(-40, 40))
        if pick == len(LEAVES) + 2:
            return rng.randint(-(10**30), 10**30)
        return LEAVES[pick]
    items = [random_report_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if draw < 0.6:
        return items
    if draw < 0.75:
        return tuple(items)
    keys = ["b", "a", "ä", "A", "", "1", 1, 2, None, Fraction(1, 2), "1/2", "claims"]
    return {rng.choice(keys): v for v in items}


def test_report_writer_matches_json_dumps_on_seeded_values():
    rng = random.Random(1729)
    for _ in range(600):
        sections = {f"s{k}": random_report_value(rng, 4) for k in range(rng.randint(0, 3))}
        claims = [pipeline.Claim(f"c{k}", rng.choice(("PASS", "FAIL")), value=random_report_value(rng, 2),
                                 expected=random_report_value(rng, 1), detail=rng.choice(("", "why")))
                  for k in range(rng.randint(0, 2))]
        report = pipeline.Report(sections=sections, claims=claims)
        assert report.to_json() == reference_report_json(report)


def test_tolerance_scale_widens_windows(spec_a):
    report = pipeline.run_all(dataclasses.replace(spec_a, gluing=None), tolerance_scale=2.0)
    assert report.sections["spec"]["tolerance_scale"] == 2.0


def test_write_scan_csv(tmp_path):
    ds = [10, 20, 40, 80]
    scan = glue_ricci_scan(ds, grid_points=64)
    mu = mu_report(scan)
    target = tmp_path / "scan.csv"
    files = pipeline.write_scan_csv(scan, mu, target)
    assert [str(target), str(tmp_path / "scan.mu.csv")] == files
    lines = target.read_text().splitlines()
    assert lines[0] == "d,r_sup,sup_ric_annulus,sup_rm_annulus"
    assert len(lines) == 5
    mu_lines = (tmp_path / "scan.mu.csv").read_text().splitlines()
    assert mu_lines[0] == "d,rescaled_sup_ric,diam_bound,mu_proxy"
    assert len(mu_lines) == 5
    assert all(len(row.split(",")) == 4 for row in lines[1:])


def test_group_cap_propagates(spec_a):
    with pytest.raises(Exception, match="cap"):
        pipeline.run_all(spec_a, max_group_order=4)


def test_spin_unsupported_beyond_elementary_abelian_groups():
    # s squares to the translation by 1/2 along e3: an element of order 4.
    text = """
version 1
dimension 3

[generator s]
diag -1 -1 1
translation 0 0 1/4

[expected]
spin nonspin
"""
    report = pipeline.run_all(parse_construction_text(text))
    assert report.sections["group"]["exponent"] == 4
    spin = report.sections["spin"]
    assert spin["verdict"] == "UNSUPPORTED"
    assert "exponent 4" in spin["reason"]
    assert set(spin) == {"verdict", "reason"}
    rows = {c.name: c for c in report.claims}
    assert rows["expected.spin"].status == "FAIL"
    assert rows["expected.spin"].value is None


GLIDE_SPEC = """
version 1
dimension 5

[generator g]
diag 1 -1 -1 1 1
translation 1/2 0 0 0 0
"""


def test_glide_spin_conclusion_states_only_the_holonomy_obstruction():
    """The glide acts freely and its quotient is spin, but its holonomy does
    not lift: the conclusion names what was computed, not a spin verdict."""
    spin = pipeline.run_all(parse_construction_text(GLIDE_SPEC)).sections["spin"]
    assert spin["verdict"] == "OBSTRUCTED"
    assert spin["witness"] == ["g"]
    assert "is nonspin" not in spin["conclusion"]


def test_non_orientable_quotient_handled():
    report = pipeline.run_all(parse_construction_text(SWAP_SPEC))
    # Orientation-reversing action: duality is data, not a claim; resolved
    # bookkeeping refuses; nothing should be flagged as a failure.
    assert report.overall == "PASS"
    betti = report.sections["betti"]
    assert betti["orientation_preserving"] is False
    assert betti["duality"] is False
    assert "refused" in betti["resolved"]
    assert report.sections["spin"] == {"error": "diagonal entries must be +1 or -1"}
