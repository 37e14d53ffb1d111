import json

import pytest

from kummerlab import pipeline
from kummerlab.curvature import glue_ricci_scan, mu_report
from kummerlab.specfile import parse_construction_text

TRIVIAL_SPEC = """
version 1
dimension 5

[generator e]
diag 1 1 1 1 1
translation 0 0 0 0 0
"""


def test_run_all_first_example(spec_a):
    report = pipeline.run_all(spec_a, include_curvature=False)
    assert report.overall == "PASS"
    census = report.sections["census"]
    assert census["total_components"] == 48
    assert census["orbit_count"] == 12
    assert report.sections["betti"]["resolved"]["b2"] == 13
    assert report.sections["spin"]["verdict"] == "OBSTRUCTED"
    assert report.sections["spin"]["conclusion"] == "quotient-complement is nonspin"
    assert report.sections["pi1"]["status"] == "PASS"
    assert report.sections["f_structure"]["overall"] == "PASS"
    assert report.sections["f_structure"]["rank"] == 1


def test_run_all_second_example_documents_atlas_defect(spec_b):
    report = pipeline.run_all(spec_b, include_curvature=False)
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


def test_report_json_deterministic(spec_a):
    r1 = pipeline.run_all(spec_a, include_curvature=False).to_json()
    r2 = pipeline.run_all(spec_a, include_curvature=False).to_json()
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["overall"] == "PASS"
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == r1


def test_tolerance_scale_widens_windows(spec_a):
    report = pipeline.run_all(spec_a, include_curvature=False, tolerance_scale=2.0)
    assert report.sections["spec"]["tolerance_scale"] == 2.0


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("KUMMERLAB_THREADS", raising=False)
    assert pipeline.thread_count() is None
    monkeypatch.setenv("KUMMERLAB_THREADS", "3")
    assert pipeline.thread_count() == 3
    monkeypatch.setenv("KUMMERLAB_THREADS", "junk")
    assert pipeline.thread_count() is None


def test_write_scan_csv(tmp_path):
    ds = [10, 20, 40, 80]
    scan = glue_ricci_scan(ds, grid_points=64)
    mu = mu_report(scan, ds)
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


def test_non_orientable_quotient_handled():
    text = """
version 1
dimension 4

[generator s]
row 0 1 0 0
row 1 0 0 0
row 0 0 -1 0
row 0 0 0 -1
translation 1/2 1/2 0 0
"""
    report = pipeline.run_all(parse_construction_text(text))
    # Orientation-reversing action: duality is data, not a claim; resolved
    # bookkeeping refuses; nothing should be flagged as a failure.
    assert report.overall == "PASS"
    betti = report.sections["betti"]
    assert betti["orientation_preserving"] is False
    assert betti["duality"] is False
    assert "refused" in betti["resolved"]
    assert report.sections["spin"] == {"error": "diagonal entries must be +1 or -1"}
