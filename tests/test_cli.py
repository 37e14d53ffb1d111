"""CLI surface tests through click's runner."""

from __future__ import annotations

from pathlib import Path

from click.testing import CliRunner

from kummerlab.cli import bundled_examples, main

EXAMPLE_A = bundled_examples()["example-a.spec"]
EXAMPLE_B = bundled_examples()["example-b.spec"]


def trimmed_spec(tmp_path: Path) -> str:
    """example-a with a lighter gluing block, for fast CLI runs."""
    text = Path(EXAMPLE_A).read_text()
    text = text.replace("d_values 10 20 40 80 160", "d_values 10 20 40 80")
    text = text.replace("annulus_grid 512", "annulus_grid 96")
    text = text.replace("decay_radii 10 20 40 80 160", "decay_radii 10 20 40 80")
    target = tmp_path / "trimmed.spec"
    target.write_text(text)
    return str(target)


def test_examples_listing():
    result = CliRunner().invoke(main, ["examples"])
    assert result.exit_code == 0
    assert "example-a.spec" in result.output
    assert "example-b.spec" in result.output


def test_verify_first_example_passes(tmp_path):
    spec = trimmed_spec(tmp_path)
    result = CliRunner().invoke(main, ["verify", spec])
    assert result.exit_code == 0, result.output
    assert "overall: PASS" in result.output
    assert "expected.b2_resolved" in result.output


def test_verify_second_example_reports_known_defect():
    result = CliRunner().invoke(main, ["verify", EXAMPLE_B])
    assert result.exit_code == 1
    assert "FAIL  f_structure.conditions" in result.output
    assert "PASS  expected.b2_resolved" in result.output
    assert "overall: FAIL" in result.output


def test_verify_json_report_byte_identical(tmp_path):
    spec = trimmed_spec(tmp_path)
    runner = CliRunner()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    r1 = runner.invoke(main, ["--json", str(out1), "verify", spec])
    r2 = runner.invoke(main, ["--json", str(out2), "verify", spec])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_group_cap_is_input_error():
    result = CliRunner().invoke(main, ["--max-group-order", "4", "verify", EXAMPLE_A])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: group closure exceeded the cap of 4 elements" in result.output


def test_fixed_locus_command():
    result = CliRunner().invoke(main, ["fixed-locus", EXAMPLE_A, "--element", "alpha"])
    assert result.exit_code == 0
    assert "alpha: 16 component(s)" in result.output
    result = CliRunner().invoke(main, ["fixed-locus", EXAMPLE_A, "--element", "alpha*beta"])
    assert "alpha*beta: 0 component(s)" in result.output


def test_fixed_locus_unknown_element_is_input_error():
    result = CliRunner().invoke(main, ["fixed-locus", EXAMPLE_A, "--element", "delta"])
    assert result.exit_code == 2


def test_census_command():
    result = CliRunner().invoke(main, ["census", EXAMPLE_A])
    assert result.exit_code == 0
    assert "48 components in 12 orbits" in result.output
    result = CliRunner().invoke(main, ["census", EXAMPLE_B])
    assert "48 components in 16 orbits" in result.output
    assert "length factor 1/2" in result.output


def test_spin_command_and_convention_flag():
    result = CliRunner().invoke(main, ["spin", EXAMPLE_A])
    assert result.exit_code == 0
    assert "verdict: OBSTRUCTED" in result.output
    assert "e2·e3·e4·e5" in result.output
    plus = CliRunner().invoke(main, ["spin", EXAMPLE_A, "--square-plus"])
    assert "e_i^2 = +1" in plus.output


def test_betti_command():
    result = CliRunner().invoke(main, ["betti", EXAMPLE_A])
    assert result.exit_code == 0
    assert "[1, 0, 1, 1, 0, 1]" in result.output
    assert "b2 = 13" in result.output
    result = CliRunner().invoke(main, ["betti", EXAMPLE_B])
    assert "b2 = 17" in result.output


def test_curvature_scan_writes_both_tables(tmp_path):
    spec = trimmed_spec(tmp_path)
    target = tmp_path / "scan.csv"
    result = CliRunner().invoke(main, ["curvature-scan", spec, "--csv", str(target)])
    assert result.exit_code == 0, result.output
    assert target.exists()
    assert (tmp_path / "scan.mu.csv").exists()
    assert target.read_text().startswith("d,r_sup,sup_ric_annulus,sup_rm_annulus")


def test_curvature_scan_requires_gluing(tmp_path):
    bare = tmp_path / "bare.spec"
    bare.write_text("version 1\ndimension 2\n\n[generator s]\ndiag -1 -1\ntranslation 0 0\n")
    result = CliRunner().invoke(
        main, ["curvature-scan", str(bare), "--csv", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


def test_f_structure_command_exit_codes():
    ok = CliRunner().invoke(main, ["f-structure", EXAMPLE_A])
    assert ok.exit_code == 0, ok.output
    assert "polarized: True  rank: 1" in ok.output
    bad = CliRunner().invoke(main, ["f-structure", EXAMPLE_B])
    assert bad.exit_code == 1
    assert "FAIL  covariance[W_ab]" in bad.output


def test_parse_errors_exit_two(tmp_path):
    broken = tmp_path / "broken.spec"
    broken.write_text("version 1\ndimension 2\n\n[generator g]\nrow 0 0\nrow 0 1\ntranslation 0 0\n")
    result = CliRunner().invoke(main, ["verify", str(broken)])
    assert result.exit_code == 2
    assert "not a flat-torus isometry" in result.output
    missing = CliRunner().invoke(main, ["verify", str(tmp_path / "nope.spec")])
    assert missing.exit_code == 2
