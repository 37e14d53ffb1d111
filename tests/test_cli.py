"""CLI surface tests through click's runner."""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from kummerlab import pipeline, torus
from kummerlab.cli import bundled_examples, main

EXAMPLE_A = bundled_examples()["example-a.spec"]
EXAMPLE_B = bundled_examples()["example-b.spec"]
FOUR_CHART = str(Path(__file__).resolve().parent / "data" / "example-b-four-chart.spec")
# The benchmark's order-32 workload at seed 1 (example-a, conjugated, plus 1/4
# along a circle axis) and example-a plus 1/32 along e1 (order 256).
GROUP_ORDER32 = str(Path(__file__).resolve().parent / "data" / "group-order32.spec")
ORDER_256 = str(Path(__file__).resolve().parent / "data" / "order-256.spec")
ORDER_4096 = str(Path(__file__).resolve().parent / "data" / "order-4096.spec")
# example-a with its origin moved by a vector over 2^70, generators only.
SHIFT70 = str(Path(__file__).resolve().parent / "data" / "example-a-shift70.spec")
# A quarter turn in (x2, x3) and example-a's alpha: a generator permutes axes.
QUARTER_TURN = str(Path(__file__).resolve().parent / "data" / "quarter-turn.spec")
# The benchmark's dense scan at seed 1: five annuli of 2048 radii from d = 8.5.
SCAN_2048 = str(Path(__file__).resolve().parent / "data" / "scan-2048.spec")


def trimmed_spec(tmp_path: Path) -> str:
    """example-a with a lighter gluing block, for fast CLI runs."""
    text = Path(EXAMPLE_A).read_text()
    text = text.replace("d_values 10 20 40 80 160", "d_values 10 20 40 80")
    text = text.replace("annulus_grid 512", "annulus_grid 96")
    text = text.replace("decay_radii 10 20 40 80 160", "decay_radii 10 20 40 80")
    target = tmp_path / "trimmed.spec"
    target.write_text(text)
    return str(target)


def bare_spec(tmp_path: Path) -> str:
    """A two-dimensional spec with one generator and no gluing or atlas: fast to verify."""
    bare = tmp_path / "bare.spec"
    bare.write_text("version 1\ndimension 2\n\n[generator s]\ndiag -1 -1\ntranslation 0 0\n")
    return str(bare)


def test_examples_listing():
    result = CliRunner().invoke(main, ["examples"])
    assert result.exit_code == 0
    assert "example-a.spec" in result.output
    assert "example-b.spec" in result.output


def test_in_process_invocations_free_their_streams(tmp_path):
    """click.echo without file= caches each stream it resolves and never
    frees it; CliRunner brings new streams on every invocation."""
    missing = str(tmp_path / "missing.spec")

    def invoke_both():
        CliRunner().invoke(main, ["examples"])  # stdout
        CliRunner().invoke(main, ["verify", missing])  # stderr, exit 2

    for _ in range(10):
        invoke_both()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(150):
            invoke_both()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes kept by 300 invocations"


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


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


SPIN_SPECS = [
    pytest.param(EXAMPLE_A, "example-a", 0, id="example-a"),
    pytest.param(EXAMPLE_B, "example-b", 1, id="example-b"),
    pytest.param(FOUR_CHART, "example-b-four-chart", 0, id="four-chart"),
    pytest.param(GROUP_ORDER32, "group-order32", 0, id="group-order32"),
    pytest.param(ORDER_256, "order-256", 0, id="order-256"),
    pytest.param(SHIFT70, "example-a-shift70", 0, id="shift70"),
]
# The quarter turn has no spin golden: its spin stage reports an error.
VERIFY_SPECS = pytest.mark.parametrize(
    "spec, stem, code", [*SPIN_SPECS, pytest.param(QUARTER_TURN, "quarter-turn", 0, id="quarter-turn")])


@VERIFY_SPECS
def test_verify_json_report_matches_golden(tmp_path, spec, stem, code):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["--json", str(out), "verify", spec])
    assert result.exit_code == code, result.output
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


@VERIFY_SPECS
def test_verify_stdout_matches_golden(spec, stem, code):
    result = CliRunner().invoke(main, ["verify", spec])
    assert result.exit_code == code, result.output
    assert result.stdout_bytes == (GOLDEN / f"{stem}.verify.txt").read_bytes()


@VERIFY_SPECS
def test_fixed_locus_stdout_matches_golden(spec, stem, code):
    result = CliRunner().invoke(main, ["fixed-locus", spec])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / f"{stem}.fixed-locus.txt").read_bytes()


@pytest.mark.parametrize("spec, stem, code", SPIN_SPECS)
@pytest.mark.parametrize("flags, suffix", [([], "spin"), (["--square-plus"], "spin-square-plus")],
                         ids=["default", "square-plus"])
def test_spin_stdout_matches_golden(spec, stem, code, flags, suffix):
    result = CliRunner().invoke(main, ["spin", spec, *flags])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / f"{stem}.{suffix}.txt").read_bytes()


def test_curvature_scan_csvs_match_golden(tmp_path):
    result = CliRunner().invoke(main, ["curvature-scan", EXAMPLE_A, "--csv", str(tmp_path / "scan.csv")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "scan.csv").read_bytes() == (GOLDEN / "example-a.scan.csv").read_bytes()
    assert (tmp_path / "scan.mu.csv").read_bytes() == (GOLDEN / "example-a.scan.mu.csv").read_bytes()


def test_goldens_do_not_depend_on_the_exp_kernel(tmp_path, libm_exp):
    """verify and the dense scan write their goldens with Jet.exp on libm's
    kernel too, not only on the one numpy dispatches to on this CPU."""
    report, scan = tmp_path / "report.json", tmp_path / "scan.csv"
    verify = CliRunner().invoke(main, ["--json", str(report), "verify", EXAMPLE_A])
    assert verify.exit_code == 0, verify.output
    golden = (GOLDEN / "example-a.verify.txt").read_bytes()
    assert verify.stdout_bytes == golden + f"wrote {report}\n".encode()
    assert report.read_bytes() == (GOLDEN / "example-a.json").read_bytes()
    dense = CliRunner().invoke(main, ["curvature-scan", SCAN_2048, "--csv", str(scan)])
    assert dense.exit_code == 0, dense.output
    assert scan.read_bytes() == (GOLDEN / "scan-dense" / "d0-8.5.scan.csv").read_bytes()
    assert (tmp_path / "scan.mu.csv").read_bytes() == (GOLDEN / "scan-dense" / "d0-8.5.scan.mu.csv").read_bytes()
    assert libm_exp.calls > 0


STAGE_SPECS = pytest.mark.parametrize(
    "spec, stem", [(EXAMPLE_A, "example-a"), (EXAMPLE_B, "example-b"), (FOUR_CHART, "example-b-four-chart")],
    ids=["example-a", "example-b", "four-chart"],
)


@STAGE_SPECS
@pytest.mark.parametrize("command", ["f-structure", "betti", "census"])
def test_stage_stdout_matches_golden(spec, stem, command):
    result = CliRunner().invoke(main, [command, spec])
    assert result.exit_code == (1 if (command, stem) == ("f-structure", "example-b") else 0), result.output
    assert result.stdout_bytes == (GOLDEN / f"{stem}.{command}.txt").read_bytes()


def test_betti_stdout_with_a_permuted_axis_matches_golden():
    result = CliRunner().invoke(main, ["betti", QUARTER_TURN])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / "quarter-turn.betti.txt").read_bytes()


@pytest.mark.parametrize("command", ["census", "spin"])
def test_stage_error_with_a_permuted_axis_matches_golden(command):
    result = CliRunner().invoke(main, [command, QUARTER_TURN])
    assert result.exit_code == 2, result.output
    assert result.stdout_bytes == b""
    assert result.stderr_bytes == (GOLDEN / f"quarter-turn.{command}.stderr.txt").read_bytes()


@STAGE_SPECS
def test_f_structure_json_report_matches_golden(tmp_path, spec, stem):
    out = tmp_path / "f-structure.json"
    result = CliRunner().invoke(main, ["--json", str(out), "f-structure", spec])
    assert result.exit_code == (1 if stem == "example-b" else 0), result.output
    assert out.read_bytes() == (GOLDEN / f"{stem}.f-structure.json").read_bytes()


@pytest.mark.parametrize("command", ["verify", "f-structure"])
def test_json_report_is_encoded_only_on_request(tmp_path, monkeypatch, command):
    """Without --json no report is encoded; with it, one is.  Stdout and
    the exit code are the same either way, but for the line naming the file."""
    calls = []
    original = pipeline.Report.to_json
    monkeypatch.setattr(pipeline.Report, "to_json", lambda self: calls.append(1) or original(self))
    spec = trimmed_spec(tmp_path)
    plain = CliRunner().invoke(main, [command, spec])
    assert calls == []
    out = tmp_path / "report.json"
    with_json = CliRunner().invoke(main, ["--json", str(out), command, spec])
    assert calls == [1]
    assert with_json.exit_code == plain.exit_code
    assert with_json.output == plain.output + f"wrote {out}\n"
    json.loads(out.read_text())


def test_verify_json_report_independent_of_working_directory(tmp_path, monkeypatch):
    spec = Path(trimmed_spec(tmp_path))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    monkeypatch.chdir(tmp_path)
    r1 = CliRunner().invoke(main, ["--json", str(out1), "verify", spec.name])
    monkeypatch.chdir(tmp_path.parent)
    r2 = CliRunner().invoke(main, ["--json", str(out2), "verify", str(Path(tmp_path.name) / spec.name)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["spec"]["source"] == "trimmed.spec"


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


def test_fixed_locus_unknown_element_error_names_generators_not_elements():
    result = CliRunner().invoke(main, ["--max-group-order", "4096", "fixed-locus", ORDER_4096, "--element", "nope"])
    assert result.exit_code == 2
    assert len(result.stderr_bytes) < 1024
    assert result.stderr.startswith("error: unknown element 'nope'; the group has 4096 elements")
    assert "generators alpha, beta, gamma, tau" in result.stderr


@pytest.mark.parametrize("element, calls", [(None, 4), ("alpha*beta", 1), ("tau", 1)])
def test_fixed_locus_computes_only_the_printed_loci(monkeypatch, element, calls):
    made = []
    original = torus.fixed_locus

    def counted(f):
        made.append(f)
        return original(f)

    monkeypatch.setattr(torus, "fixed_locus", counted)
    result = CliRunner().invoke(main, ["fixed-locus", ORDER_256] + (["--element", element] if element else []))
    assert result.exit_code == 0, result.output
    assert len(made) == calls
    assert result.output.count(" component(s)") == calls


def test_spin_computes_no_fixed_locus(monkeypatch):
    made = []
    original = torus.fixed_locus

    def counted(f):
        made.append(f)
        return original(f)

    monkeypatch.setattr(torus, "fixed_locus", counted)
    result = CliRunner().invoke(main, ["--max-group-order", "4096", "spin", ORDER_4096])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("verdict: UNSUPPORTED  reason: group has exponent 512;")
    assert made == []


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


def test_betti_refusal_carries_the_census_error(tmp_path):
    spec = tmp_path / "tori.spec"
    spec.write_text("version 1\ndimension 5\n\n[generator s]\ndiag -1 -1 1 1 1\ntranslation 0 0 0 0 0\n")
    result = CliRunner().invoke(main, ["betti", str(spec)])
    assert result.exit_code == 0, result.output
    assert "orbifold betti: [1, 3, 4, 4, 3, 1]" in result.output
    assert "resolved: refused (census unavailable: circles-only census requested" in result.output


def test_curvature_scan_writes_both_tables(tmp_path):
    spec = trimmed_spec(tmp_path)
    target = tmp_path / "scan.csv"
    result = CliRunner().invoke(main, ["curvature-scan", spec, "--csv", str(target)])
    assert result.exit_code == 0, result.output
    assert target.exists()
    assert (tmp_path / "scan.mu.csv").exists()
    assert target.read_text().startswith("d,r_sup,sup_ric_annulus,sup_rm_annulus")


def test_curvature_scan_csvs_keep_every_digit_of_d(tmp_path):
    d_values = ["12.3456789", "24.6913578", "49.3827156", "98.7654312"]
    spec = Path(trimmed_spec(tmp_path))
    spec.write_text(spec.read_text().replace("d_values 10 20 40 80", "d_values " + " ".join(d_values)))
    result = CliRunner().invoke(main, ["curvature-scan", str(spec), "--csv", str(tmp_path / "s.csv")])
    assert result.exit_code == 0, result.output
    for name in ("s.csv", "s.mu.csv"):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == d_values


def test_curvature_scan_requires_gluing(tmp_path):
    result = CliRunner().invoke(
        main, ["curvature-scan", bare_spec(tmp_path), "--csv", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


def test_fixed_locus_prints_repeated_and_identity_generators(tmp_path):
    alpha = "diag 1 -1 -1 -1 -1\ntranslation 0 0 0 1/2 0\n"
    spec = tmp_path / "repeated.spec"
    spec.write_text(
        "version 1\ndimension 5\n\n[generator s]\n" + alpha + "\n[generator t]\n" + alpha
        + "\n[generator e1]\ndiag 1 1 1 1 1\ntranslation 0 0 0 0 0\n"
    )
    result = CliRunner().invoke(main, ["fixed-locus", str(spec)])
    assert result.exit_code == 0, result.output
    heads = [ln for ln in result.output.splitlines() if not ln.startswith(" ")]
    assert heads == ["s: 16 component(s)", "t: 16 component(s)", "e1: 1 component(s)"]
    blocks = result.output.split("t: 16 component(s)\n")
    assert blocks[0].split("\n", 1)[1] == blocks[1].split("e1:")[0]
    alone = CliRunner().invoke(main, ["fixed-locus", str(spec), "--element", "t"])
    assert alone.exit_code == 0 and alone.output.startswith("t: 16 component(s)")


def test_f_structure_command_exit_codes():
    ok = CliRunner().invoke(main, ["f-structure", EXAMPLE_A])
    assert ok.exit_code == 0, ok.output
    assert "polarized: True  rank: 1" in ok.output
    bad = CliRunner().invoke(main, ["f-structure", EXAMPLE_B])
    assert bad.exit_code == 1
    assert "FAIL  covariance[W_ab]" in bad.output


def test_chart_centers_are_torus_points(tmp_path):
    """Centers are read mod 1: an unreduced copy of W_alpha's centers is the same chart."""
    spec = edited_example_a(tmp_path, "centers 0,0 0,3/2 -1/2,0 1/2,1/2")
    result = CliRunner().invoke(main, ["f-structure", str(spec)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / "example-a.f-structure.txt").read_bytes()


def test_parse_errors_exit_two(tmp_path):
    broken = tmp_path / "broken.spec"
    broken.write_text("version 1\ndimension 2\n\n[generator g]\nrow 0 0\nrow 0 1\ntranslation 0 0\n")
    result = CliRunner().invoke(main, ["verify", str(broken)])
    assert result.exit_code == 2
    assert "not a flat-torus isometry" in result.output
    missing = CliRunner().invoke(main, ["verify", str(tmp_path / "nope.spec")])
    assert missing.exit_code == 2


# A repeated single-valued key or section used to override or merge silently.
REPEATED_KEY = ("annulus_grid 512", "annulus_grid 512\nannulus_grid 96")
REPEATED_GLUING = ("ricci_flat_tol 1e-6", "ricci_flat_tol 1e-6\n[gluing]\nd_values 8 16 32 64")
REPEATED_EXPECTED = ("f_rank 1", "f_rank 1\n[expected]\norbits 11")


@pytest.mark.parametrize(
    "line",
    [
        "d_values 2 20",
        "d_values nan 20 40 80",
        "d_values 10 20 40 inf",
        "d_values 10",
        "d_values",
        "annulus_grid 0",
        "ricci_flat_radii 0.5 2",
        "decay_radii -1 20",
        "constrained 6 7",
        "constrained 2 2",
        "action 9",
        "centers 1/0,0 0,1/2 1/2,0 1/2,1/2",
        "of W_alpha W_zzz",
        "kind",
        "epsilon",
        "covering",
        "shrink",
        "annulus_grid 3000000000",
        ("epsilon 1/128", "epsilon"),
        ("[generator beta]", "[generator alpha]"),
        ("[chart W_beta]", "[chart W_alpha]"),
        REPEATED_KEY,
        REPEATED_GLUING,
        REPEATED_EXPECTED,
        "centers 0,0 0,0 1/2,0 1/2,1/2",
        "centers 0,0 0,1/2 1/2,0 -1/2,0",
        "psi alpha + -",
        "psi alpha + - - +",
        "psi alpha",
        ("action 1 4 5", "action 1 4"),
    ],
)
def test_out_of_domain_spec_values_exit_two(tmp_path, line):
    """A line replaces the first line of example-a with the same key; a pair
    (old, new) replaces every line that reads old (new may span lines)."""
    spec = edited_example_a(tmp_path, line)
    result = CliRunner().invoke(main, ["verify", str(spec)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {spec}:")


def edited_example_a(tmp_path: Path, line) -> Path:
    lines = Path(EXAMPLE_A).read_text().splitlines()
    if isinstance(line, tuple):
        lines = [line[1] if ln == line[0] else ln for ln in lines]
    else:
        key = line.split()[0]
        lines[next(i for i, ln in enumerate(lines) if ln.split()[:1] == [key])] = line
    spec = tmp_path / "bad.spec"
    spec.write_text("\n".join(lines) + "\n")
    return spec


@pytest.mark.parametrize(
    "edit, errors",
    [
        (("epsilon 1/128", "epsilon"), ["30 [epsilon] epsilon needs a value",
                                        "38 [epsilon] epsilon needs a value",
                                        "46 [epsilon] epsilon needs a value"]),
        (("[generator beta]", "[generator alpha]"), ["12 [section] repeated generator name 'alpha'"]),
        (("[chart W_beta]", "[chart W_alpha]"), [
            "35 [section] repeated chart name 'W_alpha'",
            "53 [chart V] of names no ball chart of the atlas: W_beta",
        ]),
        ("annulus_grid 3000000000", ["22 [annulus_grid] annulus_grid must be an integer in 2..1048576"]),
        (REPEATED_KEY, ["23 [annulus_grid] repeated key 'annulus_grid' in [gluing]"]),
        (REPEATED_GLUING, ["26 [section] repeated section [gluing]"]),
        (REPEATED_EXPECTED, ["72 [section] repeated section [expected]"]),
        ("centers 0,0 0,0 1/2,0 1/2,1/2", ["27 [chart W_alpha] chart W_alpha: centers repeat mod 1"]),
        (("action 1 4 5", "action 1 4"), [f"{ln} [psi] expected 2 signs, one per acting direction"
                                          for ln in (57, 58, 59)]),
    ],
)
def test_spec_errors_name_only_their_own_lines(tmp_path, edit, errors):
    spec = edited_example_a(tmp_path, edit)
    result = CliRunner().invoke(main, ["verify", str(spec)])
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines() == [f"error: {spec}:{e}" for e in errors]


def undecodable_spec(tmp_path: Path) -> str:
    target = tmp_path / "latin1.spec"
    target.write_bytes(b"version 1\ndimension 2\n# caf\xe9\n")
    return str(target)


NO_DIR = "No such file or directory"
SCALE = "--tolerance-scale must be finite and > 0"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(lambda t: ["verify", str(t)], "cannot read {t}: Is a directory", id="directory"),
        pytest.param(lambda t: ["verify", undecodable_spec(t)],
                     "cannot read {t}/latin1.spec: 'utf-8' codec can't decode", id="not-utf8"),
        pytest.param(lambda t: ["--json", str(t / "no" / "x.json"), "verify", bare_spec(t)],
                     f"cannot write {{t}}/no/x.json: {NO_DIR}", id="json-verify"),
        pytest.param(lambda t: ["--json", str(t / "no" / "x.json"), "f-structure", EXAMPLE_A],
                     f"cannot write {{t}}/no/x.json: {NO_DIR}", id="json-f-structure"),
        pytest.param(lambda t: ["curvature-scan", trimmed_spec(t), "--csv", str(t / "no" / "x.csv")],
                     f"cannot write {{t}}/no/x.csv: {NO_DIR}", id="csv"),
        pytest.param(lambda t: ["--tolerance-scale", "inf", "verify", bare_spec(t)], SCALE, id="scale-inf"),
        pytest.param(lambda t: ["--tolerance-scale", "nan", "verify", bare_spec(t)], SCALE, id="scale-nan"),
        pytest.param(lambda t: ["--tolerance-scale", "0", "verify", bare_spec(t)], SCALE, id="scale-zero"),
        pytest.param(lambda t: ["--tolerance-scale", "-1", "verify", bare_spec(t)], SCALE, id="scale-negative"),
        pytest.param(lambda t: ["--max-group-order", "0", "verify", bare_spec(t)],
                     "--max-group-order must be at least 1", id="cap-zero"),
    ],
)
def test_file_and_option_errors_exit_two(tmp_path, args, message):
    result = CliRunner().invoke(main, args(tmp_path))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: " + message.format(t=tmp_path))


def order32_spec(tmp_path: Path) -> str:
    """example-a's generators plus a quarter translation along alpha's circle: exponent 4."""
    text = Path(EXAMPLE_A).read_text().split("[gluing]")[0]
    target = tmp_path / "order32.spec"
    target.write_text(text + "[generator tau]\ndiag 1 1 1 1 1\ntranslation 1/4 0 0 0 0\n")
    return str(target)


def test_spin_unsupported_beyond_elementary_abelian_groups(tmp_path):
    # s squares to the translation by 1/2 along e3: an element of order 4.
    spec = tmp_path / "order4.spec"
    spec.write_text("version 1\ndimension 3\n\n[generator s]\ndiag -1 -1 1\ntranslation 0 0 1/4\n")
    result = CliRunner().invoke(main, ["spin", str(spec)])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("verdict: UNSUPPORTED  reason: group has exponent 4;")
    assert "lift(" not in result.output


def test_spin_non_diagonal_generator_is_input_error(tmp_path):
    spec = tmp_path / "swap.spec"
    spec.write_text("version 1\ndimension 2\n\n[generator s]\nrow 0 1\nrow 1 0\ntranslation 0 0\n")
    result = CliRunner().invoke(main, ["spin", str(spec)])
    assert result.exit_code == 2
    assert result.output == "error: diagonal entries must be +1 or -1\n"


@pytest.mark.parametrize("command", ["fixed-locus", "census", "spin", "betti", "f-structure"])
def test_subcommand_group_cap_is_input_error(command):
    result = CliRunner().invoke(main, ["--max-group-order", "4", command, EXAMPLE_A])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: group closure exceeded the cap of 4 elements" in result.output


@pytest.mark.parametrize("command", ["verify", "census"])
def test_memory_error_is_input_error(command, monkeypatch):
    def exhausted(group):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(torus, "singular_census", exhausted)
    result = CliRunner().invoke(main, [command, GROUP_ORDER32])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: out of memory"), result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("which", ["example-a", "example-b", "four-chart", "order32"])
def test_subcommands_print_the_verify_sections(which, tmp_path):
    spec = {"example-a": EXAMPLE_A, "example-b": EXAMPLE_B, "four-chart": FOUR_CHART}.get(which)
    spec = spec or order32_spec(tmp_path)
    runner = CliRunner()
    out = tmp_path / "report.json"
    runner.invoke(main, ["--json", str(out), "verify", spec])
    report = json.loads(out.read_text())

    def lines(command):
        result = runner.invoke(main, [command, spec])
        assert result.exit_code in (0, 1), result.output
        return result.output.splitlines()

    assert lines("spin")[-1].split()[:2] == ["verdict:", report["spin"]["verdict"]]

    census, section = lines("census"), report["census"]
    assert census[0] == (
        f"{section['total_components']} components in {section['orbit_count']} orbits "
        f"(sizes {sorted(section['orbit_sizes'])})"
    )
    assert [int(row.split()[2]) for row in census[1:]] == section["orbit_sizes"]

    betti, section = lines("betti"), report["betti"]
    resolved = section["resolved"]
    assert betti[0] == f"orbifold betti: {section['orbifold']}"
    assert betti[2] == (
        f"resolved: b2 = {resolved['b2']}, b3 = {resolved['b3']}, euler = {resolved['euler']}"
    )

    if "f_structure" in report:
        rows = [row.split()[:2] for row in lines("f-structure")[:-1]]
        assert rows == [[c["status"], c["name"]] for c in report["f_structure"]["checks"]]
