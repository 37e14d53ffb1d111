from fractions import Fraction

import pytest

from kummerlab.cli import bundled_examples
from kummerlab.specfile import MAX_SCAN_RADIUS, SpecParseError, parse_construction_text

HALF = Fraction(1, 2)

MINIMAL = """
version 1
dimension 2

[generator s]
diag -1 -1
translation 1/2 0
"""


def test_bundled_first_example_generators(spec_a):
    assert spec_a.version == 1
    assert spec_a.dimension == 5
    assert spec_a.generator_names == ["alpha", "beta", "gamma"]
    translations = [g.translation for g in spec_a.generators]
    assert translations == [
        (0, 0, 0, HALF, 0),
        (0, HALF, 0, 0, 0),
        (0, 0, HALF, 0, 0),
    ]
    diags = [[g.linear[i][i] for i in range(5)] for g in spec_a.generators]
    assert diags == [
        [1, -1, -1, -1, -1],
        [-1, -1, -1, 1, -1],
        [-1, -1, -1, -1, 1],
    ]
    assert spec_a.gluing is not None
    assert spec_a.gluing.d_values == [10, 20, 40, 80, 160]
    assert len(spec_a.atlas) == 4
    assert spec_a.expected["b2_resolved"] == 13


def test_bundled_second_example_generators(spec_b):
    diags = [[g.linear[i][i] for i in range(5)] for g in spec_b.generators]
    assert diags == [
        [1, -1, -1, -1, -1],
        [-1, 1, -1, -1, -1],
        [-1, -1, -1, -1, 1],
    ]
    assert spec_b.generators[0].translation == (0, 0, 0, 0, HALF)
    assert spec_b.expected["b2_resolved"] == 17
    assert spec_b.expected["half_orbits"] == 8


def test_minimal_spec_parses():
    spec = parse_construction_text(MINIMAL)
    assert spec.dimension == 2
    assert spec.generator_names == ["s"]
    assert spec.gluing is None
    assert spec.atlas == []


def test_row_form_and_swap_blocks():
    text = """
version 1
dimension 3

[generator swap]
row 0 1 0
row 1 0 0
row 0 0 -1
translation 0 0 1/2
"""
    spec = parse_construction_text(text)
    assert spec.generators[0].linear == ((0, 1, 0), (1, 0, 0), (0, 0, -1))


def test_zero_row_rejected_as_non_isometry():
    text = """
version 1
dimension 2

[generator bad]
row 0 0
row 0 1
translation 0 0
"""
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert any("not a flat-torus isometry" in why for _, _, why in err.value.errors)


def test_non_orthogonal_matrix_rejected():
    text = """
version 1
dimension 2

[generator shear]
row 1 1
row 0 1
translation 0 0
"""
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert any("not a flat-torus isometry" in why for _, _, why in err.value.errors)


def test_unreduced_rationals_normalized():
    text = MINIMAL.replace("1/2 0", "2/4 3/3")
    spec = parse_construction_text(text)
    assert spec.generators[0].translation == (HALF, 0)  # 3/3 reduces to 0 mod 1


def test_unknown_version_and_line_numbers():
    text = "version 99\ndimension 2\n\n[generator s]\ndiag -1 -1\ntranslation 0 0\n"
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert (1, "version", "unknown version 99") in err.value.errors


def test_missing_dimension_reported():
    with pytest.raises(SpecParseError) as err:
        parse_construction_text("version 1\n\n[generator s]\ndiag -1\ntranslation 0\n")
    assert any(field == "dimension" for _, field, _ in err.value.errors)


def test_error_collection_reports_multiple():
    text = """
version 1
dimension 2

[generator a]
diag -1 -1 -1
translation 0 0

[generator b]
diag -1 -1
translation 1/0 0
"""
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert len(err.value.errors) >= 2


def test_expected_block_unknown_field():
    text = MINIMAL + "\n[expected]\nmystery 3\n"
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert any("unknown expected field" in why for _, _, why in err.value.errors)


@pytest.mark.parametrize(
    "row, why",
    [("abelian ture", "abelian must be true or false, got 'ture'"),
     ("spin nonspn", "spin must be nonspin or no-obstruction, got 'nonspn'"),
     ("pi1 pass", "pi1 must be PASS or FAIL, got 'pass'")],
    ids=["abelian", "spin", "pi1"],
)
def test_expected_words_no_stage_can_produce_are_rejected(row, why):
    # The [expected] block's first row is line 10 of the text.
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(MINIMAL + "\n[expected]\n" + row + "\n")
    assert err.value.errors == [(10, "expected", why)]


def test_expected_words_every_stage_value_parses():
    text = MINIMAL + "\n[expected]\nabelian TRUE\nspin no-obstruction\npi1 FAIL\n"
    assert parse_construction_text(text).expected == {"abelian": True, "spin": "no-obstruction", "pi1": "FAIL"}
    for word in ("nonspin", "no-obstruction"):
        assert parse_construction_text(MINIMAL + f"\n[expected]\nspin {word}\n").expected["spin"] == word
    assert parse_construction_text(MINIMAL + "\n[expected]\nabelian False\npi1 PASS\n").expected == {
        "abelian": False, "pi1": "PASS"}


@pytest.mark.parametrize(
    "after, line, error",
    [
        (10, "translaton 0 0 0 0 0", (11, "generator", "unknown generator field 'translaton'")),
        (22, "annulus_gird 4096", (23, "gluing", "unknown gluing field 'annulus_gird'")),
        (10, "translation 0 0 0 0 0", (11, "translation", "repeated key 'translation' in [generator]")),
        (30, "epsilon 1/64", (31, "epsilon", "repeated key 'epsilon' in [chart]")),
        (9, "row 1 0 0 0 0", (8, "generator", "generator takes a 'diag' or 'row' linear part, not both")),
        (65, "orbits 99", (67, "orbits", "repeated key 'orbits' in [expected]")),
        (59, "psi alpha - - -", (60, "psi", "repeated psi name 'alpha'")),
        (64, "fixed_circles alpha 16", (65, "expected", "repeated fixed_circles name 'alpha'")),
        (59, "psi zeta + - -", (60, "psi", "unknown generator 'zeta' in 'zeta'")),
        (59, "psi alpha*zeta + - -", (60, "psi", "unknown generator 'zeta' in 'alpha*zeta'")),
        (64, "fixed_circles zeta 16", (65, "expected", "unknown generator 'zeta' in 'zeta'")),
        (64, "fixed_circles zeta*beta 16", (65, "expected", "unknown generator 'zeta' in 'zeta*beta'")),
    ],
    ids=["unknown-generator-key", "unknown-gluing-key", "repeated-translation", "repeated-epsilon",
         "diag-and-row", "repeated-orbits", "repeated-psi", "repeated-fixed-circles", "unknown-psi-name",
         "unknown-psi-factor", "unknown-fixed-circles-name", "unknown-fixed-circles-factor"],
)
def test_every_section_checks_its_keys(after, line, error):
    """A line inserted after line `after` of example-a is named as its only error."""
    lines = open(bundled_examples()["example-a.spec"], encoding="utf-8").read().splitlines()
    lines.insert(after, line)
    with pytest.raises(SpecParseError) as err:
        parse_construction_text("\n".join(lines))
    assert err.value.errors == [error]



def test_element_words_of_declared_generators_parse():
    """e, products and non-canonical products of declared names all parse:
    resolving a word to an element is left to the stage that reads it."""
    lines = open(bundled_examples()["example-a.spec"], encoding="utf-8").read().splitlines()
    lines[61:64] = ["fixed_circles e 0", "fixed_circles beta*alpha 0", "fixed_circles alpha*beta*gamma 0"]
    expected = parse_construction_text("\n".join(lines)).expected["fixed_circles"]
    assert expected == {"e": 0, "beta*alpha": 0, "alpha*beta*gamma": 0}


def test_section_headers_name_exactly_the_sections_that_take_names():
    """[generator] and [chart] need a name, [gluing] and [expected] take
    none: each wrong header is an error on its own line, where the parser
    used to read a lone word as both kind and name and drop a name."""
    text = ("version 1\ndimension 5\n\n[generator]\ndiag 1 -1 -1 1 1\ntranslation 1/2 0 0 0 0\n\n"
            "[gluing extra]\n\n[expected more]\n\n[chart]\nkind full\n")
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert err.value.errors == [
        (4, "section", "[generator] needs a name"),
        (8, "section", "[gluing] takes no name, got 'extra'"),
        (10, "section", "[expected] takes no name, got 'more'"),
        (12, "section", "[chart] needs a name"),
    ]


def test_each_field_of_a_section_reports_its_own_error():
    """A bad diag does not hide a bad translation: each is an error on its own line."""
    text = MINIMAL.replace("diag -1 -1", "diag -1").replace("translation 1/2 0", "translation 1/0 0")
    with pytest.raises(SpecParseError) as err:
        parse_construction_text(text)
    assert err.value.errors == [
        (6, "diag", "expected 2 diagonal entries"),
        (7, "translation", "zero denominator in '1/0'"),
    ]


@pytest.mark.parametrize(
    "old, new, error",
    [
        ("diag 1 -1 -1 -1 -1", "diag 1 -1 -1 -1 x", (9, "diag", "expected an integer, got 'x'")),
        ("action 4", "action four", (39, "action", "expected an integer, got 'four'")),
        ("d_values 10 20 40 80 160", "d_values 10 20 4O 80 160", (21, "d_values", "expected a number, got '4O'")),
        ("ricci_flat_radii 1.2 2 5 20 50", "ricci_flat_radii 1.2 2 5 2,0 50",
         (24, "ricci_flat_radii", "expected a number, got '2,0'")),
        ("translation 0 0 0 1/2 0", "translation 0 0 0 1/two 0",
         (10, "translation", "expected a rational p/q, got '1/two'")),
        ("epsilon 1/128", "epsilon 1//128", (30, "epsilon", "expected a rational p/q, got '1//128'")),
        ("centers 0,0 0,1/2 1/2,0 1/2,1/2", "centers 0,0 0,1/2 1/2,0 1/2,half",
         (29, "centers", "expected a rational p/q, got 'half'")),
    ],
    ids=["diag", "action", "d_values", "ricci_flat_radii", "translation", "epsilon", "centers"],
)
def test_bad_numbers_are_named_in_the_spec_terms(old, new, error):
    """A token that is no integer, number or rational, edited into the
    first line of example-a that reads old, is its only error."""
    lines = open(bundled_examples()["example-a.spec"], encoding="utf-8").read().splitlines()
    lines[lines.index(old)] = new
    with pytest.raises(SpecParseError) as err:
        parse_construction_text("\n".join(lines))
    assert err.value.errors == [error]


def test_gluing_values_reach_the_scan_bound():
    """d values and radii up to MAX_SCAN_RADIUS = 2^64 parse; one past it is
    an error (tests/test_cli.py)."""
    text = open(bundled_examples()["example-a.spec"], encoding="utf-8").read()
    powers = " ".join(str(2**k) for k in range(60, 65))
    for old, new in (("d_values 10 20 40 80 160", f"d_values {powers}"),
                     ("decay_radii 10 20 40 80 160", f"decay_radii {powers}"),
                     ("ricci_flat_radii 1.2 2 5 20 50", f"ricci_flat_radii 1.2 {2**64}")):
        text = text.replace(old, new)
    gluing = parse_construction_text(text).gluing
    assert gluing.d_values == gluing.decay_radii == [2.0**k for k in range(60, 65)]
    assert gluing.ricci_flat_radii[-1] == MAX_SCAN_RADIUS == 2.0**64


@pytest.mark.parametrize(
    "key, header, chart",
    [("constrained", 27, "W_alpha"), ("centers", 27, "W_alpha"), ("epsilon", 27, "W_alpha"), ("of", 51, "V")],
)
def test_a_missing_required_chart_key_is_named_on_the_header_line(key, header, chart):
    """Example-a with the first line of a chart's required key deleted."""
    lines = open(bundled_examples()["example-a.spec"], encoding="utf-8").read().splitlines()
    del lines[next(i for i, line in enumerate(lines) if line.split()[:1] == [key])]
    kind = "complement" if key == "of" else "ball"
    with pytest.raises(SpecParseError) as err:
        parse_construction_text("\n".join(lines))
    assert err.value.errors == [(header, f"chart {chart}", f"{kind} chart {chart} has no {key} line")]


@pytest.mark.parametrize(
    "key, line, error",
    [("centers", 29, "centers needs at least one x,y pair"), ("of", 53, "of needs at least one chart name")],
)
def test_an_empty_chart_list_is_an_error_on_its_own_line(key, line, error):
    """Example-a with the first line of a chart's list key emptied: the
    error is on that line, and the chart's header reports nothing."""
    lines = open(bundled_examples()["example-a.spec"], encoding="utf-8").read().splitlines()
    lines[line - 1] = key
    with pytest.raises(SpecParseError) as err:
        parse_construction_text("\n".join(lines))
    assert err.value.errors == [(line, key, error)]
