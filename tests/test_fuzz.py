"""Seeded spec fuzzing through the CLI.

Each mutant of a bundled spec drops, duplicates, garbles or truncates
lines, perturbs its rationals, or gains random signed-permutation
generators.  Whatever the mutant says, every subcommand that reads a spec
must end with a documented exit code (0 PASS, 1 FAIL, 2 input error) and
never with an uncaught exception.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from kummerlab.cli import bundled_examples, main

SOURCES = [Path(p).read_text() for p in bundled_examples().values()]
JUNK = ["", "x", "-", "+", "0", "-7", "99", "1/0", "0/3", "3/2", "nan", "inf", "1e999", ",", "1/2,", "[", "]"]
RATIONAL = re.compile(r"(?<![\w.])-?\d+(/\d+)?(?![\w.])")


def random_rational(rng: random.Random) -> str:
    return f"{rng.randint(-3, 9)}/{rng.choice([0, 1, 2, 3, 4, 8])}"


def random_generator(rng: random.Random, index: int) -> list[str]:
    n = 5
    perm = rng.sample(range(n), n)
    lines = ["", f"[generator r{index}]"]
    for i in range(n):
        lines.append("row " + " ".join(str(rng.choice((1, -1))) if j == perm[i] else "0" for j in range(n)))
    lines.append("translation " + " ".join(rng.choice(["0", "1/2", "1/4", "3/4"]) for _ in range(n)))
    return lines


def mutate(rng: random.Random, text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2:
            toks = lines[k].split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(JUNK)
            lines[k] = " ".join(toks)
        elif op == 3:
            lines[k] = RATIONAL.sub(lambda m: random_rational(rng) if rng.random() < 0.5 else m.group(0), lines[k])
        elif op == 4:
            lines[k] = (lines[k].split() or [""])[0]
        else:
            at = next((i for i, ln in enumerate(lines) if ln.startswith("[gluing]")), len(lines))
            lines[at:at] = random_generator(rng, k)
    return "\n".join(lines) + "\n"


MUTANTS = [mutate(random.Random(seed), SOURCES[seed % len(SOURCES)]) for seed in range(100)]


@pytest.mark.parametrize("seed", range(len(MUTANTS)))
def test_mutated_spec_never_tracebacks(tmp_path, seed):
    spec = tmp_path / f"mutant{seed}.spec"
    spec.write_text(MUTANTS[seed])
    csv = ["--csv", str(tmp_path / "scan.csv")]
    for command in ("verify", "census", "f-structure", "spin", "betti", "fixed-locus", "curvature-scan"):
        args = [command, str(spec)] + (csv if command == "curvature-scan" else [])
        result = CliRunner().invoke(main, ["--max-group-order", "64"] + args)
        assert result.exit_code in (0, 1, 2), (command, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            command,
            MUTANTS[seed],
            repr(result.exception),
        )


def test_mutants_reach_every_exit_code(tmp_path):
    codes = set()
    for seed, text in enumerate(MUTANTS):
        spec = tmp_path / f"mutant{seed}.spec"
        spec.write_text(text)
        codes.add(CliRunner().invoke(main, ["--max-group-order", "64", "f-structure", str(spec)]).exit_code)
    assert codes == {0, 1, 2}
