"""Golden outputs: the pwdgenerator demo's instrumentation and reports,
the instrumenter's output on generated programs and the fuzz verdicts
must stay byte-identical across refactors.

A change to what a report says for a given input bumps REPORT_VERSION and
rewrites the files under tests/golden/. A change to what the scenario
generator makes, with every report of a given input unchanged, rewrites
only the two corpus hashes (instrument-generated.sha256 and
fuzz-seed7.sha256) and keeps REPORT_VERSION.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from framevault.cli import main
from framevault.fuzzer import FuzzConfig, check_scenario, generate_scenario
from framevault.program import emit
from framevault.reporting import render_report

from support import DEMO_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
DEMO_MAP = str(DEMO_DIR / "image.map")


def _check_golden(name: str, text: str) -> None:
    assert text == (GOLDEN_DIR / name).read_text()


@pytest.fixture
def demo_program(tmp_path):
    out = tmp_path / "instrumented.json"
    assert main(["instrument", "--program", str(DEMO_DIR / "program.json"),
                 "--untrusted-list", str(DEMO_DIR / "untrusted.list"),
                 "--sensitive-list", str(DEMO_DIR / "sensitive.list"),
                 "-o", str(out)]) == 0
    return str(out)


# capsys comes first so that it is active while demo_program prints the listing.
def test_demo_instrumentation_is_byte_identical(capsys, demo_program):
    _check_golden("pwdgen-instrument.listing", capsys.readouterr().out)
    _check_golden("pwdgen-instrument.json", pathlib.Path(demo_program).read_text())


def test_generated_programs_instrument_byte_identically():
    # Both sensitivity modes, addr-of downgrades, workers that call their
    # lib twice through one Call object, and injected forgeries.
    h = hashlib.sha256()
    for seed in (0, 1):
        for config in (FuzzConfig(), FuzzConfig(max_chain=6), FuzzConfig(adversarial=True)):
            for index in range(200):
                h.update(emit(generate_scenario(seed, index, config).program).encode())
    _check_golden("instrument-generated.sha256", h.hexdigest() + "\n")


@pytest.mark.parametrize("command,fmt", [
    ("run", "text"), ("run", "json"),
    ("native", "text"), ("native", "json"),
    ("diff", "text"), ("diff", "json"),
])
def test_demo_report_is_byte_identical(command, fmt, demo_program, capsys):
    capsys.readouterr()  # drop the provenance listing
    code = main([command, "--program", demo_program, "--image-map", DEMO_MAP,
                 "--format", fmt])
    _check_golden(f"pwdgen-{command}.{fmt}", f"exit {code}\n" + capsys.readouterr().out)


def test_fuzz_verdicts_are_byte_identical():
    h = hashlib.sha256()
    for adversarial, count in ((False, 100), (True, 40)):
        config = FuzzConfig(adversarial=adversarial)
        for index in range(count):
            report, problems = check_scenario(generate_scenario(7, index, config))
            h.update(render_report(report).encode())
            h.update("\n".join(problems).encode() + b"\0")
    _check_golden("fuzz-seed7.sha256", h.hexdigest() + "\n")
