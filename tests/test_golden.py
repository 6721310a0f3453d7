"""Golden outputs: the pwdgenerator demo's reports and the fuzz verdicts
must stay byte-identical across refactors. A change that alters them on
purpose bumps REPORT_VERSION and rewrites the files under tests/golden/.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from framevault.cli import main
from framevault.fuzzer import FuzzConfig, check_scenario, generate_scenario
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


@pytest.mark.parametrize("command,fmt", [
    ("run", "text"), ("run", "json"),
    ("native", "text"), ("native", "json"),
    ("diff", "text"), ("diff", "json"),
    ("stats", "text"),
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
