"""Command line behaviour: exit codes, byte-stable output, and the demo
files shipping in demos/pwdgenerator."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from framevault.cli import main
from framevault.executor import image_map_for
from framevault.fuzzer import MAX_CHAIN, FuzzConfig, generate_scenario, scenario_to_json
from framevault.memory import HEAP_BASE
from framevault.program import (MAX_PROBE_BYTES, AbsoluteTarget, Call, FunctionDesc,
                                ProgramDesc, ReadProbe, Return, emit, parse)

from support import DEMO_DIR, PWDGEN_MAP, pwdgen_instrumented
from test_fuzz import (LEAKY_CONFIG, LEAKY_FINDINGS, LEAKY_SEED, faulting_scenario,
                       runtime_saves_without_clearing)

DEMO_PROGRAM = str(DEMO_DIR / "program.json")
DEMO_MAP = str(DEMO_DIR / "image.map")
DEMO_UNTRUSTED = str(DEMO_DIR / "untrusted.list")
DEMO_SENSITIVE = str(DEMO_DIR / "sensitive.list")


@pytest.fixture
def instrumented_file(tmp_path):
    out = tmp_path / "instrumented.json"
    code = main(["instrument", "--program", DEMO_PROGRAM,
                 "--untrusted-list", DEMO_UNTRUSTED,
                 "--sensitive-list", DEMO_SENSITIVE,
                 "-o", str(out)])
    assert code == 0
    return out


class TestInstrument:
    def test_writes_the_program_and_lists_provenance(self, tmp_path, capsys,
                                                     instrumented_file):
        listing = capsys.readouterr().out.strip().splitlines()
        assert len(listing) == 6
        assert listing[0].startswith("pwdgenerator body[0]: register_stack(all=True)")
        assert parse(instrumented_file.read_text()) == pwdgen_instrumented()

    def test_stdout_mode_emits_only_the_program(self, capsys):
        code = main(["instrument", "--program", DEMO_PROGRAM,
                     "--untrusted-list", DEMO_UNTRUSTED,
                     "--sensitive-list", DEMO_SENSITIVE])
        assert code == 0
        out = capsys.readouterr().out
        assert parse(out) == pwdgen_instrumented()

    def test_instrumenting_twice_exits_2(self, tmp_path, capsys, instrumented_file):
        code = main(["instrument", "--program", str(instrumented_file),
                     "--untrusted-list", DEMO_UNTRUSTED,
                     "--sensitive-list", DEMO_SENSITIVE])
        assert code == 2
        assert "already carries" in capsys.readouterr().err

    def test_missing_untrusted_list_names_the_callee(self, capsys):
        code = main(["instrument", "--program", DEMO_PROGRAM,
                     "--sensitive-list", DEMO_SENSITIVE])
        assert code == 2
        assert "lib_func" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["instrument", "--program", str(tmp_path / "nope.json")])
        assert code == 2


class TestRun:
    def test_protected_run_is_clean_and_byte_stable(self, tmp_path, instrumented_file):
        outputs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code = main(["run", "--program", str(instrumented_file),
                         "--image-map", DEMO_MAP, "-o", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"secret bytes observed: 0" in outputs[0]

    def test_json_format_parses(self, tmp_path, capsys, instrumented_file):
        capsys.readouterr()  # drop the fixture's provenance listing
        code = main(["run", "--program", str(instrumented_file),
                     "--image-map", DEMO_MAP, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "protected"
        assert doc["violations"] == []

    def test_native_shows_the_exposure(self, capsys, instrumented_file):
        code = main(["native", "--program", str(instrumented_file),
                     "--image-map", DEMO_MAP])
        assert code == 0
        assert "secret bytes observed: 256" in capsys.readouterr().out

    def test_strict_run_flags_a_forged_scenario(self, tmp_path, capsys):
        scenario = generate_scenario(41, 0, FuzzConfig(adversarial=True))
        program_file = tmp_path / "forged.json"
        map_file = tmp_path / "forged.map"
        program_file.write_text(emit(scenario.program))
        map_file.write_text(scenario.image_map)
        code = main(["run", "--program", str(program_file),
                     "--image-map", str(map_file), "--strict"])
        assert code == 1
        out = capsys.readouterr().out
        assert "halted: yes" in out


class TestProbeCap:
    @staticmethod
    def heap_probe(length):
        return ProgramDesc(functions=(
            FunctionDesc(name="lib", body=(ReadProbe(AbsoluteTarget(HEAP_BASE), length),
                                           Return())),
            FunctionDesc(name="main", body=(Call("lib"), Return()))), instrumented=True)

    def test_probe_over_the_cap_exits_2(self, tmp_path, capsys):
        program = self.heap_probe(MAX_PROBE_BYTES + 1)
        program_file = tmp_path / "big.json"
        map_file = tmp_path / "big.map"
        program_file.write_text(emit(program))
        map_file.write_text(image_map_for(program))
        code = main(["run", "--program", str(program_file), "--image-map", str(map_file)])
        assert code == 2
        assert f"cap of {MAX_PROBE_BYTES} bytes" in capsys.readouterr().err

    def test_probe_of_exactly_the_cap_parses(self):
        program = self.heap_probe(MAX_PROBE_BYTES)
        assert parse(emit(program)) == program


class TestAssignFit:
    """An assign must name a declared variable and fit in it; main's 4-byte
    local v sits right below its neighbour k."""

    @pytest.mark.parametrize("var, size, message", [
        ("v", 24, "assign of 24 bytes to 'v' of function 'main', which holds 4 bytes"),
        ("w", 4, "assign to undeclared variable 'w' of function 'main'"),
        ("v", 8, "assign of 8 bytes to 'v' of function 'main', which holds 4 bytes"),
    ])
    def test_assign_that_does_not_fit_exits_2(self, tmp_path, capsys, var, size, message):
        doc = {"instrumented": True, "functions": [{
            "name": "main",
            "locals": [{"name": "v", "size": 4}, {"name": "k", "size": 4}],
            "body": [{"op": "assign", "var": "k", "value": "aabbccdd"},
                     {"op": "assign", "var": var, "value": "11" * size},
                     {"op": "return"}]}]}
        program_file = tmp_path / "assign.json"
        map_file = tmp_path / "assign.map"
        program_file.write_text(json.dumps(doc))
        map_file.write_text("main 0x400000 0x400100\n")
        code = main(["run", "--program", str(program_file), "--image-map", str(map_file)])
        assert code == 2
        assert message in capsys.readouterr().err


class TestDiff:
    def test_demo_diff_shows_the_delta(self, capsys, instrumented_file):
        code = main(["diff", "--program", str(instrumented_file),
                     "--image-map", DEMO_MAP])
        assert code == 0
        out = capsys.readouterr().out
        assert "secret bytes observed (native):    256" in out
        assert "secret bytes observed (protected): 0" in out

    def test_stats_table_totals_the_demo(self, capsys, instrumented_file):
        code = main(["stats", "--program", str(instrumented_file),
                     "--image-map", DEMO_MAP])
        assert code == 0
        out = capsys.readouterr().out
        header, values = None, None
        for line in out.splitlines():
            if line.split() and line.split()[0] == "register_stack":
                header = line.split()
            elif header and values is None and line.strip():
                values = line.split()
        assert header is not None and header[-1] == "Total"
        assert values == ["1", "1", "1", "1", "1", "1", "6"]

    def test_stats_has_no_json_format_but_run_json_carries_the_stats(
            self, capsys, instrumented_file):
        args = ["--program", str(instrumented_file), "--image-map", DEMO_MAP,
                "--format", "json"]
        with pytest.raises(SystemExit) as exc:
            main(["stats", *args])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["run", *args]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["total"] == 6
        assert sum(doc["provenance"].values()) == 6


class TestFuzzCommand:
    def test_campaign_file_is_byte_stable(self, tmp_path):
        outputs = []
        for name in ("f1.txt", "f2.txt"):
            out = tmp_path / name
            code = main(["fuzz", "--seed", "3", "--count", "10", "-o", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"findings: 0" in outputs[0]

    def test_timing_goes_to_stderr_not_the_file(self, tmp_path, capsys):
        out = tmp_path / "campaign.txt"
        main(["fuzz", "--seed", "3", "--count", "5", "-o", str(out)])
        captured = capsys.readouterr()
        assert "scenarios in" in captured.err
        assert b"scenarios in" not in out.read_bytes()

    def test_clean_campaign_saves_no_counterexamples(self, tmp_path):
        save_dir = tmp_path / "findings"
        code = main(["fuzz", "--seed", "3", "--count", "5",
                     "--save-dir", str(save_dir), "-o", str(tmp_path / "x.txt")])
        assert code == 0
        assert not save_dir.exists()

    def test_replay_of_a_clean_scenario(self, tmp_path, capsys):
        scenario = generate_scenario(43, 1, FuzzConfig())
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(scenario))
        code = main(["fuzz", "--replay", str(path)])
        assert code == 0
        assert "problems: 0" in capsys.readouterr().out

    def test_replay_of_a_failing_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(scenario_to_json(faulting_scenario()))
        code = main(["fuzz", "--replay", str(path)])
        assert code == 1
        assert "problems:" in capsys.readouterr().out

    def test_campaign_with_findings_saves_replayable_counterexamples(
            self, tmp_path, capsys, runtime_saves_without_clearing):
        save_dir = tmp_path / "findings"
        code = main(["fuzz", "--seed", str(LEAKY_SEED), "--count", str(LEAKY_CONFIG.scenarios),
                     "--save-dir", str(save_dir), "-o", str(tmp_path / "x.txt")])
        assert code == 1
        saved = sorted(p.name for p in save_dir.iterdir())
        assert saved == sorted(f"scenario-{LEAKY_SEED}-{i}.json" for i in LEAKY_FINDINGS)
        capsys.readouterr()
        code = main(["fuzz", "--replay", str(save_dir / saved[0])])
        assert code == 1
        assert "problems: 0" not in capsys.readouterr().out

    @pytest.mark.parametrize("doc, message", [
        ({"index": 0}, "missing key 'seed'"),
        ([1, 2], "document must be an object"),
    ])
    def test_malformed_replay_file_exits_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code = main(["fuzz", "--replay", str(path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [0, MAX_CHAIN + 1])
    def test_depth_outside_the_cap_exits_2(self, tmp_path, capsys, depth):
        code = main(["fuzz", "--depth", str(depth), "-o", str(tmp_path / "x.txt")])
        assert code == 2
        assert f"1..{MAX_CHAIN}" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()


class TestUsage:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 2

    def test_console_script_is_installed(self):
        proc = subprocess.run([sys.executable, "-m", "framevault.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "instrument" in proc.stdout and "fuzz" in proc.stdout
