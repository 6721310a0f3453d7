"""Command line behaviour: exit codes, byte-stable output, and the demo
files shipping in demos/pwdgenerator."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from framevault.cli import main
from framevault.executor import image_map_for
from framevault.fuzzer import MAX_CHAIN, FuzzConfig, generate_scenario, scenario_to_json
from framevault.memory import HEAP_BASE, HEAP_LIMIT
from framevault.identity import MAX_IMAGE_MAP_LINES, ImageMapError, load_image_map
from framevault.program import (MAX_BODY_STATEMENTS, MAX_FUNCTIONS, MAX_OBJECT_BYTES,
                                MAX_PROBE_BYTES, AbsoluteTarget, Call, FunctionDesc,
                                ProgramDesc, ProgramFormatError, ReadProbe, Return, emit,
                                parse)

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


def sized_program(where, size):
    """A one-function description whose only large number is `size`, at
    the place the cap check names by `where`."""
    pointer = {"name": "p", "size": 8, "pointer": True, "pointee_size": 8}
    fn = {"name": "main", "locals": [pointer], "body": []}
    if where == "variable 'size'":
        fn["locals"] = [{"name": "v", "size": size}]
    elif where == "'pointee_size'":
        pointer["pointee_size"] = size
    elif where == "size suffix":
        pointer["annotation"] = f"sensitive_pointer_{size}"
    elif where == "heap_alloc 'size'":
        fn["body"] = [{"op": "heap_alloc", "var": "p", "size": size}]
    else:
        fn["body"] = [{"op": "runtime_call", "call": "register_memory",
                       "target": {"var": "p"}, "len": size}]
    return json.dumps({"functions": [fn]})


SIZED_PLACES = ["variable 'size'", "'pointee_size'", "size suffix",
                "heap_alloc 'size'", "runtime_call 'len'"]


class TestObjectCap:
    """Declared byte sizes are capped when parsing; nothing here runs."""

    @pytest.mark.parametrize("where", SIZED_PLACES)
    def test_size_of_exactly_the_cap_parses(self, where):
        parse(sized_program(where, MAX_OBJECT_BYTES))

    @pytest.mark.parametrize("where", SIZED_PLACES)
    def test_size_over_the_cap_is_refused_by_name(self, where):
        message = (f"{where} {MAX_OBJECT_BYTES + 1} exceeds the cap of "
                   f"{MAX_OBJECT_BYTES} bytes (MAX_OBJECT_BYTES)")
        with pytest.raises(ProgramFormatError, match=re.escape(message)):
            parse(sized_program(where, MAX_OBJECT_BYTES + 1))

    def test_size_over_the_cap_exits_2(self, tmp_path, capsys):
        program_file = tmp_path / "big.json"
        program_file.write_text(sized_program("heap_alloc 'size'", MAX_OBJECT_BYTES + 1))
        assert main(["instrument", "--program", str(program_file)]) == 2
        assert "(MAX_OBJECT_BYTES)" in capsys.readouterr().err


def counted_program(functions: int, statements: int) -> str:
    return json.dumps({"functions": [
        {"name": f"f{i}", "body": [{"op": "return"}] * statements} for i in range(functions)]})


def counted_map(lines: int) -> str:
    return "main 0x401000 0x401100\n" + "# padding\n" * (lines - 1)


class TestCountCaps:
    """Function, statement and image-map line counts are capped when
    parsing, before anything is built from them."""

    def test_counts_of_exactly_the_caps_parse(self):
        assert len(parse(counted_program(MAX_FUNCTIONS, 1)).functions) == MAX_FUNCTIONS
        assert len(parse(counted_program(1, MAX_BODY_STATEMENTS)).functions[0].body) \
            == MAX_BODY_STATEMENTS
        assert load_image_map(counted_map(MAX_IMAGE_MAP_LINES)).by_name("main") is not None

    def test_counts_over_the_caps_are_refused_by_name(self):
        with pytest.raises(ProgramFormatError, match=re.escape(
                f"program: {MAX_FUNCTIONS + 1} functions exceed the cap of "
                f"{MAX_FUNCTIONS} (MAX_FUNCTIONS)")):
            parse(counted_program(MAX_FUNCTIONS + 1, 1))
        with pytest.raises(ProgramFormatError, match=re.escape(
                f"functions[0]: {MAX_BODY_STATEMENTS + 1} statements exceed the cap of "
                f"{MAX_BODY_STATEMENTS} (MAX_BODY_STATEMENTS)")):
            parse(counted_program(1, MAX_BODY_STATEMENTS + 1))
        with pytest.raises(ImageMapError, match=re.escape(
                f"image map: {MAX_IMAGE_MAP_LINES + 1} lines exceed the cap of "
                f"{MAX_IMAGE_MAP_LINES} (MAX_IMAGE_MAP_LINES)")):
            load_image_map(counted_map(MAX_IMAGE_MAP_LINES + 1))

    @pytest.mark.parametrize("functions, statements, lines, cap", [
        (MAX_FUNCTIONS + 1, 1, 1, "MAX_FUNCTIONS"),
        (1, MAX_BODY_STATEMENTS + 1, 1, "MAX_BODY_STATEMENTS"),
        (1, 1, MAX_IMAGE_MAP_LINES + 1, "MAX_IMAGE_MAP_LINES"),
    ])
    def test_counts_over_the_caps_exit_2(self, tmp_path, capsys, functions, statements,
                                         lines, cap):
        program_file, map_file = tmp_path / "counted.json", tmp_path / "counted.map"
        program_file.write_text(counted_program(functions, statements).replace('"f0"', '"main"'))
        map_file.write_text(counted_map(lines))
        assert main(["native", "--program", str(program_file),
                     "--image-map", str(map_file)]) == 2
        assert f"({cap})" in capsys.readouterr().err

    def test_an_instrumented_body_over_the_cap_exits_2(self, tmp_path, capsys):
        # Each untrusted call gains a start_protect and a stop_protect, so a
        # body within the cap can grow past it; the output must parse again.
        calls = MAX_BODY_STATEMENTS // 2
        program_file, untrusted = tmp_path / "calls.json", tmp_path / "untrusted.list"
        program_file.write_text(json.dumps({"functions": [
            {"name": "main", "body": [{"op": "call", "callee": "lib"}] * calls},
            {"name": "lib", "body": [{"op": "return"}]}]}))
        untrusted.write_text("lib(0)\n")
        assert main(["instrument", "--program", str(program_file),
                     "--untrusted-list", str(untrusted)]) == 2
        assert (f"function 'main': instrumented body of {3 * calls} statements exceeds the "
                f"cap of {MAX_BODY_STATEMENTS} (MAX_BODY_STATEMENTS)") in capsys.readouterr().err


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


def run_doc(tmp_path, doc, command="run", *extra):
    """Run a one-function description through the CLI; return the exit code."""
    program_file = tmp_path / "program.json"
    map_file = tmp_path / "program.map"
    program_file.write_text(json.dumps(doc))
    map_file.write_text("main 0x400000 0x400100\n")
    return main([command, "--program", str(program_file), "--image-map", str(map_file),
                 *extra])


def heap_write(addr):
    """main writes one byte at an absolute address."""
    return {"functions": [{"name": "main", "body": [
        {"op": "write_probe", "target": {"kind": "addr", "addr": hex(addr)}, "value": "5a"},
        {"op": "return"}]}]}


class TestRuntimeCallLength:
    def test_negative_len_exits_2_naming_the_statement(self, tmp_path, capsys):
        doc = {"instrumented": True, "functions": [{
            "name": "main", "locals": [{"name": "v", "size": 16}],
            "body": [{"op": "runtime_call", "call": "register_memory_exception",
                      "target": {"var": "v"}, "len": -5},
                     {"op": "return"}]}]}
        assert run_doc(tmp_path, doc) == 2
        assert "functions[0].body[0]: 'len' must be a non-negative integer" \
            in capsys.readouterr().err


class TestAnnotationLocation:
    @pytest.mark.parametrize("annotation, message", [
        (f"sensitive_pointer_{64 * 1024 * 1024}", "size suffix 67108864 exceeds the cap"),
        ("sensitive_sometimes", "unknown annotation 'sensitive_sometimes'"),
        ("sensitive_8", "size suffix only applies to pointer annotations"),
    ])
    def test_annotation_error_starts_with_its_location(self, tmp_path, capsys,
                                                       annotation, message):
        doc = {"functions": [
            {"name": "helper", "body": []},
            {"name": "main", "locals": [
                {"name": "k", "size": 8},
                {"name": "p", "size": 8, "pointer": True, "annotation": annotation}],
             "body": []}]}
        with pytest.raises(ProgramFormatError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value).startswith("functions[1].locals[1]: ")
        assert message in str(exc.value)
        assert run_doc(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith(
            "framevault: error: functions[1].locals[1]: ")


class TestFaultExitCode:
    """A run that records a fault exits 1, as check_scenario counts every
    fault as a problem; the heap's last byte is writable, the next is not."""

    @pytest.mark.parametrize("command, extra", [
        ("run", ()), ("run", ("--format", "json")), ("native", ()), ("diff", ()),
        ("stats", ())])
    def test_a_run_with_a_fault_exits_1(self, tmp_path, capsys, command, extra):
        assert run_doc(tmp_path, heap_write(HEAP_LIMIT), command, *extra) == 1
        out = capsys.readouterr().out
        if command in ("run", "native") and not extra:
            assert "faults: 1" in out
            assert "write outside writable regions" in out

    @pytest.mark.parametrize("command", ["run", "native", "diff", "stats"])
    def test_a_write_to_the_last_heap_byte_exits_0(self, tmp_path, capsys, command):
        assert run_doc(tmp_path, heap_write(HEAP_LIMIT - 1), command) == 0
        if command == "run":
            assert "faults: 0" in capsys.readouterr().out


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

    @pytest.mark.parametrize("count", [-5, 0])
    def test_count_below_one_exits_2(self, tmp_path, capsys, count):
        code = main(["fuzz", "--count", str(count), "-o", str(tmp_path / "x.txt")])
        assert code == 2
        assert f"scenario count {count} is below 1" in capsys.readouterr().err
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
