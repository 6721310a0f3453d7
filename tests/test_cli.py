"""Command line behaviour: exit codes, byte-stable output, and the demo
files shipping in demos/pwdgenerator."""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import traceback

import pytest

from framevault import cli
from framevault.cli import main
from framevault.executor import image_map_for
from framevault.fuzzer import (MAX_CHAIN, FuzzConfig, check_scenario, generate_scenario,
                               scenario_from_json, scenario_to_json)
from framevault.memory import HEAP_BASE, HEAP_LIMIT
from framevault.identity import MAX_IMAGE_MAP_LINES, ImageMapError, load_image_map
from framevault.instrument import AnnotationError, instrument, parse_lists
from framevault.program import (MAX_BODY_STATEMENTS, MAX_FUNCTIONS, MAX_OBJECT_BYTES,
                                MAX_PROBE_BYTES, MAX_PROGRAM_STATEMENTS, AbsoluteTarget, Assign,
                                Call, FrameTarget, FunctionDesc, ProgramDesc, ProgramFormatError,
                                ReadProbe, Return, VarDesc, emit, parse, to_json)
from framevault.reporting import REPORT_VERSION, report_to_dict

import test_executor
from support import DEMO_DIR, PWDGEN_MAP, pwdgen_instrumented
from test_executor import build_spoof_program, leaky_run
from test_fuzz import (LEAKY_CONFIG, LEAKY_FINDINGS, LEAKY_SEED, faulting_scenario,
                       runtime_saves_without_clearing)
from test_golden import GOLDEN_DIR

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


def counted_program(functions: int, statements: int, extra: int = 0) -> str:
    """`functions` bodies of `statements` returns, plus one of `extra`."""
    bodies = [statements] * functions + ([extra] if extra else [])
    return json.dumps({"functions": [
        {"name": f"f{i}", "body": [{"op": "return"}] * n} for i, n in enumerate(bodies)]})


# Full bodies that fill the statement cap exactly.
FULL_BODIES = MAX_PROGRAM_STATEMENTS // MAX_BODY_STATEMENTS


def counted_map(lines: int) -> str:
    return "main 0x401000 0x401100\n" + "# padding\n" * (lines - 1)


class TestCountCaps:
    """Function, statement and image-map line counts are capped when
    parsing, before anything is built from them."""

    def test_counts_of_exactly_the_caps_parse(self):
        assert len(parse(counted_program(MAX_FUNCTIONS, 1)).functions) == MAX_FUNCTIONS
        assert len(parse(counted_program(1, MAX_BODY_STATEMENTS)).functions[0].body) \
            == MAX_BODY_STATEMENTS
        assert sum(len(fn.body) for fn in parse(counted_program(
            FULL_BODIES, MAX_BODY_STATEMENTS)).functions) == MAX_PROGRAM_STATEMENTS
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
        with pytest.raises(ProgramFormatError, match=re.escape(
                f"program: {MAX_PROGRAM_STATEMENTS + 1} statements exceed the cap of "
                f"{MAX_PROGRAM_STATEMENTS} (MAX_PROGRAM_STATEMENTS)")):
            parse(counted_program(FULL_BODIES, MAX_BODY_STATEMENTS, extra=1))
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

    def test_statements_one_over_the_program_cap_exit_2(self, tmp_path, capsys):
        program_file, map_file = tmp_path / "counted.json", tmp_path / "counted.map"
        program_file.write_text(counted_program(FULL_BODIES, MAX_BODY_STATEMENTS, extra=1)
                                .replace('"f0"', '"main"'))
        map_file.write_text(counted_map(1))
        assert main(["native", "--program", str(program_file),
                     "--image-map", str(map_file)]) == 2
        assert "(MAX_PROGRAM_STATEMENTS)" in capsys.readouterr().err

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


def lib_calling_program(extra: int) -> str:
    """Workers that each call an untrusted `lib` as often as one
    instrumented body allows; instrumented, the program holds exactly
    MAX_PROGRAM_STATEMENTS statements plus `extra` returns in main."""
    calls = MAX_BODY_STATEMENTS // 3  # each call gains start_ and stop_protect
    workers = MAX_PROGRAM_STATEMENTS // (3 * calls)
    filler = MAX_PROGRAM_STATEMENTS - workers * 3 * calls - workers
    assert 0 <= filler and workers + filler + extra <= MAX_BODY_STATEMENTS
    return json.dumps({"functions": [
        {"name": "main", "body": [{"op": "call", "callee": f"w{i}"} for i in range(workers)]
         + [{"op": "return"}] * (filler + extra)},
        {"name": "lib", "body": []},
        *({"name": f"w{i}", "body": [{"op": "call", "callee": "lib"}] * calls}
          for i in range(workers))]})


class TestInstrumentedProgramCap:
    """The instrumented program must parse again, so all its bodies
    together stay within MAX_PROGRAM_STATEMENTS."""

    def instrument_file(self, tmp_path, extra: int) -> int:
        program_file, untrusted = tmp_path / "calls.json", tmp_path / "untrusted.list"
        program_file.write_text(lib_calling_program(extra))
        untrusted.write_text("lib(0)\n")
        return main(["instrument", "--program", str(program_file),
                     "--untrusted-list", str(untrusted), "-o", str(tmp_path / "out.json")])

    def test_a_program_of_exactly_the_cap_instruments_and_parses_again(self, tmp_path):
        assert self.instrument_file(tmp_path, 0) == 0
        program = parse((tmp_path / "out.json").read_text())
        assert sum(len(fn.body) for fn in program.functions) == MAX_PROGRAM_STATEMENTS

    def test_one_statement_over_the_cap_is_refused_by_name(self):
        untrusted, sensitive = parse_lists("lib(0)\n", "")
        with pytest.raises(AnnotationError, match=re.escape(
                f"program: instrumented bodies of {MAX_PROGRAM_STATEMENTS + 1} statements "
                f"exceed the cap of {MAX_PROGRAM_STATEMENTS} (MAX_PROGRAM_STATEMENTS)")):
            instrument(parse(lib_calling_program(1)), untrusted, sensitive)

    def test_one_statement_over_the_cap_exits_2(self, tmp_path, capsys):
        assert self.instrument_file(tmp_path, 1) == 2
        assert "(MAX_PROGRAM_STATEMENTS)" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


def one_statement(stmt: dict) -> dict:
    return {"functions": [{"name": "main", "body": [stmt]}]}


REGISTER_AT = {"op": "runtime_call", "call": "register_memory", "len": 4}

# Variable names that are not strings, where a statement names a variable
# of its own function, and the message each gives. Each is refused when
# the description is built, before any name is looked up.
NON_STRING_NAMES = {
    "argument var a list": (
        one_statement({"op": "call", "callee": "lib", "args": [{"var": ["x"]}]}),
        "functions[0].body[0]: argument of undeclared variable ['x'] of function 'main'"),
    "argument addr_of an object": (
        one_statement({"op": "call", "callee": "lib", "args": [{"addr_of": {}}]}),
        "functions[0].body[0]: argument of undeclared variable {} of function 'main'"),
    "region var a list": (
        one_statement({**REGISTER_AT, "target": {"var": ["x", 1]}}),
        "functions[0].body[0]: register_memory of undeclared variable ['x', 1] of "
        "function 'main'"),
    "region pointee_of an object": (
        one_statement({**REGISTER_AT, "target": {"pointee_of": {"a": 1}}}),
        "functions[0].body[0]: register_memory of undeclared variable {'a': 1} of "
        "function 'main'"),
}

PARSE_ERRORS = {
    "expected hex string": (
        one_statement({"op": "assign", "var": "x", "value": 5}),
        "functions[0].body[0]: expected hex string"),
    "bad hex string": (
        one_statement({"op": "assign", "var": "x", "value": "zz"}),
        "functions[0].body[0]: bad hex string 'zz'"),
    "bad probe address": (
        one_statement({"op": "read_probe", "len": 1,
                       "target": {"kind": "addr", "addr": "0xgg"}}),
        "functions[0].body[0]: bad address '0xgg'"),
    "bad region address": (
        one_statement({**REGISTER_AT, "target": {"addr": "nowhere"}}),
        "functions[0].body[0]: bad address 'nowhere'"),
    "non-string region address": (
        one_statement({**REGISTER_AT, "target": {"addr": 4096}}),
        "functions[0].body[0]: bad address 4096"),
    "unknown target kind": (
        one_statement({"op": "read_probe", "len": 1, "target": {"kind": "register"}}),
        "functions[0].body[0]: unknown target kind 'register'"),
    "empty region reference": (
        one_statement({**REGISTER_AT, "target": {}}),
        "functions[0].body[0]: region reference needs var/pointee_of/addr"),
    "argument of neither kind": (
        one_statement({"op": "call", "callee": "lib", "args": [{"value": "x"}]}),
        "functions[0].body[0].args[0]: needs 'var' or 'addr_of'"),
    "unknown statement op": (
        one_statement({"op": "jump"}),
        "functions[0].body[0]: unknown statement op 'jump'"),
    "unknown sensitivity": (
        {"functions": [{"name": "main", "sensitivity": "secret", "body": []}]},
        "functions[0]: unknown sensitivity 'secret'"),
    "duplicate variable": (
        {"functions": [{"name": "main", "params": [{"name": "x", "size": 4}],
                        "locals": [{"name": "x", "size": 8}], "body": []}]},
        "functions[0]: duplicate variable 'x'"),
    "duplicate function name": (
        {"functions": [{"name": "main", "body": []}, {"name": "main", "body": []}]},
        "duplicate function name 'main'"),
    "invalid JSON": (
        "not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "params not a list": (
        {"functions": [{"name": "main", "params": 5, "body": []}]},
        "functions[0]: 'params' must be a list"),
    "locals not a list": (
        {"functions": [{"name": "main", "locals": None, "body": []}]},
        "functions[0]: 'locals' must be a list"),
    "body not a list": (
        {"functions": [{"name": "main", "body": None}]},
        "functions[0]: 'body' must be a list"),
    "args not a list": (
        one_statement({"op": "call", "callee": "lib", "args": 5}),
        "functions[0].body[0]: 'args' must be a list"),
    "unknown runtime call": (
        one_statement({"op": "runtime_call", "call": "reboot"}),
        "functions[0].body[0]: unknown runtime call 'reboot'"),
    **{f"provenance {value!r}": (
        one_statement({"op": "runtime_call", "call": "start_protect", "provenance": value}),
        "functions[0].body[0]: 'provenance' must be a non-empty string other than 'forged'")
       for value in ("", False, "forged")},
    **NON_STRING_NAMES,
}


def with_local(var: dict) -> dict:
    return {"functions": [{"name": "main", "locals": [var], "body": []}]}


FRAME_TARGET = {"kind": "frame", "function": "main"}

# JSON true and false where the formats ask for an integer, and the
# message each field's check gives.
BOOLEAN_INTEGERS = {
    "variable size": (with_local({"name": "x", "size": True}),
                      "functions[0].locals[0]: variable needs positive 'size'"),
    "pointee_size": (with_local({"name": "p", "size": 8, "pointer": True, "pointee_size": True}),
                     "functions[0].locals[0]: pointee_size must be a positive integer"),
    "heap_alloc size": (one_statement({"op": "heap_alloc", "var": "h", "size": True}),
                        "functions[0].body[0]: heap_alloc needs positive 'size'"),
    "read_probe len": (one_statement({"op": "read_probe", "len": True, "target": FRAME_TARGET}),
                       "functions[0].body[0]: read_probe needs non-negative 'len'"),
    "target offset": (one_statement({"op": "read_probe", "len": 1,
                                     "target": {**FRAME_TARGET, "offset": True}}),
                      "functions[0].body[0]: offset must be an integer"),
    "target index": (one_statement({"op": "read_probe", "len": 1,
                                    "target": {"kind": "heap", "index": False}}),
                     "functions[0].body[0]: heap target needs 'index'"),
    "runtime_call len": (one_statement({**REGISTER_AT, "len": True}),
                         "functions[0].body[0]: 'len' must be a non-negative integer"),
    "scenario index": ({"index": True}, "scenario: key 'index' must be of type int"),
    "scenario seed": ({"seed": False}, "scenario: key 'seed' must be of type int"),
}


# Values other than JSON true and false where the format asks for one,
# and the message each field's check gives.
NON_BOOLEAN_FLAGS = {
    "pointer": (with_local({"name": "p", "size": 8, "pointer": 1}),
                "functions[0].locals[0]: 'pointer' must be true or false"),
    "all": (one_statement({"op": "runtime_call", "call": "register_stack", "all": None}),
            "functions[0].body[0]: 'all' must be true or false"),
    "read_only": (one_statement({**REGISTER_AT, "target": {"var": "x"}, "read_only": "false"}),
                  "functions[0].body[0]: 'read_only' must be true or false"),
    "instrumented": ({"instrumented": "false", "functions": []},
                     "program: 'instrumented' must be true or false"),
}


class TestFlagsAreBooleans:
    @pytest.mark.parametrize("case", NON_BOOLEAN_FLAGS)
    def test_a_non_boolean_flag_is_refused(self, case):
        doc, message = NON_BOOLEAN_FLAGS[case]
        with pytest.raises(ProgramFormatError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value) == message

    def test_a_string_read_only_exits_2_and_false_hides_the_secret(self, tmp_path, capsys):
        """A lib reads main's 8-byte secret inside a window. The string
        "false" is refused; JSON false registers the secret writable, so
        the window hides it."""
        register = {"op": "runtime_call", "call": "register_memory", "target": {"var": "s"},
                    "len": 8, "read_only": "false"}
        doc = {"instrumented": True, "functions": [
            {"name": "main", "locals": [{"name": "s", "size": 8}], "body": [
                {"op": "assign", "var": "s", "value": "11" * 8},
                {"op": "runtime_call", "call": "register_stack", "all": False},
                register, {"op": "runtime_call", "call": "start_protect"},
                {"op": "call", "callee": "lib"}, {"op": "runtime_call", "call": "stop_protect"},
                {"op": "runtime_call", "call": "unregister_stack"}, {"op": "return"}]},
            {"name": "lib", "body": [
                {"op": "read_probe", "target": {"kind": "var", "function": "main", "var": "s"},
                 "len": 8}, {"op": "return"}]}]}
        program_file, map_file = tmp_path / "p.json", tmp_path / "p.map"
        program_file.write_text(json.dumps(doc))
        map_file.write_text("main 0x401000 0x401100\nlib 0x401100 0x401200\n")
        args = ["run", "--program", str(program_file), "--image-map", str(map_file)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "framevault: error: functions[0].body[2]: 'read_only' must be true or false\n")
        register["read_only"] = False
        program_file.write_text(json.dumps(doc))
        assert main(args) == 0
        assert "nonzero 0  bytes 0000000000000000\n" in capsys.readouterr().out


class TestBooleansAreNotIntegers:
    @pytest.mark.parametrize("case", BOOLEAN_INTEGERS)
    def test_a_boolean_integer_field_is_refused(self, case):
        doc, message = BOOLEAN_INTEGERS[case]
        if case.startswith("scenario"):
            scenario = json.loads(scenario_to_json(generate_scenario(23, 2, FuzzConfig())))
            with pytest.raises(ProgramFormatError) as exc:
                scenario_from_json(json.dumps({**scenario, **doc}))
        else:
            with pytest.raises(ProgramFormatError) as exc:
                parse(json.dumps(doc))
        assert str(exc.value) == message


class TestParseErrors:
    """Every malformed description is refused with exit 2 and a message
    that names the place and the fault."""

    @pytest.mark.parametrize("case", PARSE_ERRORS)
    def test_run_exits_2_with_the_message(self, tmp_path, capsys, case):
        doc, message = PARSE_ERRORS[case]
        program_file, map_file = tmp_path / "bad.json", tmp_path / "bad.map"
        program_file.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        map_file.write_text("main 0x401000 0x401100\n")
        assert main(["run", "--program", str(program_file),
                     "--image-map", str(map_file)]) == 2
        assert capsys.readouterr().err == f"framevault: error: {message}\n"


# The values a one-field walk puts in place of each field: tier-1 walks
# WALK_VALUES, the CI job adds MORE_WALK_VALUES.
WALK_VALUES = (None, True, 7, [], ["x"], {})
MORE_WALK_VALUES = (-1, 1.5, "", "zz", {"a": 1})


def _fields(doc, path=()):
    """The path of every value below the document's root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _changed(doc, path, value):
    """A copy of `doc` with the field at `path` set to `value`."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def walk_crashes(directory: pathlib.Path, values) -> tuple[int, list]:
    """Change one field of the pwdgenerator documents at a time to each of
    `values`: `instrument` and `native` the raw program, `run` the
    instrumented one. Returns the number of runs and a (command, path,
    value, what happened) for each run that raised, with the exception and
    the line that raised it, or exited other than 0, 1 or 2. Output and error text are dropped; files go to `directory`."""
    raw = json.loads(pathlib.Path(DEMO_PROGRAM).read_text())
    instrumented = json.loads(emit(pwdgen_instrumented()))
    program_file, out = directory / "walk.json", str(directory / "walk.out")
    commands = ((raw, ["instrument", "--untrusted-list", DEMO_UNTRUSTED,
                       "--sensitive-list", DEMO_SENSITIVE]),
                (raw, ["native", "--image-map", DEMO_MAP]),
                (instrumented, ["run", "--image-map", DEMO_MAP]))
    runs, crashes = 0, []
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for doc, (command, *flags) in commands:
            for path in _fields(doc):
                for value in values:
                    program_file.write_text(json.dumps(_changed(doc, path, value)))
                    runs += 1
                    try:
                        code = main([command, "--program", str(program_file), *flags,
                                     "-o", out])
                    except Exception as exc:  # recorded with where it was raised
                        where = traceback.extract_tb(exc.__traceback__)[-1]
                        crashes.append((command, path, value,
                                        f"{exc!r} at {where.filename}:{where.lineno}"))
                    else:
                        if code not in (0, 1, 2):
                            crashes.append((command, path, value, f"exit {code}"))
    return runs, crashes


def test_no_one_field_change_of_the_demo_makes_a_command_raise(tmp_path):
    runs, crashes = walk_crashes(tmp_path, WALK_VALUES)
    assert (runs, crashes) == (1578, [])


class TestLongValues:
    """An error message shows at most SHOWN_CHARS characters of the value
    it echoes, then the value's length, however long the value is."""

    @pytest.mark.parametrize("doc,image_map,length", [
        (one_statement({"op": "assign", "var": "x", "value": "z" * 1_000_000}),
         "main 0x401000 0x401100\n", 1_000_000),
        (one_statement({"op": "z" * 2_000_000}), "main 0x401000 0x401100\n", 2_000_000),
        (one_statement({"op": "read_probe", "len": 1,
                        "target": {"kind": "addr", "addr": "g" * 100_000}}),
         "main 0x401000 0x401100\n", 100_000),
        ({"functions": [{"name": "main", "body": []}]}, "m" * 100_000 + "\n", 100_000),
    ], ids=["bad hex", "unknown op", "bad address", "image-map line"])
    def test_run_exits_2_with_a_short_message(self, tmp_path, capsys, doc, image_map, length):
        program_file, map_file = tmp_path / "long.json", tmp_path / "long.map"
        program_file.write_text(json.dumps(doc))
        map_file.write_text(image_map)
        assert main(["run", "--program", str(program_file),
                     "--image-map", str(map_file)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) <= 300 and f"... ({length} characters)\n" in err

    def test_a_long_list_entry_exits_2_with_a_short_message(self, tmp_path, capsys):
        untrusted = tmp_path / "untrusted.list"
        untrusted.write_text("(" * 100_000 + "\n")
        assert main(["instrument", "--program", DEMO_PROGRAM,
                     "--untrusted-list", str(untrusted)]) == 2
        err = capsys.readouterr().err
        assert err == (f"framevault: error: untrusted list line 1: bad entry {'(' * 60!r}... "
                       f"(100000 characters)\n")


LONG = "n" * 1_000_000
LONG_SHOWN = f"{'n' * 60}... (1000000 characters)"

# Image maps and programs that name one function or variable LONG, and the
# start of the message each exits 2 with.
LONG_NAME_MAPS = {
    "inverted span": (f"{LONG} 0x401100 0x401000\n", "line 1: empty or inverted span for "),
    "outside the text region": (f"{LONG} 0x1000 0x2000\n", "line 1: span for "),
    "duplicate name": (f"{LONG} 0x401000 0x401100\n{LONG} 0x401100 0x401200\n",
                       "line 2: duplicate function name "),
    "overlap": (f"{LONG} 0x401000 0x401100\nmain 0x401080 0x401200\n", "spans for "),
}
LONG_QUOTED = f"{'n' * 60!r}... (1000000 characters)"
LONG_NAME_PROGRAMS = {
    "unresolved callee": (
        one_statement({"op": "call", "callee": LONG}),
        f"function 'main' body[0]: unresolved callee {LONG_QUOTED} "
        f"(not described, not on the untrusted list)"),
    "wrong arity": (
        {"functions": [{"name": "main", "locals": [{"name": "a", "size": 8}], "body": [
            {"op": "call", "callee": LONG, "args": [{"var": "a"}]}]},
            {"name": LONG, "body": [{"op": "return"}]}]},
        f"function 'main' body[0]: {LONG_SHOWN} takes 0 arguments, got 1"),
    "unknown variable": (
        one_statement({"op": "heap_alloc", "var": LONG, "size": 16}),
        f"functions[0].body[0]: heap_alloc into undeclared variable {LONG_QUOTED} of "
        f"function 'main'"),
    "function name": (
        {"functions": [{"name": LONG, "body": [
            {"op": "read_probe", "len": 1, "target": {"kind": "addr", "addr": "0x401000"}}]}]},
        f"function {LONG_QUOTED} body[0]: probe outside an untrusted function"),
}


class TestLongNames:
    """Error messages that echo a function or variable name show at most
    SHOWN_CHARS characters of it, then its length; the image map's
    messages keep showing names unquoted."""

    @pytest.mark.parametrize("case", LONG_NAME_MAPS)
    def test_an_image_map_error_exits_2_with_a_short_message(self, tmp_path, capsys, case):
        image_map, start = LONG_NAME_MAPS[case]
        program_file, map_file = tmp_path / "p.json", tmp_path / "long.map"
        program_file.write_text(json.dumps({"functions": [{"name": "main", "body": []}]}))
        map_file.write_text(image_map)
        assert main(["run", "--program", str(program_file), "--image-map", str(map_file)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) <= 300
        assert err.startswith(f"framevault: error: {start}{LONG_SHOWN}")

    def test_a_function_the_image_map_misses_exits_2_with_a_short_message(self, tmp_path,
                                                                          capsys):
        program_file, map_file = tmp_path / "p.json", tmp_path / "p.map"
        program_file.write_text(json.dumps({"functions": [{"name": "main", "body": []},
                                                          {"name": LONG, "body": []}]}))
        map_file.write_text("main 0x401000 0x401100\n")
        assert main(["run", "--program", str(program_file), "--image-map", str(map_file)]) == 2
        err = capsys.readouterr().err
        assert err == f"framevault: error: image map does not cover: {LONG_SHOWN}\n"

    @pytest.mark.parametrize("case", LONG_NAME_PROGRAMS)
    def test_an_instrument_error_exits_2_with_a_short_message(self, tmp_path, capsys, case):
        doc, message = LONG_NAME_PROGRAMS[case]
        program_file, untrusted = tmp_path / "long.json", tmp_path / "untrusted.list"
        program_file.write_text(json.dumps(doc))
        untrusted.write_text("lib(1)\n")
        assert main(["instrument", "--program", str(program_file),
                     "--untrusted-list", str(untrusted)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) <= 300 and err == f"framevault: error: {message}\n"

    @pytest.mark.parametrize("doc,image_map,fault", [
        (one_statement({"op": "call", "callee": LONG}), "main 0x401000 0x401100\n",
         f"main: call to unknown function {LONG_QUOTED}"),
        ({"functions": [{"name": "main", "body": [{"op": "call", "callee": LONG}]},
                        {"name": LONG, "body": [{"op": "read_probe", "len": 8, "target": {
                            "kind": "addr", "addr": "0x50"}}]}]},
         f"main 0x401000 0x401100\n{LONG} 0x401100 0x401200\n",
         f"{LONG_SHOWN}: probe read outside mapped regions: 0x50+8"),
        ({"functions": [{"name": "main", "body": [{"op": "call", "callee": LONG}]},
                        {"name": LONG, "body": [{"op": "call", "callee": LONG}]}]},
         f"main 0x401000 0x401100\n{LONG} 0x401100 0x401200\n",
         f"{LONG_SHOWN}: call depth limit at {LONG_SHOWN}"),
    ], ids=["unknown callee", "faulting function", "depth limit"])
    def test_a_report_fault_line_shows_a_long_name_short(self, tmp_path, capsys, doc,
                                                        image_map, fault):
        program_file, map_file = tmp_path / "long.json", tmp_path / "long.map"
        program_file.write_text(json.dumps(doc))
        map_file.write_text(image_map)
        assert main(["native", "--program", str(program_file),
                     "--image-map", str(map_file)]) == 1
        out = capsys.readouterr().out
        assert len(out.encode()) < 1024 and f"faults: 1\n  {fault}\n" in out


LIB = {"name": "lib", "params": [{"name": "a", "size": 8}], "body": [{"op": "return"}]}

VALIDATION_ERRORS = {
    "heap_alloc into an unknown variable": (
        {"functions": [{"name": "main", "body": [
            {"op": "heap_alloc", "var": "p", "size": 16}]}]},
        "functions[0].body[0]: heap_alloc into undeclared variable 'p' of function 'main'"),
    "unknown argument variable": (
        {"functions": [{"name": "main", "body": [
            {"op": "call", "callee": "lib", "args": [{"var": "q"}]}]}, LIB]},
        "functions[0].body[0]: argument of undeclared variable 'q' of function 'main'"),
    "unresolvable pointee size": (
        {"functions": [{"name": "main", "sensitivity": "sensitive", "locals": [
            {"name": "p", "size": 8, "pointer": True, "annotation": "sensitive_pointer"}],
            "body": [{"op": "heap_alloc", "var": "p", "size": 16}]}]},
        "pointer variable 'p': pointee size not resolvable; use a size suffix or "
        "declare pointee_size"),
    **NON_STRING_NAMES,
}


class TestValidationErrors:
    """Descriptions that `instrument` refuses, when it parses them or when
    it checks them against the lists, exit 2."""

    @pytest.mark.parametrize("case", VALIDATION_ERRORS)
    def test_instrument_exits_2_with_the_message(self, tmp_path, capsys, case):
        doc, message = VALIDATION_ERRORS[case]
        program_file, untrusted = tmp_path / "bad.json", tmp_path / "untrusted.list"
        program_file.write_text(json.dumps(doc))
        untrusted.write_text("lib(1)\n")
        assert main(["instrument", "--program", str(program_file),
                     "--untrusted-list", str(untrusted)]) == 2
        assert capsys.readouterr().err == f"framevault: error: {message}\n"


class TestByteCap:
    """Every input file is read up to MAX_INPUT_BYTES and refused past it.
    The cap is lowered to the demo program's size, so the files stay small."""

    @pytest.mark.parametrize("which", ["--program", "--image-map"])
    def test_an_input_of_the_cap_is_read_and_one_byte_more_exits_2(self, tmp_path, capsys,
                                                                   monkeypatch, which):
        program = (DEMO_DIR / "program.json").read_bytes()
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(program))
        assert len(PWDGEN_MAP) < len(program)
        files = {"--program": tmp_path / "program.json", "--image-map": tmp_path / "image.map"}
        files["--program"].write_bytes(program)
        files["--image-map"].write_text(PWDGEN_MAP.ljust(len(program) - 1) + "\n")
        paths = [arg for flag, path in files.items() for arg in (flag, str(path))]
        assert main(["native", *paths, "-o", str(tmp_path / "out.txt")]) == 0
        with files[which].open("ab") as f:
            f.write(b" ")
        assert main(["native", *paths, "-o", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == (
            f"framevault: error: {files[which]}: input exceeds the cap of {len(program)} "
            f"bytes (MAX_INPUT_BYTES)\n")


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
        ("run", ()), ("run", ("--format", "json")), ("native", ()), ("diff", ())])
    def test_a_run_with_a_fault_exits_1(self, tmp_path, capsys, command, extra):
        assert run_doc(tmp_path, heap_write(HEAP_LIMIT), command, *extra) == 1
        out = capsys.readouterr().out
        if command in ("run", "native") and not extra:
            assert "faults: 1" in out
            assert "write outside writable regions" in out

    @pytest.mark.parametrize("command", ["run", "native", "diff"])
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
        code = main(["run", "--program", str(instrumented_file),
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

    def test_run_json_carries_the_stats(self, capsys, instrumented_file):
        args = ["--program", str(instrumented_file), "--image-map", DEMO_MAP,
                "--format", "json"]
        capsys.readouterr()  # drop the provenance listing
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

    @pytest.mark.parametrize("scenario, code", [
        (generate_scenario(43, 1, FuzzConfig()), 0),
        (faulting_scenario(), 1),
    ], ids=["clean", "failing"])
    def test_replay_in_json(self, tmp_path, capsys, scenario, code):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(scenario))
        assert main(["fuzz", "--replay", str(path), "--format", "json"]) == code
        report, problems = check_scenario(scenario)
        assert bool(problems) == bool(code)
        assert capsys.readouterr().out == to_json({**report_to_dict(report),
                                                    "problems": problems})

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
        ({"index": 0, "seed": 0, "entry": "main", "untrusted": [1]},
         "key 'untrusted' must be a list of strings"),
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


class TestJsonForms:
    """The JSON forms of a campaign and of each violation type."""

    def fuzz_json(self, tmp_path, *extra) -> tuple[int, dict]:
        out = tmp_path / "campaign.json"
        code = main(["fuzz", "--format", "json", "--no-minimize", "-o", str(out),
                     "--save-dir", str(tmp_path / "findings"), *extra])
        return code, json.loads(out.read_text())

    def test_a_clean_campaign(self, tmp_path):
        code, doc = self.fuzz_json(tmp_path, "--seed", "3", "--count", "5", "--adversarial")
        assert code == 0
        assert doc == {"version": REPORT_VERSION, "mode": "fuzz", "seed": 3, "scenarios": 5,
                       "max_chain": 3, "probes": True, "adversarial": True, "findings": []}

    def test_a_campaign_with_findings(self, tmp_path, runtime_saves_without_clearing):
        code, doc = self.fuzz_json(tmp_path, "--seed", str(LEAKY_SEED),
                                   "--count", str(LEAKY_CONFIG.scenarios))
        assert code == 1
        assert [f["index"] for f in doc["findings"]] == LEAKY_FINDINGS
        for finding in doc["findings"]:
            assert set(finding) == {"index", "seed", "problems"}
            assert finding["seed"] == LEAKY_SEED
            assert finding["problems"]
            assert all(p.startswith("violation: Leak(") for p in finding["problems"])

    def test_an_exception_entry_of_run(self, tmp_path, capsys):
        program, table = build_spoof_program([test_executor.TestSpoofing.FORGED_REGISTER])
        program_file, map_file = tmp_path / "spoof.json", tmp_path / "spoof.map"
        program_file.write_text(emit(program))
        map_file.write_text(image_map_for(program))
        assert main(["run", "--program", str(program_file), "--image-map", str(map_file),
                     "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        # The forged call is lib's first statement, so its pc is lib's first.
        assert doc["violations"] == [{
            "type": "exception", "kind": "IdentityMismatch", "syscall": "register_memory",
            "caller_pc": table.by_name("lib").lo,
            "detail": "caller lib does not own the latest frame registration (victim)"}]

    def test_a_leak_entry(self):
        secret = bytes(range(0xA0, 0xB0))
        report, _ = leaky_run((
            FunctionDesc(name="victim", locals=(VarDesc("secret", 16),),
                         body=(Assign("secret", secret), Call("lib"), Return())),
            FunctionDesc(name="lib", body=(ReadProbe(FrameTarget("victim", 0), 16),
                                           Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return()))), "lib(0)\n", "victim\n")
        doc = report_to_dict(report)
        (read,) = doc["observations"]
        assert read["bytes"] == secret.hex()
        assert doc["violations"] == [{
            "type": "leak", "window": 1, "function": "lib", "addr": read["addr"], "len": 16,
            "secret_bytes": 16, "detail": "untrusted read observed protected bytes"}]


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every `framevault` line in README's sh blocks,
    with backslash continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:]
            for line in lines if line.startswith("framevault ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_lines_parse(argv):
    assert cli.build_parser().parse_args(argv).func is not None


def test_readme_commands_are_found():
    assert {argv[0] for argv in readme_commands()} >= {"instrument", "diff", "run", "fuzz"}


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

    def test_module_entry_point_prints_the_diff(self, instrumented_file):
        proc = subprocess.run([sys.executable, "-m", "framevault.cli", "diff",
                               "--program", str(instrumented_file), "--image-map", DEMO_MAP],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "exit 0\n" + proc.stdout == (GOLDEN_DIR / "pwdgen-diff.text").read_text()

    def test_console_main_exits_with_mains_code(self, tmp_path, monkeypatch):
        argv = ["run", "--program", str(tmp_path / "program.json"),
                "--image-map", str(tmp_path / "program.map")]
        code = run_doc(tmp_path, heap_write(HEAP_LIMIT))
        assert code == 1 and main(argv) == code
        monkeypatch.setattr(sys, "argv", ["framevault", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
        assert exc.value.code == code
