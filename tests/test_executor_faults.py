"""The executor's fault paths, each pinned to its exact message, its call
stack (independent of Python's), the integrity verdict from detection
through both report renderings, and a forged window that must not expose
a later window's secret. A name a statement gives in its own function is
resolved when the function is built, so those cases are refusals of the
description, not faults of a run."""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter

import pytest

from framevault import executor
from framevault.cli import main
from framevault.executor import (IntegrityBreach, image_map_for, run, run_native,
                                 secret_bytes_observed)
from framevault.identity import load_image_map
from framevault.instrument import instrument, parse_lists
from framevault.memory import (FRAME_METADATA_BYTES, HEAP_CAPACITY, STACK_BASE,
                               STACK_CAPACITY, TEXT_BASE, ProcessMemory)
from framevault.program import (AbsoluteTarget, AddressRef, AddrOfArg, Assign, Call,
                                DerefTarget, FrameTarget, FunctionDesc, HeapAlloc, HeapTarget,
                                PointeeRef, ProgramDesc, ProgramFormatError, ReadProbe, Return,
                                RuntimeCall, ValueArg, VarDesc, VarRef, VarTarget, WriteProbe,
                                _stmt_to_dict, parse)
from framevault.oracle import OracleVault
from framevault.reporting import render_report, report_to_dict
from framevault.runtime import ExceptionKind, VaultState

from support import pwdgen_instrumented, pwdgen_table


def run_main(*body, locals=(), others=(), runner=run):
    """Run a hand-built instrumented program whose `main` has `body`."""
    program = ProgramDesc(functions=(
        FunctionDesc(name="main", locals=tuple(locals), body=tuple(body) + (Return(),)),
        *others), instrumented=True)
    return runner(program, load_image_map(image_map_for(program)), "main")


def faults_of(*body, **kwargs):
    return run_main(*body, **kwargs).faults


def assert_refused(tmp_path, capsys, message, *body, locals=()):
    """A `main` whose `body` ends in a statement that names no region or a
    variable `main` does not declare is refused three ways: built in code,
    at that statement; parsed, with the document's location in front; and
    by `framevault run`, with exit 2."""
    at = f"body[{len(body) - 1}]"
    with pytest.raises(ProgramFormatError) as built:
        FunctionDesc(name="main", locals=tuple(locals), body=body + (Return(),))
    assert (built.value.at, built.value.message) == (at, message)
    doc = {"instrumented": True, "functions": [{
        "name": "main", "locals": [{"name": v.name, "size": v.size} for v in locals],
        "body": [_stmt_to_dict(stmt) for stmt in body + (Return(),)]}]}
    with pytest.raises(ProgramFormatError) as parsed:
        parse(json.dumps(doc))
    assert str(parsed.value) == f"functions[0].{at}: {message}"
    program_file, map_file = tmp_path / "refused.json", tmp_path / "refused.map"
    program_file.write_text(json.dumps(doc))
    map_file.write_text("main 0x401000 0x401100\n")
    assert main(["run", "--program", str(program_file), "--image-map", str(map_file)]) == 2
    assert capsys.readouterr().err == f"framevault: error: functions[0].{at}: {message}\n"


class TestEnterAndBudget:
    def test_frame_larger_than_the_stack_cannot_enter(self):
        big = FunctionDesc(name="big", locals=(VarDesc("blob", STACK_CAPACITY),),
                           body=(Return(),))
        size = STACK_CAPACITY + FRAME_METADATA_BYTES
        assert faults_of(Call("big"), others=(big,)) == [
            f"cannot enter big: frame of {size} bytes exceeds stack capacity"]

    def test_statement_budget_halts_the_run(self, monkeypatch):
        monkeypatch.setattr(executor, "MAX_STATEMENTS", 5)
        report = run_main(*(Assign("x", b"\x01") for _ in range(10)),
                          locals=(VarDesc("x", 1),))
        assert report.halted
        assert report.faults == ["statement budget exceeded"]

    def test_runtime_calls_and_returns_cost_one_step_each_in_a_native_run(self, monkeypatch):
        # Steps: 1 register_stack, 2 write 01, 3 unregister_stack, 4 write 02,
        # 5 call leaf, 6 leaf's return, 7 write 03, 8 main's return.
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", locals=(VarDesc("x", 1),), body=(
                RuntimeCall(call="register_stack", all=False),
                WriteProbe(VarTarget("main", "x"), b"\x01"),
                RuntimeCall(call="unregister_stack"),
                WriteProbe(VarTarget("main", "x"), b"\x02"),
                Call("leaf"),
                WriteProbe(VarTarget("main", "x"), b"\x03"),
                Return())),
            FunctionDesc(name="leaf", body=(Return(),))), instrumented=True)
        table = load_image_map(image_map_for(program))
        written = {1: [], 2: ["01"], 3: ["01"], 4: ["01", "02"], 5: ["01", "02"],
                   6: ["01", "02"], 7: ["01", "02", "03"], 8: ["01", "02", "03"]}
        # The same program and table throughout: each run reads the budget
        # afresh, whatever the budget was when the program was compiled.
        for budget in (8, 1, 7, 2, 6, 3, 5, 4):
            monkeypatch.setattr(executor, "MAX_STATEMENTS", budget)
            report = run_native(program, table, "main")
            assert [o.preview for o in report.observations] == written[budget], budget
            assert report.halted == (budget < 8), budget
            assert report.faults == (["statement budget exceeded"] if budget < 8 else [])


def python_depth() -> int:
    """Python frames on the stack, this function's included."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def program_of(*functions):
    program = ProgramDesc(functions=functions, instrumented=True)
    return program, load_image_map(image_map_for(program))


class TestCallStack:
    """Program calls run on the executor's own stack, so Python's stack
    depth does not grow with the program's call depth."""

    @pytest.mark.parametrize("runner", [run, run_native], ids=["protected", "native"])
    def test_runaway_recursion_runs_under_a_tight_recursion_limit(self, runner):
        # `main` calls itself until the depth limit refuses the call.
        program, table = program_of(FunctionDesc(name="main", body=(Call("main"), Return())))
        expected = runner(program, table, "main")
        assert expected.faults == ["main: call depth limit at main"]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(python_depth() + 60)
        try:
            report = runner(program, table, "main")
        finally:
            sys.setrecursionlimit(limit)
        assert render_report(report) == render_report(expected)

    def test_a_halt_deep_in_a_chain_pops_every_frame_it_pushed(self, monkeypatch):
        program, table = program_of(
            *(FunctionDesc(name=f"f{i}", body=(Call(f"f{i + 1}"), Return())) for i in range(99)),
            FunctionDesc(name="f99", body=(Return(),)))
        calls = Counter()
        for name in ("push_frame", "pop_frame"):
            def counted(self, *args, _name=name, _method=getattr(ProcessMemory, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(ProcessMemory, name, counted)
        # Step k is f(k-1) calling fk, so the 51st step, in f50, halts.
        monkeypatch.setattr(executor, "MAX_STATEMENTS", 50)
        report = run(program, table, "f0")
        assert report.halted and report.faults == ["statement budget exceeded"]
        assert calls["push_frame"] == calls["pop_frame"] == 51


class TestImageMapCoverage:
    PROGRAM = ProgramDesc(functions=(
        FunctionDesc(name="main", body=(Call("b"), Return())),
        FunctionDesc(name="c", body=(Return(),)),
        FunctionDesc(name="b", body=(Return(),))), instrumented=True)
    MAIN_ONLY = load_image_map("main 0x401000 0x401100\n")

    def test_uncovered_functions_are_named_in_sorted_order(self):
        with pytest.raises(ValueError) as err:
            run(self.PROGRAM, self.MAIN_ONLY, "main")
        assert str(err.value) == "image map does not cover: b, c"

    def test_an_undescribed_entry_is_reported_before_the_coverage(self):
        for _ in range(2):  # also once the program has been compiled against the map
            with pytest.raises(ValueError) as err:
                run(self.PROGRAM, self.MAIN_ONLY, "absent")
            assert str(err.value) == "entry function 'absent' not described"


class TestHeapAlloc:
    def test_into_an_unknown_variable(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys,
                       "heap_alloc into undeclared variable 'ghost' of function 'main'",
                       HeapAlloc("ghost", 16))

    def test_beyond_the_heap_capacity(self):
        size = HEAP_CAPACITY + 1
        assert faults_of(HeapAlloc("p", size), locals=(VarDesc("p", 8),)) == [
            f"main: allocation of {size} bytes exceeds heap capacity"]


class TestNames:
    def test_unknown_argument_variable(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys,
                       "argument of undeclared variable 'ghost' of function 'main'",
                       Call("lib", (ValueArg("x"), AddrOfArg("ghost"))),
                       locals=(VarDesc("x", 8),))

    def test_deref_of_an_unknown_variable(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys,
                       "deref of undeclared variable 'ghost' of function 'main'",
                       ReadProbe(DerefTarget("ghost"), 4))

    def test_heap_object_that_does_not_exist(self):
        assert faults_of(ReadProbe(HeapTarget(3), 4)) == [
            "main: heap object 3 does not exist"]

    def test_frame_without_the_variable(self):
        assert faults_of(ReadProbe(VarTarget("main", "ghost"), 4)) == [
            "main: main has no variable 'ghost'"]


class TestProbes:
    """Probe faults, each in a protected and a native run."""

    @pytest.fixture(params=[run, run_native], ids=["protected", "native"])
    def runner(self, request):
        return request.param

    @pytest.mark.parametrize("target", [FrameTarget("ghost", 4), VarTarget("ghost", "x")],
                             ids=["frame", "var"])
    @pytest.mark.parametrize("probe", [lambda t: ReadProbe(t, 4),
                                       lambda t: WriteProbe(t, b"\x01")], ids=["read", "write"])
    def test_a_function_that_never_ran(self, runner, target, probe):
        assert faults_of(probe(target), runner=runner) == [
            "main: no frame known for 'ghost'"]

    def test_read_outside_the_mapped_regions(self, runner):
        assert faults_of(ReadProbe(AbsoluteTarget(0x50), 8), runner=runner) == [
            "main: probe read outside mapped regions: 0x50+8"]

    def test_write_into_the_text_region(self, runner):
        assert faults_of(WriteProbe(AbsoluteTarget(TEXT_BASE + 0x10), b"\x01\x02"),
                         runner=runner) == [
            f"main: probe write to read-only text region: {TEXT_BASE + 0x10:#x}"]

    @pytest.mark.parametrize("probe, fault", [
        (ReadProbe(DerefTarget("p", 4), 2), "read outside mapped regions: 0x54+2"),
        (WriteProbe(DerefTarget("p", 4), b"\x01\x02"), "write outside writable regions: 0x54+2"),
    ], ids=["read", "write"])
    def test_deref_of_a_pointer_into_unmapped_memory(self, runner, probe, fault):
        pointer = Assign("p", (0x50).to_bytes(8, "little"))
        assert faults_of(pointer, probe, locals=(VarDesc("p", 8),), runner=runner) == [
            f"main: probe {fault}"]


class TestRegions:
    FRAME = RuntimeCall(call="register_stack", all=False)

    def test_variable_region_names_an_unknown_variable(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys,
                       "register_memory of undeclared variable 'ghost' of function 'main'",
                       self.FRAME, RuntimeCall(call="register_memory", target=VarRef("ghost")))

    @pytest.mark.parametrize("var, length, message", [
        ("ghost", 8, "register_memory of undeclared variable 'ghost' of function 'main'"),
        ("p", None, "register_memory of a pointee needs 'len'"),
    ], ids=["ghost-8", "p-None"])
    def test_unresolvable_pointee_region(self, tmp_path, capsys, var, length, message):
        call = RuntimeCall(call="register_memory", target=PointeeRef(var), length=length)
        assert_refused(tmp_path, capsys, message, self.FRAME, call, locals=(VarDesc("p", 8),))

    def test_call_without_a_region(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys, "register_memory_exception needs a region",
                       self.FRAME, RuntimeCall(call="register_memory_exception"))

    def test_a_region_outside_stack_and_heap_is_refused(self):
        call = RuntimeCall(call="register_memory", target=AddressRef(0x50), length=8)
        report = run_main(self.FRAME, call)
        assert report.faults == []
        assert [(v.kind, v.syscall, v.detail) for v in report.violations] == [
            (ExceptionKind.INVALID_REGION, "register_memory",
             "region 0x50+8 outside stack and heap")]


def test_a_hand_built_call_outside_the_six_is_refused_when_built():
    with pytest.raises(ProgramFormatError) as err:
        FunctionDesc(name="main", body=(Return(), RuntimeCall(call="reboot")))
    assert str(err.value) == "body[1]: unknown runtime call 'reboot'"


class RestoresNothing(VaultState):
    """A broken runtime whose windows close without writing anything back."""

    def _close_window(self, memory, start, end):
        pass


def test_unrestored_window_is_an_integrity_breach_in_every_rendering():
    report = run(pwdgen_instrumented(), pwdgen_table(), "main",
                 vault_factory=RestoresNothing)
    # pwdgenerator's frame minus the carved-out `age`, in two pieces, then
    # the heap block `id` points to. Byte 3 of the second piece is the
    # first non-zero byte of the pointer 0x10000000.
    frame_top = STACK_BASE - FRAME_METADATA_BYTES - (256 + 4 + 8 + FRAME_METADATA_BYTES)
    expected = [(1, frame_top, 256, "first mismatch at byte 0"),
                (1, frame_top + 260, 24, "first mismatch at byte 3"),
                (1, 0x1000_0000, 64, "first mismatch at byte 0")]
    assert all(isinstance(v, IntegrityBreach) for v in report.violations)
    assert [(v.window, v.address, v.length, v.detail) for v in report.violations] == expected

    lines = [line for line in render_report(report).splitlines() if "integrity" in line]
    assert lines == [f"  integrity  window {w}  addr {a:#x}  len {n}  {d}"
                     for w, a, n, d in expected]
    assert report_to_dict(report)["violations"] == [
        {"type": "integrity", "window": w, "addr": a, "len": n, "detail": d}
        for w, a, n, d in expected]


def forged_window_program() -> ProgramDesc:
    """`main` calls `victim`, then `mid`, which calls `w2`. `victim` and
    `w2` are whole-frame sensitive and each calls one untrusted lib: `lib0`
    forges a `start_protect`, `lib1` reads all of `w2`'s secret. `mid`'s
    64-byte local puts `w2`'s frame off `victim`'s old stack range, so the
    executor window left open over `victim` cannot catch the read."""
    secret = bytes(range(1, 33))
    program = instrument(ProgramDesc(functions=(
        FunctionDesc(name="main", body=(Call("victim"), Call("mid"), Return())),
        FunctionDesc(name="victim", locals=(VarDesc("s", 32),),
                     body=(Assign("s", secret), Call("lib0"), Return())),
        FunctionDesc(name="lib0", body=(Return(),)),
        FunctionDesc(name="mid", locals=(VarDesc("pad", 64),), body=(Call("w2"), Return())),
        FunctionDesc(name="w2", locals=(VarDesc("s", 32),),
                     body=(Assign("s", secret), Call("lib1"), Return())),
        FunctionDesc(name="lib1", body=(ReadProbe(VarTarget("w2", "s"), 32), Return())),
    )), *parse_lists("lib0\nlib1", "victim\nw2"))
    forged = RuntimeCall(call="start_protect")
    return ProgramDesc(functions=tuple(
        dataclasses.replace(fn, body=(forged, *fn.body)) if fn.name == "lib0" else fn
        for fn in program.functions), instrumented=True)


@pytest.mark.parametrize("vault_factory", [VaultState, OracleVault])
def test_a_forged_window_exposes_no_later_secret(vault_factory):
    # The victim's stop_protect is refused (lib0's window is on top), so its
    # unregister_stack is refused too: its registration stays under the
    # open windows, and w2's window opens above it and hides w2's frame.
    program = forged_window_program()
    report = run(program, load_image_map(image_map_for(program)), "main",
                 vault_factory=vault_factory)
    assert secret_bytes_observed(report) == 0
    lines = render_report(report).splitlines()
    first = lines.index("violations: 2") + 1
    assert lines[first:lines.index("faults: 0")] == [
        "  exception  IdentityMismatch  stop_protect  pc 0x401104  "
        "window opened by lib0, closed by victim",
        "  exception  IndexMismatch  unregister_stack  pc 0x401105  "
        "frame registration 0 lies below the open window's watermark 1"]
