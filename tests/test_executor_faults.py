"""The executor's fault paths, each pinned to its exact message, the
integrity verdict from detection through both report renderings, and a
forged window that must not expose a later window's secret."""

from __future__ import annotations

import dataclasses

import pytest

from framevault import executor
from framevault.executor import (IntegrityBreach, image_map_for, run, run_native,
                                 secret_bytes_observed)
from framevault.identity import load_image_map
from framevault.instrument import instrument, parse_lists
from framevault.memory import (FRAME_METADATA_BYTES, HEAP_CAPACITY, STACK_BASE,
                               STACK_CAPACITY)
from framevault.program import (AddressRef, Assign, Call, DerefTarget, FunctionDesc,
                                HeapAlloc, HeapTarget, PointeeRef, ProgramDesc, ReadProbe,
                                Return, RuntimeCall, ValueArg, VarDesc, VarRef, VarTarget,
                                WriteProbe)
from framevault.oracle import OracleVault
from framevault.reporting import render_report, report_to_dict
from framevault.runtime import VaultState

from support import pwdgen_instrumented, pwdgen_table


def run_main(*body, locals=(), others=()):
    """Run a hand-built instrumented program whose `main` has `body`."""
    program = ProgramDesc(functions=(
        FunctionDesc(name="main", locals=tuple(locals), body=tuple(body) + (Return(),)),
        *others), instrumented=True)
    return run(program, load_image_map(image_map_for(program)), "main")


def faults_of(*body, **kwargs):
    return run_main(*body, **kwargs).faults


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
    def test_into_an_unknown_variable(self):
        assert faults_of(HeapAlloc("ghost", 16)) == [
            "main: heap_alloc into unknown variable 'ghost'"]

    def test_beyond_the_heap_capacity(self):
        size = HEAP_CAPACITY + 1
        assert faults_of(HeapAlloc("p", size), locals=(VarDesc("p", 8),)) == [
            f"main: allocation of {size} bytes exceeds heap capacity"]


class TestNames:
    def test_unknown_argument_variable(self):
        lib = FunctionDesc(name="lib", params=(VarDesc("a", 8),), body=(Return(),))
        assert faults_of(Call("lib", (ValueArg("ghost"),)), others=(lib,)) == [
            "main: unknown argument variable 'ghost'"]

    def test_deref_of_an_unknown_variable(self):
        assert faults_of(ReadProbe(DerefTarget("ghost"), 4)) == [
            "main: deref of unknown variable 'ghost'"]

    def test_heap_object_that_does_not_exist(self):
        assert faults_of(ReadProbe(HeapTarget(3), 4)) == [
            "main: heap object 3 does not exist"]

    def test_frame_without_the_variable(self):
        assert faults_of(ReadProbe(VarTarget("main", "ghost"), 4)) == [
            "main: main has no variable 'ghost'"]


class TestRegions:
    FRAME = RuntimeCall(call="register_stack", all=False)

    def test_variable_region_names_an_unknown_variable(self):
        assert faults_of(self.FRAME, RuntimeCall(call="register_memory",
                                                 target=VarRef("ghost"))) == [
            "main: register_memory names unknown variable 'ghost'"]

    @pytest.mark.parametrize("var, length", [("ghost", 8), ("p", None)])
    def test_unresolvable_pointee_region(self, var, length):
        call = RuntimeCall(call="register_memory", target=PointeeRef(var), length=length)
        assert faults_of(self.FRAME, call, locals=(VarDesc("p", 8),)) == [
            "main: register_memory has unresolvable pointee region"]

    def test_call_without_a_region(self):
        assert faults_of(self.FRAME, RuntimeCall(call="register_memory_exception")) == [
            "main: register_memory_exception without a region"]

    def test_register_value_error_becomes_a_fault(self):
        call = RuntimeCall(call="register_memory", target=AddressRef(0x50), length=8)
        assert faults_of(self.FRAME, call) == [
            "main: register_memory: region 0x50+8 outside stack and heap"]


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
