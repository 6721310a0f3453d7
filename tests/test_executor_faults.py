"""The executor's fault paths, each pinned to its exact message, and the
integrity verdict from detection through both report renderings."""

from __future__ import annotations

import pytest

from framevault import executor
from framevault.executor import IntegrityBreach, image_map_for, run
from framevault.identity import load_image_map
from framevault.memory import (FRAME_METADATA_BYTES, HEAP_CAPACITY, STACK_BASE,
                               STACK_CAPACITY)
from framevault.program import (AddressRef, Assign, Call, DerefTarget, FunctionDesc,
                                HeapAlloc, HeapTarget, PointeeRef, ProgramDesc, ReadProbe,
                                Return, RuntimeCall, ValueArg, VarDesc, VarRef, VarTarget)
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
