"""Differential test of the executor's native runs against a naive
reference interpreter.

The reference walks the raw `FunctionDesc`s recursively, keeps memory as a
dict from address to non-zero byte (as in test_memory_reference.py) and
applies the frame layout, the region rules, the call-depth limit and the
statement budget directly; it knows nothing of compiled plans, segments
or handler tables. Generated scenarios, clean and adversarial, run
through both, and the observations, faults, `halted` and the number of
statements run must agree, also when a small budget halts the run.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from framevault import executor
from framevault.executor import run_native
from framevault.fuzzer import FuzzConfig, generate_scenario
from framevault.identity import load_image_map
from framevault.memory import (FRAME_METADATA_BYTES, HEAP_BASE, HEAP_LIMIT, STACK_BASE,
                               STACK_LIMIT, TEXT_BASE, TEXT_LIMIT)
from framevault.program import (AbsoluteTarget, AddrOfArg, Assign, Call, DerefTarget,
                                FrameTarget, HeapAlloc, HeapTarget, ReadProbe, Return,
                                WriteProbe)

WRITABLE = ((STACK_LIMIT, STACK_BASE), (HEAP_BASE, HEAP_LIMIT))
READABLE = WRITABLE + ((TEXT_BASE, TEXT_LIMIT),)


def _inside(regions, addr, length):
    return any(lo <= addr and addr + length <= hi for lo, hi in regions)


class _Halt(Exception):
    pass


class _Fault(Exception):
    pass


class Reference:
    """One native run of a program, statement by statement."""

    def __init__(self, program, budget):
        self.functions = {}
        for fn in program.functions:
            self.functions.setdefault(fn.name, fn)
        self.budget = budget
        self.bytes: dict[int, int] = {}
        self.stack_top = STACK_BASE
        self.heap_next = HEAP_BASE
        self.objects: list[int] = []                      # heap object bases
        self.last_frame: dict[str, tuple[int, dict]] = {}  # name -> (top, variables)
        self.observations: list[tuple] = []
        self.faults: list[str] = []
        self.steps = 0
        self.halted = False

    def run(self, entry):
        try:
            self.invoke(self.functions[entry], [], 0)
        except _Halt:
            self.halted = True
        return self

    # memory ------------------------------------------------------------

    def read(self, addr, length):
        if not _inside(READABLE, addr, length):
            raise _Fault(f"read outside mapped regions: {addr:#x}+{length}")
        return bytes(self.bytes.get(a, 0) for a in range(addr, addr + length))

    def write(self, addr, data):
        if data and not _inside(WRITABLE, addr, len(data)):
            if _inside(((TEXT_BASE, TEXT_LIMIT),), addr, len(data)):
                raise _Fault(f"write to read-only text region: {addr:#x}")
            raise _Fault(f"write outside writable regions: {addr:#x}+{len(data)}")
        for i, b in enumerate(data):
            if b:
                self.bytes[addr + i] = b
            else:
                self.bytes.pop(addr + i, None)

    # statements --------------------------------------------------------

    def invoke(self, fn, args, depth):
        variables, slots, off = {}, [], 0
        for v in fn.params + fn.locals:
            variables.setdefault(v.name, (off, v.size))
            slots.append((off, v.size))
            off += v.size
        size = off + FRAME_METADATA_BYTES
        top = self.stack_top - size
        if top < STACK_LIMIT:
            self.faults.append(f"cannot enter {fn.name}: frame of {size} bytes exceeds "
                               f"stack capacity")
            return
        saved_top, self.stack_top = self.stack_top, top
        self.write(top, bytes(size))
        self.last_frame[fn.name] = (top, variables)
        for (offset, size), data in zip(slots, args):  # by position, as declared
            self.write(top + offset, data[:size])
        try:
            for stmt in fn.body:
                self.steps += 1
                if self.steps > self.budget:
                    self.faults.append("statement budget exceeded")
                    raise _Halt()
                try:
                    self.statement(fn, top, variables, stmt, depth)
                except _Fault as fault:
                    self.faults.append(f"{fn.name}: {fault}")
                if isinstance(stmt, Return):
                    break
        finally:
            self.stack_top = saved_top

    def statement(self, fn, top, variables, stmt, depth):
        if isinstance(stmt, Assign):
            self.write(top + variables[stmt.var][0], stmt.value)
        elif isinstance(stmt, HeapAlloc):
            base = self.heap_next
            if base + stmt.size > HEAP_LIMIT:
                raise _Fault(f"allocation of {stmt.size} bytes exceeds heap capacity")
            self.heap_next = base + (stmt.size + 15) // 16 * 16
            self.objects.append(base)
            off, size = variables[stmt.var]
            self.write(top + off, base.to_bytes(8, "little")[:size])
            self.write(base, (stmt.init or b"")[:stmt.size])
        elif isinstance(stmt, Call):
            callee = self.functions.get(stmt.callee)
            if callee is None:
                raise _Fault(f"call to unknown function {stmt.callee!r}")
            if depth + 1 >= executor.MAX_CALL_DEPTH:
                raise _Fault(f"call depth limit at {stmt.callee}")
            args = []
            for arg in stmt.args:
                off, size = variables[arg.var]
                args.append((top + off).to_bytes(8, "little") if isinstance(arg, AddrOfArg)
                            else self.read(top + off, size))
            self.invoke(callee, args, depth + 1)
        elif isinstance(stmt, (ReadProbe, WriteProbe)):
            addr = self.target(top, variables, stmt.target)
            try:
                if isinstance(stmt, ReadProbe):
                    kind, data = "read", self.read(addr, stmt.length)
                else:
                    kind, data = "write", stmt.value
                    self.write(addr, data)
            except _Fault as fault:
                raise _Fault(f"probe {fault}") from None
            self.observations.append((kind, fn.name, None, addr, len(data),
                                      sum(1 for b in data if b), data[:16].hex()))
        # A runtime call costs its step and does nothing in a native run.

    def target(self, top, variables, target):
        if isinstance(target, AbsoluteTarget):
            return target.addr
        if isinstance(target, DerefTarget):
            pointer = self.read(top + variables[target.param][0], 8)
            return int.from_bytes(pointer, "little") + target.offset
        if isinstance(target, HeapTarget):
            if not 0 <= target.index < len(self.objects):
                raise _Fault(f"heap object {target.index} does not exist")
            return self.objects[target.index] + target.offset
        if target.function not in self.last_frame:
            raise _Fault(f"no frame known for {target.function!r}")
        victim_top, victim_vars = self.last_frame[target.function]
        if isinstance(target, FrameTarget):
            return victim_top + target.offset
        if target.var not in victim_vars:
            raise _Fault(f"{target.function} has no variable {target.var!r}")
        return victim_top + victim_vars[target.var][0] + target.offset


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), index=st.integers(0, 999), adversarial=st.booleans(),
       max_chain=st.integers(1, 6), budget=st.integers(0, 60))
def test_native_runs_match_the_reference(seed, index, adversarial, max_chain, budget):
    scenario = generate_scenario(seed, index, FuzzConfig(max_chain=max_chain,
                                                         adversarial=adversarial))
    table = load_image_map(scenario.image_map)
    steps = Reference(scenario.program, executor.MAX_STATEMENTS).run(scenario.entry).steps
    # The last two budgets pin the step count: one short of it halts the
    # run at its last statement, and exactly it lets the run finish.
    for limit in (executor.MAX_STATEMENTS, budget, steps - 1, steps):
        with mock.patch.object(executor, "MAX_STATEMENTS", limit):
            report = run_native(scenario.program, table, scenario.entry)
        ref = Reference(scenario.program, limit).run(scenario.entry)
        assert [(o.kind, o.function, o.window, o.address, o.length, o.nonzero, o.preview)
                for o in report.observations] == ref.observations, limit
        assert (report.faults, report.halted) == (ref.faults, ref.halted), limit
        assert ref.halted == (limit < steps), limit
