"""Executes program descriptions over the simulated memory and the
protection runtime: the interpreter.

Program-counter values are synthesized per statement from the executing
function's image-map span, so the runtime sees the same unforgeable caller
identity a hardware PC would give it. A protected run makes its
start_protect and stop_protect calls through an `oracle.WindowChecker`,
which owns the verdicts, and keeps only the stack of open window ids that
observations name.

A program is compiled once per program and image map: the first run
under an identity table compiles it, and the plan stays on the program
object, so later runs under the same table (native, protected and oracle
runs alike) share it; a run under another table compiles again and
replaces it. For each function the plan holds the image-map span, the
variables' (offset, size) from the frame top, the frame size, and the
body up to its first `return` as module-level handlers with their
operands. A runtime call's handler is the action for its call in a
protected run and does nothing in a native one; its operand carries its
pc and provenance key. All of these are picked at compile time. A probe
finds its target's resolver in a table keyed by the target's type.

Program calls do not recurse in Python. One loop runs the innermost
function's statements and keeps each suspended caller, with its statement
iterator, on an explicit stack, so Python's stack depth stays the same
however deep the program calls. The statement budget is read once per
run, not compiled in.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .identity import FunctionSpan, IdentityTable, synthesize_image_map
from .memory import (_COUNT_SMALL, FRAME_METADATA_BYTES, MemoryFault, ProcessMemory, StackFrame,
                     _nonzero)
from .oracle import IntegrityBreach, Leak, WindowChecker
from .program import (AbsoluteTarget, AddrOfArg, Assign, Call, DerefTarget,
                      FrameTarget, FunctionDesc, HeapAlloc, HeapTarget, PointeeRef,
                      ProgramDesc, ReadProbe, Return, RuntimeCall, VarRef, VarTarget,
                      WriteProbe, shown)
from .runtime import SyscallStats, VaultException, VaultState

MAX_CALL_DEPTH = 128
MAX_STATEMENTS = 1_000_000


class Observation(NamedTuple):
    """One probe executed by (untrusted) code. A NamedTuple, so it equals
    the plain tuple of its fields in this order."""

    kind: str  # "read" | "write"
    function: str
    window: int | None
    address: int
    length: int
    nonzero: int
    preview: str


Violation = Leak | IntegrityBreach | VaultException


@dataclass
class ExecutionReport:
    mode: str  # "protected" | "native"
    entry: str
    violations: list[Violation]
    faults: list[str]
    observations: list[Observation]
    stats: SyscallStats
    provenance_counts: dict[str, int]
    final_digest: str
    halted: bool = False

    @property
    def clean(self) -> bool:
        return not self.violations


def secret_bytes_observed(report: ExecutionReport) -> int:
    """Non-zero bytes untrusted reads managed to observe."""
    return sum(o.nonzero for o in report.observations if o.kind == "read")


def function_layout(fn: FunctionDesc) -> tuple[dict[str, int], int]:
    """Variable offsets from the frame top (params then locals, declaration
    order) and total frame size including the metadata pad."""
    layout, _, size = _layout(fn)
    return {name: off for name, (off, _) in layout.items()}, size


def _layout(fn: FunctionDesc) -> tuple[dict[str, tuple[int, int]], tuple, int]:
    """`function_layout` as the plan keeps it: name -> (offset, size), the
    (offset, size) of each parameter by position, and the frame size."""
    layout: dict[str, tuple[int, int]] = {}
    off = 0
    for v in fn.params + fn.locals:
        layout[v.name] = (off, v.size)
        off += v.size
    return layout, tuple(layout.values())[:len(fn.params)], off + FRAME_METADATA_BYTES


def image_map_for(program: ProgramDesc) -> str:
    """Synthesize an image map whose spans cover every statement index."""
    return synthesize_image_map([(fn.name, max(len(fn.body), 1)) for fn in program.functions])


class _Function(NamedTuple):
    """One function of a compiled program. `handlers` and `operands` run
    the body up to and including its first `return`, one pair per
    statement: `handlers[i](executor, ctx, operands[i])`. A native run
    takes `native_handlers` instead, which differ only at runtime calls."""

    desc: FunctionDesc
    span: FunctionSpan
    vars: dict[str, tuple[int, int]]  # name -> (offset from the frame top, size)
    params: tuple[tuple[int, int], ...]  # (offset, size) of each parameter, in order
    frame_size: int
    handlers: tuple
    native_handlers: tuple
    operands: tuple  # the statement; for a runtime call (statement, pc, key)


class _Plan(NamedTuple):
    """A program compiled against one identity table."""

    table: IdentityTable
    functions: dict[str, _Function]
    keys: tuple[str, ...]  # every runtime call's provenance key, sorted
    uncovered: list[str]  # described functions the image map has no span for


def _compile(program: ProgramDesc, table: IdentityTable) -> _Plan:
    functions: dict[str, _Function] = {}
    keys: set[str] = set()
    uncovered = []
    # A plan lives as long as its program, so functions share equal
    # variable maps and handler sequences, and a body that equals its
    # operands is itself the operand tuple.
    layouts: dict[tuple, dict[str, tuple[int, int]]] = {}
    sequences: dict[tuple, tuple] = {}
    for fn in program.functions:
        span = table.by_name(fn.name)
        if span is None:
            uncovered.append(fn.name)
            continue
        handlers, native_handlers, operands = [], [], []
        for idx, stmt in enumerate(fn.body):
            if isinstance(stmt, RuntimeCall):
                pc = span.lo + min(idx, span.hi - span.lo - 1)
                # Interned: a plan holds one string per distinct key.
                key = sys.intern(f"{stmt.call}/{stmt.provenance or 'forged'}")
                keys.add(key)
                handlers.append(_RUNTIME_ACTIONS[stmt.call])
                native_handlers.append(_nothing)  # a native run makes no runtime call
                operands.append((stmt, pc, key))
                continue
            handlers.append(_HANDLERS.get(type(stmt), _nothing))
            native_handlers.append(handlers[-1])
            operands.append(stmt)
            if isinstance(stmt, Return):
                break
        layout, params, size = _layout(fn)
        handlers, native_handlers = tuple(handlers), tuple(native_handlers)
        operands = tuple(operands)
        if operands == fn.body:  # no runtime call and nothing after a `return`
            operands = fn.body
        functions[fn.name] = _Function(
            fn, span, layouts.setdefault(tuple(layout.items()), layout),
            sequences.setdefault(params, params), size,
            sequences.setdefault(handlers, handlers),
            sequences.setdefault(native_handlers, native_handlers), operands)
    return _Plan(table, functions, tuple(sorted(keys)), uncovered)


def _plan(program: ProgramDesc, table: IdentityTable) -> _Plan:
    """`program` compiled against `table`. The plan is kept in the
    program's instance dict, one per program and keyed by the table, so
    every run of the program under that table shares one compile; it is
    not a dataclass field, so equality, hashing and `emit` ignore it."""
    plan = vars(program).get("_plan")
    if plan is None or plan.table is not table:
        plan = vars(program)["_plan"] = _compile(program, table)
    return plan


class _FrameCtx(NamedTuple):
    func: FunctionDesc
    frame: StackFrame
    vars: dict[str, tuple[int, int]]  # name -> (offset from the frame top, size)


class _Halt(Exception):
    pass


class Executor:
    """One scenario execution. Keeps memory and runtime state accessible
    for post-run inspection. With vault_factory=None nothing is protected:
    runtime calls are skipped and the report's mode is "native"."""

    def __init__(self, program: ProgramDesc, table: IdentityTable, *,
                 strict: bool = False, vault_factory=VaultState):
        self.program = program
        self.table = table
        self.strict = strict
        self.memory = ProcessMemory()
        self.vault: VaultState | None = None if vault_factory is None else vault_factory(table)
        self.observations: list[Observation] = []
        self.violations: list[Violation] = []
        self.faults: list[str] = []
        self.provenance_counts: dict[str, int] = {}
        self.windows: list[int] = []  # the ids of the open windows, innermost last
        self._wid = 0
        self.checker = None if self.vault is None else WindowChecker(
            self.memory, self.vault, self.violations)
        self._frame_history: dict[str, _FrameCtx] = {}
        # Suspended callers, outermost first: (context, statement iterator)
        self._callers: list[tuple[_FrameCtx, Iterator]] = []
        self.functions: dict[str, _Function] = {}

    @property
    def native(self) -> bool:
        return self.vault is None

    # ------------------------------------------------------------------

    def run(self, entry: str) -> ExecutionReport:
        plan = _plan(self.program, self.table)
        if entry not in plan.functions and entry not in plan.uncovered:
            raise ValueError(f"entry function {shown(entry)} not described")
        if plan.uncovered:
            raise ValueError(
                f"image map does not cover: {shown(', '.join(sorted(plan.uncovered)), False)}")
        self.functions = plan.functions
        self.provenance_counts = dict.fromkeys(plan.keys, 0)
        halted = False
        try:
            self._execute(self.functions[entry])
        except _Halt:
            halted = True
        if self.vault is not None:
            self.violations.extend(self.vault.exception_log)
        return ExecutionReport(
            mode="native" if self.native else "protected",
            entry=entry,
            violations=self.violations,
            faults=self.faults,
            observations=self.observations,
            stats=self.vault.stats if self.vault else SyscallStats(),
            provenance_counts={key: n for key, n in self.provenance_counts.items() if n},
            final_digest=self._digest(),
            halted=halted,
        )

    # ------------------------------------------------------------------
    # interpretation

    def _execute(self, fn: _Function) -> None:
        """Run `fn` and every call it makes, on the explicit caller stack."""
        entered = _enter(self, fn, ())
        if entered is None:
            return
        ctx, statements = entered
        budget, steps = MAX_STATEMENTS, 0
        callers, pop_frame = self._callers, self.memory.pop_frame
        try:
            while True:
                for handler, operand in statements:
                    # Every statement run costs one step, `return` and the
                    # runtime calls a native run skips included.
                    steps += 1
                    if steps > budget:
                        self.faults.append("statement budget exceeded")
                        raise _Halt()
                    entered = handler(self, ctx, operand)
                    if entered is None:
                        continue
                    if type(entered) is tuple:  # a call: suspend ctx, run the callee
                        callers.append((ctx, statements))
                        ctx, statements = entered
                        break
                    if self.strict:  # a refused runtime call
                        raise _Halt()
                else:  # the function returned
                    pop_frame()
                    if not callers:
                        return
                    ctx, statements = callers.pop()
        except BaseException:
            # Pop every frame still pushed, the innermost first, as its
            # return would have.
            for _ in range(len(callers) + 1):
                pop_frame()
            callers.clear()
            raise

    # ------------------------------------------------------------------

    def _digest(self) -> str:
        h = hashlib.sha256()
        for obj in self.memory.heap_objects:
            h.update(b"H")
            h.update(obj.base.to_bytes(8, "little"))
            h.update(self.memory.read_bytes(obj.base, obj.size))
        return "sha256:" + h.hexdigest()


def _enter(ex: Executor, fn: _Function, args) -> tuple[_FrameCtx, Iterator] | None:
    """Push `fn`'s frame and write its arguments. Returns its context and
    statement iterator, or None, after a fault, when the frame does not fit."""
    try:
        frame = ex.memory.push_frame(fn.span.fid, fn.frame_size)
    except MemoryFault as exc:
        ex.faults.append(f"cannot enter {shown(fn.desc.name, False)}: {exc}")
        return None
    ctx = _FrameCtx(fn.desc, frame, fn.vars)
    ex._frame_history[fn.desc.name] = ctx
    for (offset, size), data in zip(fn.params, args):
        ex.memory.write_bytes(frame.top + offset, data[:size])
    return ctx, zip(fn.native_handlers if ex.vault is None else fn.handlers, fn.operands)


def _fault(ex: Executor, ctx: _FrameCtx, message: str) -> None:
    """Record a fault of the running function, whose name is shown bounded."""
    ex.faults.append(f"{shown(ctx.func.name, False)}: {message}")


# ----------------------------------------------------------------------
# statement handlers: handler(executor, ctx, operand) returns None, the
# callee's (context, statement iterator) for a call that entered it, or
# the vault's refusal for a refused runtime call

def _nothing(*_) -> None:
    """A statement or runtime call that only costs its step."""


def _assign(ex: Executor, ctx: _FrameCtx, stmt: Assign) -> None:
    ex.memory.write_bytes(ctx.frame.top + ctx.vars[stmt.var][0], stmt.value)


def _heap_alloc(ex: Executor, ctx: _FrameCtx, stmt: HeapAlloc) -> None:
    var = ctx.vars[stmt.var]
    try:
        obj = ex.memory.heap_alloc(stmt.size)
    except MemoryFault as exc:
        _fault(ex, ctx, str(exc))
        return
    ex.memory.write_bytes(ctx.frame.top + var[0], obj.base.to_bytes(8, "little")[:var[1]])
    if stmt.init:
        ex.memory.write_bytes(obj.base, stmt.init[:stmt.size])


def _call(ex: Executor, ctx: _FrameCtx, stmt: Call) -> tuple[_FrameCtx, Iterator] | None:
    callee = ex.functions.get(stmt.callee)
    if callee is None:
        _fault(ex, ctx, f"call to unknown function {shown(stmt.callee)}")
        return None
    if len(ex._callers) + 1 >= MAX_CALL_DEPTH:  # the caller's depth is its callers' count
        _fault(ex, ctx, f"call depth limit at {shown(stmt.callee, False)}")
        return None
    arg_values: list[bytes] = []
    for arg in stmt.args:
        var = ctx.vars[arg.var]
        addr, size = ctx.frame.top + var[0], var[1]
        if isinstance(arg, AddrOfArg):
            arg_values.append(addr.to_bytes(8, "little"))
        else:
            arg_values.append(ex.memory.read_bytes(addr, size))
    return _enter(ex, callee, arg_values)


def _read_probe(ex: Executor, ctx: _FrameCtx, stmt: ReadProbe) -> None:
    addr = _RESOLVERS[type(stmt.target)](ex, ctx, stmt.target)
    if addr is None:
        return
    length = stmt.length
    try:
        data = ex.memory.read_bytes(addr, length)
    except MemoryFault as exc:
        _fault(ex, ctx, f"probe {exc}")
        return
    # A short read is counted inline, as _nonzero would: the call would
    # cost more than the count.
    nonzero = length - data.count(0) if length <= _COUNT_SMALL else _nonzero(data)
    windows = ex.windows
    ex.observations.append(Observation("read", ctx.func.name, windows[-1] if windows else None,
                                       addr, length, nonzero, data[:16].hex()))
    if nonzero and windows:
        ex.checker.scan(ctx.func.name, addr, data)


def _write_probe(ex: Executor, ctx: _FrameCtx, stmt: WriteProbe) -> None:
    addr = _RESOLVERS[type(stmt.target)](ex, ctx, stmt.target)
    if addr is None:
        return
    value = stmt.value
    try:
        ex.memory.write_bytes(addr, value)
    except MemoryFault as exc:
        _fault(ex, ctx, f"probe {exc}")
        return
    windows = ex.windows
    length = len(value)
    ex.observations.append(Observation(
        "write", ctx.func.name, windows[-1] if windows else None, addr, length,
        length - value.count(0) if length <= _COUNT_SMALL else _nonzero(value),
        value[:16].hex()))


_HANDLERS = {Assign: _assign, HeapAlloc: _heap_alloc, Call: _call, ReadProbe: _read_probe,
             WriteProbe: _write_probe, Return: _nothing}


# ----------------------------------------------------------------------
# probe targets: resolver(executor, ctx, target) returns the address, or
# None after a fault

def _absolute(ex: Executor, ctx: _FrameCtx, target: AbsoluteTarget) -> int:
    return target.addr


def _deref(ex: Executor, ctx: _FrameCtx, target: DerefTarget) -> int:
    raw = ex.memory.read_bytes(ctx.frame.top + ctx.vars[target.param][0], 8)
    return int.from_bytes(raw, "little") + target.offset


def _heap(ex: Executor, ctx: _FrameCtx, target: HeapTarget) -> int | None:
    objects = ex.memory.heap_objects
    if not 0 <= target.index < len(objects):
        _fault(ex, ctx, f"heap object {target.index} does not exist")
        return None
    return objects[target.index].base + target.offset


def _victim(ex: Executor, ctx: _FrameCtx, function: str) -> _FrameCtx | None:
    """The last-known placement of `function`'s frame. It works for live
    frames and popped ones alike, which lets scripts probe for stale data
    after a return."""
    victim = ex._frame_history.get(function)
    if victim is None:
        _fault(ex, ctx, f"no frame known for {shown(function)}")
    return victim


def _frame(ex: Executor, ctx: _FrameCtx, target: FrameTarget) -> int | None:
    victim = _victim(ex, ctx, target.function)
    return None if victim is None else victim.frame.top + target.offset


def _var(ex: Executor, ctx: _FrameCtx, target: VarTarget) -> int | None:
    victim = _victim(ex, ctx, target.function)
    if victim is None:
        return None
    var = victim.vars.get(target.var)
    if var is None:
        _fault(ex, ctx, f"{shown(target.function, False)} has no variable {shown(target.var)}")
        return None
    return victim.frame.top + var[0] + target.offset


_RESOLVERS = {AbsoluteTarget: _absolute, DerefTarget: _deref, HeapTarget: _heap,
              FrameTarget: _frame, VarTarget: _var}


# ----------------------------------------------------------------------
# runtime-call actions, a protected run's handlers for the six calls:
# action(executor, ctx, (statement, pc, provenance key)) counts the call
# under its key and returns the vault's refusal or None

def _register_stack(ex: Executor, ctx: _FrameCtx, operand: tuple) -> VaultException | None:
    stmt, pc, key = operand
    ex.provenance_counts[key] += 1
    return ex.vault.register_stack(pc, bool(stmt.all), ctx.frame.base, ctx.frame.top)


def _register_region(ex: Executor, ctx: _FrameCtx, operand: tuple) -> VaultException | None:
    """register_memory or register_memory_exception, as the statement says,
    of the region its operand names."""
    stmt, pc, key = operand
    ex.provenance_counts[key] += 1
    ref = stmt.target
    if isinstance(ref, VarRef):
        var = ctx.vars[ref.var]
        base, length = ctx.frame.top + var[0], (var[1] if stmt.length is None else stmt.length)
    elif isinstance(ref, PointeeRef):
        raw = ex.memory.read_bytes(ctx.frame.top + ctx.vars[ref.var][0], 8)
        base, length = int.from_bytes(raw, "little"), stmt.length
    else:  # an AddressRef
        base, length = ref.addr, stmt.length or 0
    return getattr(ex.vault, stmt.call)(pc, base, length, bool(stmt.read_only))


def _start_protect(ex: Executor, ctx: _FrameCtx, operand: tuple) -> VaultException | None:
    stmt, pc, key = operand
    ex.provenance_counts[key] += 1
    refused = ex.checker.start_protect(pc, ex._wid + 1)
    if refused is None:
        ex._wid += 1
        ex.windows.append(ex._wid)
    return refused


def _stop_protect(ex: Executor, ctx: _FrameCtx, operand: tuple) -> VaultException | None:
    stmt, pc, key = operand
    ex.provenance_counts[key] += 1
    refused = ex.checker.stop_protect(pc)
    if refused is None:  # else the window stays open and nothing was restored
        ex.windows.pop()
    return refused


def _unregister_stack(ex: Executor, ctx: _FrameCtx, operand: tuple) -> VaultException | None:
    stmt, pc, key = operand
    ex.provenance_counts[key] += 1
    return ex.vault.unregister_stack(ex.memory, pc)


_RUNTIME_ACTIONS = {"register_stack": _register_stack, "register_memory": _register_region,
                    "register_memory_exception": _register_region,
                    "start_protect": _start_protect, "stop_protect": _stop_protect,
                    "unregister_stack": _unregister_stack}


def run(program: ProgramDesc, table: IdentityTable, entry: str, *,
        strict: bool = False, vault_factory=VaultState) -> ExecutionReport:
    """Execute an instrumented program with protection active."""
    return Executor(program, table, strict=strict, vault_factory=vault_factory).run(entry)


def run_native(program: ProgramDesc, table: IdentityTable, entry: str) -> ExecutionReport:
    """Execute with zero protection calls: the unprotected counterfactual."""
    return Executor(program, table, vault_factory=None).run(entry)
