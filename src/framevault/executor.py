"""Executes program descriptions over the simulated memory and the
protection runtime.

Program-counter values are synthesized per statement from the executing
function's image-map span, so the runtime sees the same unforgeable caller
identity a hardware PC would give it. The executor also owns the ground
truth for verdicts: at each window open it takes the window's bytes from
`oracle.window_bytes` and records, with its own reads, what must stay
hidden and what must survive intact; the runtime's save buffer plays no
part in that bookkeeping, so a runtime bug cannot mask itself.

Verdict bookkeeping works on byte intervals, never on single addresses:
a window keeps its hidden bytes as (lo, hi) ranges, and an untrusted read
counts its secret bytes by clipping the ranges of every open window to
the read, merging them, and counting non-zero bytes in each merged slice.

A program is compiled once per program and image map: the first run
under an identity table compiles it, and the plan stays on the program
object, so later runs under the same table (native, protected and oracle
runs alike) share it; a run under another table compiles again and
replaces it. For each function the plan holds the image-map span, the
variables' (offset, size) from the frame top, the frame size, and the
body up to its first `return` as module-level handlers with their
operands. A runtime call's operand carries its pc, its provenance key and
the action for its call, all picked at compile time. The statement budget
is read as the run goes, not compiled in.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .identity import FunctionSpan, IdentityTable, synthesize_image_map
from .memory import FRAME_METADATA_BYTES, MemoryFault, ProcessMemory, StackFrame
from .oracle import window_bytes
from .program import (AbsoluteTarget, AddrOfArg, AddressRef, Assign, Call, DerefTarget,
                      FrameTarget, FunctionDesc, HeapAlloc, HeapTarget, PointeeRef,
                      ProbeTarget, ProgramDesc, ReadProbe, Return, RuntimeCall,
                      VarRef, WriteProbe)
from .runtime import SyscallStats, VaultException, VaultState

MAX_CALL_DEPTH = 128
MAX_STATEMENTS = 1_000_000


@dataclass(frozen=True)
class Observation:
    """One probe executed by (untrusted) code."""

    kind: str  # "read" | "write"
    function: str
    window: int | None
    address: int
    length: int
    nonzero: int
    preview: str


@dataclass(frozen=True)
class Leak:
    """An untrusted read saw a non-zero byte at a hidden address while a
    protection window was open."""

    window: int
    function: str
    address: int
    length: int
    secret_bytes: int
    detail: str


@dataclass(frozen=True)
class IntegrityBreach:
    """After a window closed, protected bytes differ from their value at
    window open (carve-outs: from their value just before close)."""

    window: int
    address: int
    length: int
    detail: str


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
    diagnostics: list[str]
    final_digest: str
    halted: bool = False

    @property
    def clean(self) -> bool:
        return not self.violations


def secret_bytes_observed(report: ExecutionReport) -> int:
    """Non-zero bytes untrusted reads managed to observe."""
    return sum(o.nonzero for o in report.observations if o.kind == "read")


def _nonzero(data: bytes) -> int:
    return len(data) - data.count(0)


def hidden_nonzero(data: bytes, addr: int, ranges: Iterable[tuple[int, int]]) -> int:
    """Non-zero bytes of `data`, read from `addr`, that lie in any of the
    (lo, hi) ranges. Overlapping ranges count each byte once."""
    end = addr + len(data)
    count = 0
    done = addr  # bytes below this address are already counted
    for lo, hi in sorted((lo, hi) for lo, hi in ranges if lo < end and addr < hi):
        lo, hi = max(lo, done), min(hi, end)
        if lo < hi:
            count += _nonzero(data[lo - addr:hi - addr])
            done = hi
    return count


def function_layout(fn: FunctionDesc) -> tuple[dict[str, int], int]:
    """Variable offsets from the frame top (params then locals, declaration
    order) and total frame size including the metadata pad."""
    offsets: dict[str, int] = {}
    off = 0
    for v in fn.params + fn.locals:
        offsets[v.name] = off
        off += v.size
    return offsets, off + FRAME_METADATA_BYTES


def image_map_for(program: ProgramDesc) -> str:
    """Synthesize an image map whose spans cover every statement index."""
    return synthesize_image_map([(fn.name, max(len(fn.body), 1)) for fn in program.functions])


class _Function(NamedTuple):
    """One function of a compiled program. `handlers` and `operands` run
    the body up to and including its first `return`, one pair per
    statement: `handlers[i](executor, ctx, operands[i], depth)`."""

    desc: FunctionDesc
    span: FunctionSpan
    vars: dict[str, tuple[int, int]]  # name -> (offset from the frame top, size)
    frame_size: int
    handlers: tuple
    operands: tuple  # the statement; for a runtime call (action, statement, pc, key)


class _Plan(NamedTuple):
    """A program compiled against one identity table."""

    table: IdentityTable
    functions: dict[str, _Function]
    uncovered: list[str]  # described functions the image map has no span for


def _compile(program: ProgramDesc, table: IdentityTable) -> _Plan:
    functions: dict[str, _Function] = {}
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
        if fn.name in functions:  # the first description of a name wins
            continue
        handlers, operands = [], []
        for idx, stmt in enumerate(fn.body):
            if isinstance(stmt, RuntimeCall):
                pc = span.lo + min(idx, span.hi - span.lo - 1)
                # Interned: a plan holds one string per distinct key.
                key = sys.intern(f"{stmt.call}/{stmt.provenance or 'forged'}")
                handlers.append(_runtime_call)
                operands.append((_RUNTIME_ACTIONS.get(stmt.call, _nothing), stmt, pc, key))
            else:
                handlers.append(_HANDLERS.get(type(stmt), _nothing))
                operands.append(stmt)
            if isinstance(stmt, Return):
                break
        offsets, size = function_layout(fn)
        layout = {v.name: (offsets[v.name], v.size) for v in fn.variables()}
        handlers, operands = tuple(handlers), tuple(operands)
        if operands == fn.body:  # no runtime call and nothing after a `return`
            operands = fn.body
        functions[fn.name] = _Function(
            fn, span, layouts.setdefault(tuple(layout.items()), layout), size,
            sequences.setdefault(handlers, handlers), operands)
    return _Plan(table, functions, uncovered)


def _plan(program: ProgramDesc, table: IdentityTable) -> _Plan:
    """`program` compiled against `table`. The plan is kept in the
    program's instance dict, one per program and keyed by the table, so
    every run of the program under that table shares one compile; it is
    not a dataclass field, so equality, hashing and `emit` ignore it."""
    plan = vars(program).get("_plan")
    if plan is None or plan.table is not table:
        plan = vars(program)["_plan"] = _compile(program, table)
    return plan


@dataclass
class _FrameCtx:
    func: FunctionDesc
    frame: StackFrame
    vars: dict[str, tuple[int, int]]  # name -> (offset from the frame top, size)


@dataclass
class _Window:
    wid: int
    hidden: list[tuple[int, int]]  # (lo, hi) byte ranges the window must hide
    integrity: list[tuple[int, bytes]]
    carve_outs: list[tuple[int, int]]


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
        self.windows: list[_Window] = []
        self._wid = 0
        self._steps = 0
        self._frame_history: dict[str, _FrameCtx] = {}
        self.functions: dict[str, _Function] = {}

    @property
    def native(self) -> bool:
        return self.vault is None

    # ------------------------------------------------------------------

    def run(self, entry: str) -> ExecutionReport:
        plan = _plan(self.program, self.table)
        if entry not in plan.functions and entry not in plan.uncovered:
            raise ValueError(f"entry function {entry!r} not described")
        if plan.uncovered:
            raise ValueError(f"image map does not cover: {', '.join(sorted(plan.uncovered))}")
        self.functions = plan.functions
        halted = False
        try:
            self._invoke(self.functions[entry], arg_values=[], depth=0)
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
            provenance_counts=dict(sorted(self.provenance_counts.items())),
            diagnostics=list(self.vault.diagnostics) if self.vault else [],
            final_digest=self._digest(),
            halted=halted,
        )

    # ------------------------------------------------------------------
    # interpretation

    def _invoke(self, fn: _Function, arg_values: list[bytes], depth: int) -> None:
        try:
            frame = self.memory.push_frame(fn.span.fid, fn.frame_size)
        except MemoryFault as exc:
            self.faults.append(f"cannot enter {fn.desc.name}: {exc}")
            return
        ctx = _FrameCtx(func=fn.desc, frame=frame, vars=fn.vars)
        self._frame_history[fn.desc.name] = ctx
        for param, data in zip(fn.desc.params, arg_values):
            self.memory.write_bytes(frame.top + fn.vars[param.name][0], data[:param.size])
        try:
            self._run_body(ctx, fn, depth)
        finally:
            self.memory.pop_frame()

    def _run_body(self, ctx: _FrameCtx, fn: _Function, depth: int) -> None:
        # Every statement run costs one step, `return` and the runtime calls
        # a native run skips included.
        for handler, operand in zip(fn.handlers, fn.operands):
            self._steps += 1
            if self._steps > MAX_STATEMENTS:
                self.faults.append("statement budget exceeded")
                raise _Halt()
            handler(self, ctx, operand, depth)

    # ------------------------------------------------------------------
    # probes

    def _resolve_target(self, ctx: _FrameCtx, target: ProbeTarget) -> int | None:
        if isinstance(target, AbsoluteTarget):
            return target.addr
        if isinstance(target, DerefTarget):
            var = ctx.vars.get(target.param)
            if var is None:
                self.faults.append(f"{ctx.func.name}: deref of unknown variable {target.param!r}")
                return None
            raw = self.memory.read_bytes(ctx.frame.top + var[0], 8)
            return int.from_bytes(raw, "little") + target.offset
        if isinstance(target, HeapTarget):
            objects = self.memory.heap_objects
            if not 0 <= target.index < len(objects):
                self.faults.append(f"{ctx.func.name}: heap object {target.index} does not exist")
                return None
            return objects[target.index].base + target.offset
        # Last-known placement works for both live frames and popped ones,
        # which lets scripts probe for stale data after a return.
        victim = self._frame_history.get(target.function)
        if victim is None:
            self.faults.append(f"{ctx.func.name}: no frame known for {target.function!r}")
            return None
        if isinstance(target, FrameTarget):
            return victim.frame.top + target.offset
        var = victim.vars.get(target.var)
        if var is None:
            self.faults.append(f"{ctx.func.name}: {target.function} has no variable {target.var!r}")
            return None
        return victim.frame.top + var[0] + target.offset

    # ------------------------------------------------------------------

    def _digest(self) -> str:
        h = hashlib.sha256()
        for obj in self.memory.heap_objects:
            h.update(b"H")
            h.update(obj.base.to_bytes(8, "little"))
            h.update(self.memory.read_bytes(obj.base, obj.size))
        return "sha256:" + h.hexdigest()


# ----------------------------------------------------------------------
# statement handlers: handler(executor, ctx, operand, depth)

def _nothing(*_) -> None:
    """A statement or runtime call that only costs its step."""


def _assign(ex: Executor, ctx: _FrameCtx, stmt: Assign, depth: int) -> None:
    ex.memory.write_bytes(ctx.frame.top + ctx.vars[stmt.var][0], stmt.value)


def _heap_alloc(ex: Executor, ctx: _FrameCtx, stmt: HeapAlloc, depth: int) -> None:
    var = ctx.vars.get(stmt.var)
    if var is None:
        ex.faults.append(f"{ctx.func.name}: heap_alloc into unknown variable {stmt.var!r}")
        return
    try:
        obj = ex.memory.heap_alloc(stmt.size)
    except MemoryFault as exc:
        ex.faults.append(f"{ctx.func.name}: {exc}")
        return
    ex.memory.write_bytes(ctx.frame.top + var[0], obj.base.to_bytes(8, "little")[:var[1]])
    if stmt.init:
        ex.memory.write_bytes(obj.base, stmt.init[:stmt.size])


def _call(ex: Executor, ctx: _FrameCtx, stmt: Call, depth: int) -> None:
    callee = ex.functions.get(stmt.callee)
    if callee is None:
        ex.faults.append(f"{ctx.func.name}: call to unknown function {stmt.callee!r}")
        return
    if depth + 1 >= MAX_CALL_DEPTH:
        ex.faults.append(f"{ctx.func.name}: call depth limit at {stmt.callee}")
        return
    arg_values: list[bytes] = []
    for arg in stmt.args:
        var = ctx.vars.get(arg.var)
        if var is None:
            ex.faults.append(f"{ctx.func.name}: unknown argument variable {arg.var!r}")
            return
        addr, size = ctx.frame.top + var[0], var[1]
        if isinstance(arg, AddrOfArg):
            arg_values.append(addr.to_bytes(8, "little"))
        else:
            arg_values.append(ex.memory.read_bytes(addr, size))
    ex._invoke(callee, arg_values, depth + 1)


def _probe(ex: Executor, ctx: _FrameCtx, stmt: ReadProbe | WriteProbe, depth: int) -> None:
    addr = ex._resolve_target(ctx, stmt.target)
    if addr is None:
        return
    try:
        if isinstance(stmt, ReadProbe):
            kind, data = "read", ex.memory.read_bytes(addr, stmt.length)
        else:
            kind, data = "write", stmt.value
            ex.memory.write_bytes(addr, data)
    except MemoryFault as exc:
        ex.faults.append(f"{ctx.func.name}: probe {exc}")
        return
    nonzero = _nonzero(data)
    ex.observations.append(Observation(
        kind=kind, function=ctx.func.name,
        window=ex.windows[-1].wid if ex.windows else None, address=addr,
        length=len(data), nonzero=nonzero, preview=data[:16].hex()))
    if kind == "read" and nonzero and ex.windows:
        secret = hidden_nonzero(data, addr, (r for w in ex.windows for r in w.hidden))
        if secret:
            ex.violations.append(Leak(
                window=ex.windows[-1].wid, function=ctx.func.name, address=addr,
                length=len(data), secret_bytes=secret,
                detail="untrusted read observed protected bytes"))


def _runtime_call(ex: Executor, ctx: _FrameCtx, operand: tuple, depth: int) -> None:
    vault = ex.vault
    if vault is None:
        return  # a native run makes no runtime call
    action, stmt, pc, key = operand
    ex.provenance_counts[key] = ex.provenance_counts.get(key, 0) + 1
    if action(ex, vault, ctx, stmt, pc) is not None and ex.strict:
        raise _Halt()


_HANDLERS = {Assign: _assign, HeapAlloc: _heap_alloc, Call: _call,
             ReadProbe: _probe, WriteProbe: _probe, Return: _nothing}


# ----------------------------------------------------------------------
# runtime-call actions: action(executor, vault, ctx, statement, pc), each
# returning the vault's refusal or None

def _register_stack(ex: Executor, vault: VaultState, ctx: _FrameCtx, stmt: RuntimeCall,
                    pc: int) -> VaultException | None:
    return vault.register_stack(pc, all=bool(stmt.all),
                                frame_base=ctx.frame.base, frame_top=ctx.frame.top)


def _register_region(ex: Executor, vault: VaultState, ctx: _FrameCtx, stmt: RuntimeCall,
                     pc: int) -> VaultException | None:
    """register_memory or register_memory_exception, as the statement says,
    of the region its operand names."""
    ref = stmt.target
    if isinstance(ref, VarRef):
        var = ctx.vars.get(ref.var)
        if var is None:
            ex.faults.append(f"{ctx.func.name}: {stmt.call} names unknown variable {ref.var!r}")
            return None
        base, length = ctx.frame.top + var[0], (var[1] if stmt.length is None else stmt.length)
    elif isinstance(ref, PointeeRef):
        var = ctx.vars.get(ref.var)
        if var is None or stmt.length is None:
            ex.faults.append(f"{ctx.func.name}: {stmt.call} has unresolvable pointee region")
            return None
        raw = ex.memory.read_bytes(ctx.frame.top + var[0], 8)
        base, length = int.from_bytes(raw, "little"), stmt.length
    elif isinstance(ref, AddressRef):
        base, length = ref.addr, stmt.length or 0
    else:
        ex.faults.append(f"{ctx.func.name}: {stmt.call} without a region")
        return None
    try:
        return getattr(vault, stmt.call)(pc, base, length, bool(stmt.read_only))
    except ValueError as exc:
        ex.faults.append(f"{ctx.func.name}: {stmt.call}: {exc}")
        return None


def _start_protect(ex: Executor, vault: VaultState, ctx: _FrameCtx, stmt: RuntimeCall,
                   pc: int) -> VaultException | None:
    hidden, kept, carve_outs = window_bytes(vault.register_list, vault.watermark(),
                                            len(vault.register_list) - 1)
    integrity = [(addr, ex.memory.read_bytes(addr, length)) for addr, length in kept]

    refused = vault.start_protect(ex.memory, pc)
    if refused is None:
        ex._wid += 1
        ex.windows.append(_Window(
            wid=ex._wid, hidden=[(addr, addr + length) for addr, length in hidden],
            integrity=integrity, carve_outs=carve_outs))
    return refused


def _stop_protect(ex: Executor, vault: VaultState, ctx: _FrameCtx, stmt: RuntimeCall,
                  pc: int) -> VaultException | None:
    carve_outs = ex.windows[-1].carve_outs if ex.windows else []
    pre_close = [(addr, ex.memory.read_bytes(addr, length)) for addr, length in carve_outs]
    refused = vault.stop_protect(ex.memory, pc)
    if refused is not None:
        return refused  # window still open; nothing was restored
    window = ex.windows.pop()
    for addr, expected in window.integrity + pre_close:
        actual = ex.memory.read_bytes(addr, len(expected))
        if actual != expected:
            delta = next(i for i in range(len(expected)) if actual[i] != expected[i])
            ex.violations.append(IntegrityBreach(
                window=window.wid, address=addr, length=len(expected),
                detail=f"first mismatch at byte {delta}"))
    return None


def _unregister_stack(ex: Executor, vault: VaultState, ctx: _FrameCtx, stmt: RuntimeCall,
                      pc: int) -> VaultException | None:
    return vault.unregister_stack(ex.memory, pc)


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
