"""Insertion of protection calls into annotated programs.

Which calls go where is driven by three inputs: the untrusted-function
list (call sites to bracket), the sensitive-function list plus inline
sensitivity markers (frames to register), and per-variable annotations
(objects and carve-outs). Every inserted call records the rule that
produced it in its provenance field. Statements are immutable, so the
calls whose operands never vary (``start_protect``, ``stop_protect`` and
each mode's ``register_stack``/``unregister_stack``) are single shared
objects that every instrumented program holds.

Every function that is not untrusted goes through one insertion pass; a
trusted function is the case with no prologue, slot registrations or
epilogue. In a sensitive function:

- ``register_stack`` comes first, then the fine-grained slot
  registrations, then the pointees of pointer parameters;
- the pointee of a pointer local is registered right after the
  statement that defines it;
- whole-frame carve-outs come just before the first untrusted call, or
  after the parameter pointees when there is none;
- ``unregister_stack`` precedes every ``return`` and ends a body that
  does not end in one.

Every untrusted call is bracketed by ``start_protect`` and
``stop_protect``. `slot_exposed` is the one rule for which frame slots an
untrusted callee can read; the fuzzer's generator asks it too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .program import (MAX_BODY_STATEMENTS, MAX_PROGRAM_STATEMENTS, AddrOfArg,
                      AnnotationKind, Assign, Call, FunctionDesc, HeapAlloc, PointeeRef,
                      ProgramDesc, ReadProbe, Return, RuntimeCall, RUNTIME_CALLS, Sensitivity,
                      Statement, VarDesc, VarRef, WriteProbe, is_instrumented, shown)

# Provenance labels for inserted calls, one per insertion rule.
PROV_UNTRUSTED_CALL = "untrusted-call"
PROV_SENSITIVE_FUNCTION = "sensitive-function"
PROV_FINEGRAINED_FUNCTION = "sensitive-finegrained-function"
PROV_SENSITIVE_VAR = "sensitive-var"
PROV_NOT_SENSITIVE_VAR = "not-sensitive-var"
PROV_WRITE_SENSITIVE_VAR = "write-sensitive-var"
PROV_SENSITIVE_POINTER_VAR = "sensitive-pointer-var"
PROV_WRITE_SENSITIVE_POINTER_VAR = "write-sensitive-pointer-var"
PROV_SENSITIVE_POINTEE = "sensitive-pointer-pointee"
PROV_WRITE_SENSITIVE_POINTEE = "write-sensitive-pointer-pointee"
PROV_ADDR_OF_ARGUMENT = "addr-of-argument"


class ListParseError(ValueError):
    """Malformed untrusted/sensitive list document."""


class AnnotationError(ValueError):
    """Annotation or call-graph input the instrumenter must reject."""


@dataclass(frozen=True)
class Prototype:
    """Untrusted-list entry; arity None matches any parameter count."""

    name: str
    arity: int | None = None

    def matches(self, name: str, arity: int) -> bool:
        return self.name == name and (self.arity is None or self.arity == arity)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PROTO_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\((\d+)\)$")


def _parse_list(doc: str, label: str, with_arity: bool) -> list[Prototype]:
    entries: list[Prototype] = []
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if _NAME_RE.match(line):
            entries.append(Prototype(name=line))
            continue
        m = _PROTO_RE.match(line)
        if m and with_arity:
            entries.append(Prototype(name=m.group(1), arity=int(m.group(2))))
            continue
        raise ListParseError(f"{label} line {lineno}: bad entry {shown(raw)}")
    return entries


def parse_lists(untrusted_doc: str, sensitive_doc: str) -> tuple[frozenset[Prototype], frozenset[str]]:
    """Parse the two list documents. Untrusted entries may carry an arity
    (``name(2)``); sensitive entries are bare names."""
    untrusted = _parse_list(untrusted_doc, "untrusted list", with_arity=True)
    sensitive = _parse_list(sensitive_doc, "sensitive list", with_arity=False)
    return frozenset(untrusted), frozenset(p.name for p in sensitive)


def matches_untrusted(untrusted: frozenset[Prototype], name: str, arity: int) -> bool:
    return any(p.matches(name, arity) for p in untrusted)


# ----------------------------------------------------------------------
# validation

def _pointee_size(var: VarDesc) -> int:
    assert var.annotation is not None
    if var.annotation.size is not None:
        return var.annotation.size
    if var.pointee_size is not None:
        return var.pointee_size
    raise AnnotationError(
        f"pointer variable {shown(var.name)}: pointee size not resolvable; "
        f"use a size suffix or declare pointee_size")


def _validate(program: ProgramDesc, functions: dict[str, FunctionDesc],
              untrusted_names: set[str], sens: dict[str, Sensitivity],
              untrusted: frozenset[Prototype]) -> None:
    for fn in program.functions:
        where = f"function {shown(fn.name)}"
        fn_untrusted = fn.name in untrusted_names
        fn_sensitive = sens[fn.name] is not Sensitivity.NONE
        if fn_untrusted and fn_sensitive:
            raise AnnotationError(f"{where} is on both the untrusted and sensitive lists")
        for v in fn.variables():
            if v.annotation is None:
                continue
            if not fn_sensitive:
                raise AnnotationError(
                    f"{where}: annotation on {shown(v.name)} outside a sensitive function")
            if v.annotation.is_pointer:
                if not v.pointer:
                    raise AnnotationError(
                        f"{where}: pointer annotation on non-pointer variable {shown(v.name)}")
                _pointee_size(v)
        variables = {v.name: v for v in fn.variables()}
        for i, stmt in enumerate(fn.body):
            problem = _statement_problem(stmt, fn_untrusted, variables, functions, untrusted)
            if problem is not None:
                raise AnnotationError(f"{where} body[{i}]: {problem}")


def _statement_problem(stmt: Statement, fn_untrusted: bool, variables: dict[str, VarDesc],
                       functions: dict[str, FunctionDesc],
                       untrusted: frozenset[Prototype]) -> str | None:
    """Why the statement is invalid in its function, or None."""
    kind = type(stmt)
    if kind is ReadProbe or kind is WriteProbe:
        return None if fn_untrusted else "probe outside an untrusted function"
    if kind is HeapAlloc:
        if not variables[stmt.var].pointer:
            return f"heap_alloc into non-pointer {shown(stmt.var)}"
    elif kind is Call:
        if stmt.callee in RUNTIME_CALLS:
            return f"{shown(stmt.callee)} is a reserved name"
        callee = functions.get(stmt.callee)
        if callee is not None:
            if len(stmt.args) != callee.arity:
                return (f"{shown(stmt.callee, False)} takes {callee.arity} arguments, "
                        f"got {len(stmt.args)}")
        elif not matches_untrusted(untrusted, stmt.callee, len(stmt.args)):
            return (f"unresolved callee {shown(stmt.callee)} "
                    f"(not described, not on the untrusted list)")
    return None


# ----------------------------------------------------------------------
# insertion

def slot_exposed(var: VarDesc, sensitivity: Sensitivity) -> bool:
    """Can an untrusted callee read the variable's own frame slot during a
    window, before any address-of carve-out? A whole frame hides every slot
    but the ``not_sensitive`` and write-sensitive ones; fine-grained mode
    hides only the ``sensitive`` ones. A pointer annotation treats the
    pointer slot like its scalar counterpart."""
    kind = var.annotation.kind if var.annotation is not None else None
    if sensitivity is Sensitivity.ALL:
        return kind in (AnnotationKind.NOT_SENSITIVE, AnnotationKind.WRITE_SENSITIVE,
                        AnnotationKind.WRITE_SENSITIVE_POINTER)
    return kind not in (AnnotationKind.SENSITIVE, AnnotationKind.SENSITIVE_POINTER)


def _slot_registration(var: VarDesc, sensitivity: Sensitivity,
                       escapes: bool) -> RuntimeCall | None:
    """The call that gives the variable's own slot its treatment, or None
    when the frame registration already gives it. A slot whose address
    escapes to an untrusted callee must stay readable, so one that would
    be hidden is carved out (whole frame) or left unregistered
    (fine-grained)."""
    kind = var.annotation.kind if var.annotation is not None else None
    read_only = kind in (AnnotationKind.WRITE_SENSITIVE,
                         AnnotationKind.WRITE_SENSITIVE_POINTER)
    hidden = not slot_exposed(var, sensitivity)
    if sensitivity is Sensitivity.ALL:
        if hidden and not escapes:
            return None
        call = "register_memory_exception"
        provenance = (PROV_ADDR_OF_ARGUMENT if hidden else
                      PROV_WRITE_SENSITIVE_VAR if read_only else PROV_NOT_SENSITIVE_VAR)
    else:
        if not (read_only or (hidden and not escapes)):
            return None
        assert var.annotation is not None
        call = "register_memory"
        if var.annotation.is_pointer:
            provenance = PROV_WRITE_SENSITIVE_POINTER_VAR if read_only \
                else PROV_SENSITIVE_POINTER_VAR
        else:
            provenance = PROV_WRITE_SENSITIVE_VAR if read_only else PROV_SENSITIVE_VAR
    return RuntimeCall(call=call, target=VarRef(var.name), length=var.size,
                       read_only=read_only, provenance=provenance)


def _reg_pointee(var: VarDesc) -> RuntimeCall:
    assert var.annotation is not None
    write = var.annotation.kind is AnnotationKind.WRITE_SENSITIVE_POINTER
    return RuntimeCall(call="register_memory", target=PointeeRef(var.name),
                       length=_pointee_size(var), read_only=write,
                       provenance=PROV_WRITE_SENSITIVE_POINTEE if write else PROV_SENSITIVE_POINTEE)


# The calls whose operands never vary, built once and shared by every
# program: the window around an untrusted call, and the (prologue,
# epilogue) that registers and unregisters a frame in each mode.
_START_PROTECT = RuntimeCall(call="start_protect", provenance=PROV_UNTRUSTED_CALL)
_STOP_PROTECT = RuntimeCall(call="stop_protect", provenance=PROV_UNTRUSTED_CALL)
_FRAME_CALLS: dict[Sensitivity, tuple[tuple[RuntimeCall, ...], tuple[RuntimeCall, ...]]] = {
    Sensitivity.NONE: ((), ()),
    Sensitivity.ALL: (
        (RuntimeCall(call="register_stack", all=True, provenance=PROV_SENSITIVE_FUNCTION),),
        (RuntimeCall(call="unregister_stack", provenance=PROV_SENSITIVE_FUNCTION),)),
    Sensitivity.FINEGRAINED: (
        (RuntimeCall(call="register_stack", all=False, provenance=PROV_FINEGRAINED_FUNCTION),),
        (RuntimeCall(call="unregister_stack", provenance=PROV_FINEGRAINED_FUNCTION),)),
}


def _instrument_body(fn: FunctionDesc, sensitivity: Sensitivity,
                     is_untrusted_call) -> tuple[Statement, ...]:
    """Insert the runtime calls into a function that is not untrusted. A
    trusted function (sensitivity NONE) has an empty prologue, no slot
    registrations and an empty epilogue, so only its windows remain."""
    # Keyed by body index: a worker that calls its lib twice reuses one
    # Call object, so identity cannot tell the first call from the second.
    untrusted_calls = {i: stmt for i, stmt in enumerate(fn.body)
                       if isinstance(stmt, Call) and is_untrusted_call(stmt)}
    first_call = next(iter(untrusted_calls), None)
    escaping = {arg.var for stmt in untrusted_calls.values()
                for arg in stmt.args if isinstance(arg, AddrOfArg)}
    slots = [reg for v in fn.variables()
             if (reg := _slot_registration(v, sensitivity, v.name in escaping)) is not None]
    # Fine-grained registrations follow register_stack; whole-frame
    # carve-outs wait for the first untrusted call.
    registrations, carve_outs = ([], slots) if sensitivity is Sensitivity.ALL else (slots, [])
    prologue, epilogue = _FRAME_CALLS[sensitivity]

    # Pointer parameters arrive with their value, so their pointees are
    # registered right away; pointer locals wait for a defining statement.
    pending_pointees = {v.name: v for v in fn.locals
                        if v.annotation is not None and v.annotation.is_pointer}
    body: list[Statement] = [*prologue, *registrations]
    body += [_reg_pointee(v) for v in fn.params
             if v.annotation is not None and v.annotation.is_pointer]
    if first_call is None:
        body += carve_outs
    for i, stmt in enumerate(fn.body):
        if isinstance(stmt, Return):
            body += epilogue
            body.append(stmt)
        elif i in untrusted_calls:
            if i == first_call:
                body += carve_outs
            body += (_START_PROTECT, stmt, _STOP_PROTECT)
        else:
            body.append(stmt)
            if isinstance(stmt, (Assign, HeapAlloc)) and stmt.var in pending_pointees:
                body.append(_reg_pointee(pending_pointees.pop(stmt.var)))
    if not (fn.body and isinstance(fn.body[-1], Return)):
        body += epilogue

    if pending_pointees:
        names = shown(", ".join(sorted(pending_pointees)), False)
        raise AnnotationError(
            f"function {shown(fn.name)}: pointer variables never assigned: {names}")
    return tuple(body)


def instrument(program: ProgramDesc, untrusted: frozenset[Prototype],
               sensitive_names: frozenset[str]) -> ProgramDesc:
    """Produce the instrumented program. Rejects programs that already
    carry runtime calls; instrumentation is not repeatable."""
    if is_instrumented(program):
        raise AnnotationError("program already carries runtime calls")

    untrusted_names = {fn.name for fn in program.functions
                       if matches_untrusted(untrusted, fn.name, fn.arity)}
    sens: dict[str, Sensitivity] = {}
    for fn in program.functions:
        if fn.sensitivity is not Sensitivity.NONE:
            sens[fn.name] = fn.sensitivity
        elif fn.name in sensitive_names:
            sens[fn.name] = Sensitivity.ALL
        else:
            sens[fn.name] = Sensitivity.NONE

    functions = {fn.name: fn for fn in program.functions}
    _validate(program, functions, untrusted_names, sens, untrusted)

    def is_untrusted_call(stmt: Call) -> bool:
        callee = functions.get(stmt.callee)
        if callee is not None:
            return callee.name in untrusted_names
        return matches_untrusted(untrusted, stmt.callee, len(stmt.args))

    out: list[FunctionDesc] = []
    for fn in program.functions:
        if fn.name in untrusted_names:
            out.append(fn)
        else:
            body = _instrument_body(fn, sens[fn.name], is_untrusted_call)
            if len(body) > MAX_BODY_STATEMENTS:  # the output must parse again
                raise AnnotationError(
                    f"function {shown(fn.name)}: instrumented body of {len(body)} statements "
                    f"exceeds the cap of {MAX_BODY_STATEMENTS} (MAX_BODY_STATEMENTS)")
            out.append(FunctionDesc(fn.name, fn.params, fn.locals, body, sens[fn.name]))
    total = sum(len(fn.body) for fn in out)
    if total > MAX_PROGRAM_STATEMENTS:  # the whole output must parse again too
        raise AnnotationError(
            f"program: instrumented bodies of {total} statements exceed the cap of "
            f"{MAX_PROGRAM_STATEMENTS} (MAX_PROGRAM_STATEMENTS)")
    return ProgramDesc(functions=tuple(out), instrumented=True)


def provenance_listing(program: ProgramDesc) -> list[str]:
    """One line per inserted call: location, call, and insertion rule."""
    lines = []
    for fn in program.functions:
        for i, stmt in enumerate(fn.body):
            if isinstance(stmt, RuntimeCall) and stmt.provenance is not None:
                detail = stmt.call
                if stmt.target is not None:
                    if isinstance(stmt.target, VarRef):
                        region = stmt.target.var
                    elif isinstance(stmt.target, PointeeRef):
                        region = f"*{stmt.target.var}"
                    else:
                        region = f"{stmt.target.addr:#x}"
                    detail += f"({region}, len={stmt.length}, read_only={stmt.read_only})"
                elif stmt.all is not None:
                    detail += f"(all={stmt.all})"
                lines.append(f"{fn.name} body[{i}]: {detail}  # {stmt.provenance}")
    return lines
