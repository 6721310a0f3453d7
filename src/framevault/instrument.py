"""Insertion of protection calls into annotated programs.

Which calls go where is driven by three inputs: the untrusted-function
list (call sites to bracket), the sensitive-function list plus inline
sensitivity markers (frames to register), and per-variable annotations
(objects and carve-outs). Every inserted call records the rule that
produced it in its provenance field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .program import (AddrOfArg, Annotation, AnnotationKind, Assign, Call, FunctionDesc,
                      HeapAlloc, PointeeRef, ProgramDesc, ReadProbe, Return, RuntimeCall,
                      RUNTIME_CALLS, Sensitivity, Statement, VarDesc, VarRef,
                      WriteProbe, is_instrumented)

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
        raise ListParseError(f"{label} line {lineno}: bad entry {raw!r}")
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

def _slot_kind(annotation: Annotation | None) -> AnnotationKind | None:
    """Treatment of the variable's own frame slot. Pointer annotations
    fall back to their scalar counterpart for the slot itself."""
    if annotation is None:
        return None
    if annotation.kind is AnnotationKind.SENSITIVE_POINTER:
        return AnnotationKind.SENSITIVE
    if annotation.kind is AnnotationKind.WRITE_SENSITIVE_POINTER:
        return AnnotationKind.WRITE_SENSITIVE
    return annotation.kind


def _exposed(kind: AnnotationKind | None, protect_all: bool) -> bool:
    """Can an untrusted callee read this slot during a window?"""
    if protect_all:
        return kind in (AnnotationKind.NOT_SENSITIVE, AnnotationKind.WRITE_SENSITIVE)
    return kind is not AnnotationKind.SENSITIVE


def _pointee_size(var: VarDesc) -> int:
    assert var.annotation is not None
    if var.annotation.size is not None:
        return var.annotation.size
    if var.pointee_size is not None:
        return var.pointee_size
    raise AnnotationError(
        f"pointer variable {var.name!r}: pointee size not resolvable; "
        f"use a size suffix or declare pointee_size")


def _validate(program: ProgramDesc, untrusted_names: set[str],
              sens: dict[str, Sensitivity],
              untrusted: frozenset[Prototype]) -> None:
    for fn in program.functions:
        where = f"function {fn.name!r}"
        fn_untrusted = fn.name in untrusted_names
        fn_sensitive = sens[fn.name] is not Sensitivity.NONE
        if fn_untrusted and fn_sensitive:
            raise AnnotationError(f"{where} is on both the untrusted and sensitive lists")
        for v in fn.variables():
            if v.annotation is None:
                continue
            if not fn_sensitive:
                raise AnnotationError(
                    f"{where}: annotation on {v.name!r} outside a sensitive function")
            if v.annotation.is_pointer:
                if not v.pointer:
                    raise AnnotationError(
                        f"{where}: pointer annotation on non-pointer variable {v.name!r}")
                _pointee_size(v)
        var_names = {v.name for v in fn.variables()}
        for i, stmt in enumerate(fn.body):
            at = f"{where} body[{i}]"
            if isinstance(stmt, (ReadProbe, WriteProbe)) and not fn_untrusted:
                raise AnnotationError(f"{at}: probe outside an untrusted function")
            if isinstance(stmt, Assign):
                target = fn.var(stmt.var)
                if target is None:
                    raise AnnotationError(f"{at}: unknown variable {stmt.var!r}")
                if len(stmt.value) > target.size:
                    raise AnnotationError(f"{at}: value longer than {stmt.var!r}")
            if isinstance(stmt, HeapAlloc):
                target = fn.var(stmt.var)
                if target is None:
                    raise AnnotationError(f"{at}: unknown variable {stmt.var!r}")
                if not target.pointer:
                    raise AnnotationError(f"{at}: heap_alloc into non-pointer {stmt.var!r}")
            if isinstance(stmt, Call):
                if stmt.callee in RUNTIME_CALLS:
                    raise AnnotationError(f"{at}: {stmt.callee!r} is a reserved name")
                for arg in stmt.args:
                    if arg.var not in var_names:
                        raise AnnotationError(f"{at}: unknown argument variable {arg.var!r}")
                callee = program.function(stmt.callee)
                if callee is not None:
                    if len(stmt.args) != callee.arity:
                        raise AnnotationError(
                            f"{at}: {stmt.callee} takes {callee.arity} arguments, "
                            f"got {len(stmt.args)}")
                elif not matches_untrusted(untrusted, stmt.callee, len(stmt.args)):
                    raise AnnotationError(
                        f"{at}: unresolved callee {stmt.callee!r} "
                        f"(not described, not on the untrusted list)")


# ----------------------------------------------------------------------
# insertion

def _reg_memory(var: VarDesc, read_only: bool, provenance: str) -> RuntimeCall:
    return RuntimeCall(call="register_memory", target=VarRef(var.name),
                       length=var.size, read_only=read_only, provenance=provenance)


def _reg_exception(var: VarDesc, read_only: bool, provenance: str) -> RuntimeCall:
    return RuntimeCall(call="register_memory_exception", target=VarRef(var.name),
                       length=var.size, read_only=read_only, provenance=provenance)


def _reg_pointee(var: VarDesc) -> RuntimeCall:
    assert var.annotation is not None
    write = var.annotation.kind is AnnotationKind.WRITE_SENSITIVE_POINTER
    return RuntimeCall(call="register_memory", target=PointeeRef(var.name),
                       length=_pointee_size(var), read_only=write,
                       provenance=PROV_WRITE_SENSITIVE_POINTEE if write else PROV_SENSITIVE_POINTEE)


def _instrument_sensitive(fn: FunctionDesc, sensitivity: Sensitivity,
                          is_untrusted_call) -> tuple[Statement, ...]:
    protect_all = sensitivity is Sensitivity.ALL
    frame_prov = PROV_SENSITIVE_FUNCTION if protect_all else PROV_FINEGRAINED_FUNCTION

    addr_of_vars = {arg.var
                    for stmt in fn.body if isinstance(stmt, Call) and is_untrusted_call(stmt)
                    for arg in stmt.args if isinstance(arg, AddrOfArg)}

    # Effective slot treatment: a variable whose address escapes to an
    # untrusted callee must stay accessible, so anything that would hide
    # it is downgraded to a carve-out.
    effective: dict[str, AnnotationKind | None] = {}
    downgraded: set[str] = set()
    for v in fn.variables():
        kind = _slot_kind(v.annotation)
        if v.name in addr_of_vars and not _exposed(kind, protect_all):
            kind = AnnotationKind.NOT_SENSITIVE
            downgraded.add(v.name)
        effective[v.name] = kind

    def slot_registrations() -> list[Statement]:
        if protect_all:
            return []
        out: list[Statement] = []
        for v in fn.variables():
            kind = effective[v.name]
            pointer_ann = v.annotation is not None and v.annotation.is_pointer
            if kind is AnnotationKind.SENSITIVE:
                prov = PROV_SENSITIVE_POINTER_VAR if pointer_ann else PROV_SENSITIVE_VAR
                out.append(_reg_memory(v, read_only=False, provenance=prov))
            elif kind is AnnotationKind.WRITE_SENSITIVE:
                prov = PROV_WRITE_SENSITIVE_POINTER_VAR if pointer_ann else PROV_WRITE_SENSITIVE_VAR
                out.append(_reg_memory(v, read_only=True, provenance=prov))
        return out

    def carve_outs() -> list[Statement]:
        if not protect_all:
            return []
        out: list[Statement] = []
        for v in fn.variables():
            kind = effective[v.name]
            if kind is AnnotationKind.NOT_SENSITIVE:
                prov = PROV_ADDR_OF_ARGUMENT if v.name in downgraded else PROV_NOT_SENSITIVE_VAR
                out.append(_reg_exception(v, read_only=False, provenance=prov))
            elif kind is AnnotationKind.WRITE_SENSITIVE:
                out.append(_reg_exception(v, read_only=True, provenance=PROV_WRITE_SENSITIVE_VAR))
        return out

    pending_pointees = {v.name: v for v in fn.locals
                        if v.annotation is not None and v.annotation.is_pointer}

    body: list[Statement] = [RuntimeCall(call="register_stack", all=protect_all,
                                         provenance=frame_prov)]
    body += slot_registrations()
    # Pointer parameters arrive with their value, so their pointees are
    # registered right away; pointer locals wait for a defining statement.
    body += [_reg_pointee(v) for v in fn.params
             if v.annotation is not None and v.annotation.is_pointer]

    exceptions_pending = True

    def emit_carve_outs_once() -> list[Statement]:
        nonlocal exceptions_pending
        if not exceptions_pending:
            return []
        exceptions_pending = False
        return carve_outs()

    has_untrusted_call = any(isinstance(s, Call) and is_untrusted_call(s) for s in fn.body)
    if not has_untrusted_call:
        body += emit_carve_outs_once()

    epilogue = RuntimeCall(call="unregister_stack", provenance=frame_prov)
    for stmt in fn.body:
        if isinstance(stmt, Return):
            body.append(epilogue)
            body.append(stmt)
        elif isinstance(stmt, Call) and is_untrusted_call(stmt):
            body += emit_carve_outs_once()
            body.append(RuntimeCall(call="start_protect", provenance=PROV_UNTRUSTED_CALL))
            body.append(stmt)
            body.append(RuntimeCall(call="stop_protect", provenance=PROV_UNTRUSTED_CALL))
        else:
            body.append(stmt)
            if isinstance(stmt, (Assign, HeapAlloc)) and stmt.var in pending_pointees:
                body.append(_reg_pointee(pending_pointees.pop(stmt.var)))
    if not (fn.body and isinstance(fn.body[-1], Return)):
        body.append(epilogue)

    if pending_pointees:
        names = ", ".join(sorted(pending_pointees))
        raise AnnotationError(
            f"function {fn.name!r}: pointer variables never assigned: {names}")
    return tuple(body)


def _instrument_trusted(fn: FunctionDesc, is_untrusted_call) -> tuple[Statement, ...]:
    body: list[Statement] = []
    for stmt in fn.body:
        if isinstance(stmt, Call) and is_untrusted_call(stmt):
            body.append(RuntimeCall(call="start_protect", provenance=PROV_UNTRUSTED_CALL))
            body.append(stmt)
            body.append(RuntimeCall(call="stop_protect", provenance=PROV_UNTRUSTED_CALL))
        else:
            body.append(stmt)
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

    _validate(program, untrusted_names, sens, untrusted)

    def is_untrusted_call(stmt: Call) -> bool:
        callee = program.function(stmt.callee)
        if callee is not None:
            return callee.name in untrusted_names
        return matches_untrusted(untrusted, stmt.callee, len(stmt.args))

    out: list[FunctionDesc] = []
    for fn in program.functions:
        if fn.name in untrusted_names:
            out.append(fn)
        elif sens[fn.name] is not Sensitivity.NONE:
            body = _instrument_sensitive(fn, sens[fn.name], is_untrusted_call)
            out.append(replace(fn, body=body, sensitivity=sens[fn.name]))
        else:
            out.append(replace(fn, body=_instrument_trusted(fn, is_untrusted_call)))
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
                        shown = stmt.target.var
                    elif isinstance(stmt.target, PointeeRef):
                        shown = f"*{stmt.target.var}"
                    else:
                        shown = f"{stmt.target.addr:#x}"
                    detail += f"({shown}, len={stmt.length}, read_only={stmt.read_only})"
                elif stmt.all is not None:
                    detail += f"(all={stmt.all})"
                lines.append(f"{fn.name} body[{i}]: {detail}  # {stmt.provenance}")
    return lines
