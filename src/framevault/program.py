"""Program description format: annotated functions with scripted bodies.

A program is a JSON document:

    {
      "instrumented": false,            # optional, set by the instrumenter
      "functions": [
        {
          "name": "pwdgenerator",
          "sensitivity": "sensitive",   # or "sensitive_finegrained"; optional
          "params": [ <var>, ... ],
          "locals": [ <var>, ... ],
          "body":   [ <stmt>, ... ]
        }
      ]
    }

    <var>  = {"name": str, "size": int, "pointer": bool?,
              "pointee_size": int?, "annotation": str?}
    <stmt> = {"op": "assign", "var": str, "value": <hex>}  # a declared var, value <= its size
           | {"op": "heap_alloc", "var": str, "size": int, "init": <hex>?}  # size <= MAX_OBJECT_BYTES
           | {"op": "call", "callee": str,
              "args": [{"var": str} | {"addr_of": str}, ...]}
           | {"op": "read_probe", "target": <target>, "len": int}   # len <= MAX_PROBE_BYTES
           | {"op": "write_probe", "target": <target>, "value": <hex>}
           | {"op": "return"}
           | {"op": "runtime_call", "call": str, ...}   # inserted calls

Probe targets address memory the way an adversarial library would:

    <target> = {"kind": "var", "function": str, "var": str, "offset": int?}
             | {"kind": "frame", "function": str, "offset": int?}
             | {"kind": "deref", "param": str, "offset": int?}
             | {"kind": "heap", "index": int, "offset": int?}
             | {"kind": "addr", "addr": str}

Variable annotations: ``sensitive``, ``not_sensitive``, ``write_sensitive``,
``sensitive_pointer[_N]``, ``write_sensitive_pointer[_N]`` where the ``_N``
suffix gives the pointee size in bytes (otherwise ``pointee_size`` must).

Every declared byte size (``size``, ``pointee_size``, the ``_N`` suffix, a
``heap_alloc`` size and a ``runtime_call`` ``len``) is at most
MAX_OBJECT_BYTES, the 1 MiB stack; a ``runtime_call`` ``len`` is also at
least 0. A document has at most MAX_FUNCTIONS functions, a body at most
MAX_BODY_STATEMENTS statements, and all bodies together at most
MAX_PROGRAM_STATEMENTS.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import Any

from .memory import STACK_CAPACITY

# Longest read_probe a description may ask for: the whole stack. The heap
# region is far larger, and one probe over it would allocate its length.
MAX_PROBE_BYTES = STACK_CAPACITY

# Largest byte size a description may declare for a variable, a pointee, a
# heap allocation or a runtime call's region: the whole stack. Saving and
# clearing such an object allocates its size again, so without a cap one
# description could make the simulator allocate hundreds of MiB.
MAX_OBJECT_BYTES = STACK_CAPACITY

# Most functions a document may describe, most statements one body may
# hold and most statements all bodies may hold together, checked before
# any body is parsed. Generated programs stay far below all three:
# benchmark chains have up to 125 functions and under 900 statements,
# fuzzed bodies about 20 statements.
MAX_FUNCTIONS = 1024
MAX_BODY_STATEMENTS = 1024
MAX_PROGRAM_STATEMENTS = 65_536


class ProgramFormatError(ValueError):
    """Structurally invalid program document."""


class Sensitivity(str, enum.Enum):
    NONE = "none"
    ALL = "sensitive"
    FINEGRAINED = "sensitive_finegrained"


class AnnotationKind(str, enum.Enum):
    SENSITIVE = "sensitive"
    NOT_SENSITIVE = "not_sensitive"
    WRITE_SENSITIVE = "write_sensitive"
    SENSITIVE_POINTER = "sensitive_pointer"
    WRITE_SENSITIVE_POINTER = "write_sensitive_pointer"


_POINTER_KINDS = (AnnotationKind.SENSITIVE_POINTER, AnnotationKind.WRITE_SENSITIVE_POINTER)
_ANNOTATION_RE = re.compile(
    r"^(sensitive|not_sensitive|write_sensitive|sensitive_pointer|write_sensitive_pointer)"
    r"(?:_(\d+))?$"
)

RUNTIME_CALLS = ("register_stack", "unregister_stack", "register_memory",
                 "register_memory_exception", "start_protect", "stop_protect")


@dataclass(frozen=True)
class Annotation:
    kind: AnnotationKind
    size: int | None = None  # explicit pointee size suffix

    @property
    def is_pointer(self) -> bool:
        return self.kind in _POINTER_KINDS

    def render(self) -> str:
        return self.kind.value if self.size is None else f"{self.kind.value}_{self.size}"


def parse_annotation(text: str, where: str | None = None) -> Annotation:
    """Parse an annotation string. `where`, the annotation's place in a
    description, starts every error message when given."""
    at = f"{where}: " if where else ""
    m = _ANNOTATION_RE.match(text)
    if not m:
        raise ProgramFormatError(f"{at}unknown annotation {text!r}")
    kind = AnnotationKind(m.group(1))
    size = int(m.group(2)) if m.group(2) else None
    if size is not None and kind not in _POINTER_KINDS:
        raise ProgramFormatError(f"{at}size suffix only applies to pointer annotations: {text!r}")
    _check_cap(size, f"{at}annotation {text!r}", "size suffix")
    return Annotation(kind=kind, size=size)


@dataclass(frozen=True)
class VarDesc:
    name: str
    size: int
    pointer: bool = False
    pointee_size: int | None = None
    annotation: Annotation | None = None


# ----------------------------------------------------------------------
# call arguments and probe targets

@dataclass(frozen=True)
class ValueArg:
    var: str


@dataclass(frozen=True)
class AddrOfArg:
    var: str


Arg = ValueArg | AddrOfArg


@dataclass(frozen=True)
class VarTarget:
    function: str
    var: str
    offset: int = 0


@dataclass(frozen=True)
class FrameTarget:
    function: str
    offset: int = 0


@dataclass(frozen=True)
class DerefTarget:
    param: str
    offset: int = 0


@dataclass(frozen=True)
class HeapTarget:
    index: int
    offset: int = 0


@dataclass(frozen=True)
class AbsoluteTarget:
    addr: int


ProbeTarget = VarTarget | FrameTarget | DerefTarget | HeapTarget | AbsoluteTarget


# ----------------------------------------------------------------------
# statements

@dataclass(frozen=True)
class Assign:
    var: str
    value: bytes


@dataclass(frozen=True)
class HeapAlloc:
    var: str
    size: int
    init: bytes | None = None


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple[Arg, ...] = ()


@dataclass(frozen=True)
class ReadProbe:
    target: ProbeTarget
    length: int


@dataclass(frozen=True)
class WriteProbe:
    target: ProbeTarget
    value: bytes


@dataclass(frozen=True)
class Return:
    pass


@dataclass(frozen=True)
class VarRef:
    var: str


@dataclass(frozen=True)
class PointeeRef:
    var: str


@dataclass(frozen=True)
class AddressRef:
    addr: int


RegionRef = VarRef | PointeeRef | AddressRef


@dataclass(frozen=True)
class RuntimeCall:
    """An inserted protection call. `provenance` names the insertion rule
    that produced it; hand-built (forged) calls leave it None."""

    call: str
    all: bool | None = None
    target: RegionRef | None = None
    length: int | None = None
    read_only: bool | None = None
    provenance: str | None = None


Statement = Assign | HeapAlloc | Call | ReadProbe | WriteProbe | Return | RuntimeCall


@dataclass(frozen=True)
class FunctionDesc:
    name: str
    params: tuple[VarDesc, ...] = ()
    locals: tuple[VarDesc, ...] = ()
    body: tuple[Statement, ...] = ()
    sensitivity: Sensitivity = Sensitivity.NONE

    @property
    def arity(self) -> int:
        return len(self.params)

    def variables(self) -> tuple[VarDesc, ...]:
        return self.params + self.locals

    def var(self, name: str) -> VarDesc | None:
        for v in self.variables():
            if v.name == name:
                return v
        return None


@dataclass(frozen=True)
class ProgramDesc:
    functions: tuple[FunctionDesc, ...] = ()
    instrumented: bool = False

    def function(self, name: str) -> FunctionDesc | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


def is_instrumented(program: ProgramDesc) -> bool:
    """True if the program carries inserted runtime calls."""
    if program.instrumented:
        return True
    return any(isinstance(stmt, RuntimeCall) for fn in program.functions for stmt in fn.body)


# ----------------------------------------------------------------------
# serialization

def _hex(data: bytes) -> str:
    return data.hex()


def _unhex(text: Any, where: str) -> bytes:
    if not isinstance(text, str):
        raise ProgramFormatError(f"{where}: expected hex string")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ProgramFormatError(f"{where}: bad hex string {text!r}") from None


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ProgramFormatError(f"{where}: {message}")


def _check_cap(size: int | None, where: str, what: str) -> None:
    if size is not None and size > MAX_OBJECT_BYTES:
        raise ProgramFormatError(f"{where}: {what} {size} exceeds the cap of "
                                 f"{MAX_OBJECT_BYTES} bytes (MAX_OBJECT_BYTES)")


def _check_count(count: int, where: str, what: str, cap: int, name: str) -> None:
    if count > cap:
        raise ProgramFormatError(f"{where}: {count} {what} exceed the cap of {cap} ({name})")


def _body_length(raw: Any) -> int:
    return len(raw["body"]) if isinstance(raw, dict) and isinstance(raw.get("body"), list) else 0


def _target_to_dict(target: ProbeTarget) -> dict[str, Any]:
    out: dict[str, Any]
    if isinstance(target, VarTarget):
        out = {"kind": "var", "function": target.function, "var": target.var}
    elif isinstance(target, FrameTarget):
        out = {"kind": "frame", "function": target.function}
    elif isinstance(target, DerefTarget):
        out = {"kind": "deref", "param": target.param}
    elif isinstance(target, HeapTarget):
        out = {"kind": "heap", "index": target.index}
    else:
        return {"kind": "addr", "addr": f"{target.addr:#x}"}
    if target.offset:
        out["offset"] = target.offset
    return out


def _target_from_dict(raw: Any, where: str) -> ProbeTarget:
    _require(isinstance(raw, dict), where, "probe target must be an object")
    kind = raw.get("kind")
    offset = raw.get("offset", 0)
    _require(isinstance(offset, int), where, "offset must be an integer")
    if kind == "var":
        _require(isinstance(raw.get("function"), str), where, "var target needs 'function'")
        _require(isinstance(raw.get("var"), str), where, "var target needs 'var'")
        return VarTarget(function=raw["function"], var=raw["var"], offset=offset)
    if kind == "frame":
        _require(isinstance(raw.get("function"), str), where, "frame target needs 'function'")
        return FrameTarget(function=raw["function"], offset=offset)
    if kind == "deref":
        _require(isinstance(raw.get("param"), str), where, "deref target needs 'param'")
        return DerefTarget(param=raw["param"], offset=offset)
    if kind == "heap":
        _require(isinstance(raw.get("index"), int), where, "heap target needs 'index'")
        return HeapTarget(index=raw["index"], offset=offset)
    if kind == "addr":
        addr = raw.get("addr")
        _require(isinstance(addr, str), where, "addr target needs hex 'addr'")
        try:
            return AbsoluteTarget(addr=int(addr, 16))
        except ValueError:
            raise ProgramFormatError(f"{where}: bad address {addr!r}") from None
    raise ProgramFormatError(f"{where}: unknown target kind {kind!r}")


def _region_ref_to_dict(ref: RegionRef) -> dict[str, Any]:
    if isinstance(ref, VarRef):
        return {"var": ref.var}
    if isinstance(ref, PointeeRef):
        return {"pointee_of": ref.var}
    return {"addr": f"{ref.addr:#x}"}


def _region_ref_from_dict(raw: Any, where: str) -> RegionRef:
    _require(isinstance(raw, dict), where, "region reference must be an object")
    if "var" in raw:
        return VarRef(var=raw["var"])
    if "pointee_of" in raw:
        return PointeeRef(var=raw["pointee_of"])
    if "addr" in raw:
        try:
            return AddressRef(addr=int(raw["addr"], 16))
        except (TypeError, ValueError):
            raise ProgramFormatError(f"{where}: bad address {raw['addr']!r}") from None
    raise ProgramFormatError(f"{where}: region reference needs var/pointee_of/addr")


def _stmt_to_dict(stmt: Statement) -> dict[str, Any]:
    if isinstance(stmt, Assign):
        return {"op": "assign", "var": stmt.var, "value": _hex(stmt.value)}
    if isinstance(stmt, HeapAlloc):
        out: dict[str, Any] = {"op": "heap_alloc", "var": stmt.var, "size": stmt.size}
        if stmt.init is not None:
            out["init"] = _hex(stmt.init)
        return out
    if isinstance(stmt, Call):
        args = [{"var": a.var} if isinstance(a, ValueArg) else {"addr_of": a.var}
                for a in stmt.args]
        return {"op": "call", "callee": stmt.callee, "args": args}
    if isinstance(stmt, ReadProbe):
        return {"op": "read_probe", "target": _target_to_dict(stmt.target), "len": stmt.length}
    if isinstance(stmt, WriteProbe):
        return {"op": "write_probe", "target": _target_to_dict(stmt.target),
                "value": _hex(stmt.value)}
    if isinstance(stmt, Return):
        return {"op": "return"}
    out = {"op": "runtime_call", "call": stmt.call}
    if stmt.all is not None:
        out["all"] = stmt.all
    if stmt.target is not None:
        out["target"] = _region_ref_to_dict(stmt.target)
    if stmt.length is not None:
        out["len"] = stmt.length
    if stmt.read_only is not None:
        out["read_only"] = stmt.read_only
    if stmt.provenance is not None:
        out["provenance"] = stmt.provenance
    return out


def _stmt_from_dict(raw: Any, where: str) -> Statement:
    _require(isinstance(raw, dict), where, "statement must be an object")
    op = raw.get("op")
    if op == "assign":
        _require(isinstance(raw.get("var"), str), where, "assign needs 'var'")
        return Assign(var=raw["var"], value=_unhex(raw.get("value"), where))
    if op == "heap_alloc":
        _require(isinstance(raw.get("var"), str), where, "heap_alloc needs 'var'")
        _require(isinstance(raw.get("size"), int) and raw["size"] > 0,
                 where, "heap_alloc needs positive 'size'")
        _check_cap(raw["size"], where, "heap_alloc 'size'")
        init = _unhex(raw["init"], where) if "init" in raw else None
        return HeapAlloc(var=raw["var"], size=raw["size"], init=init)
    if op == "call":
        _require(isinstance(raw.get("callee"), str), where, "call needs 'callee'")
        args: list[Arg] = []
        for i, a in enumerate(raw.get("args", [])):
            _require(isinstance(a, dict), f"{where}.args[{i}]", "argument must be an object")
            if "var" in a:
                args.append(ValueArg(var=a["var"]))
            elif "addr_of" in a:
                args.append(AddrOfArg(var=a["addr_of"]))
            else:
                raise ProgramFormatError(f"{where}.args[{i}]: needs 'var' or 'addr_of'")
        return Call(callee=raw["callee"], args=tuple(args))
    if op == "read_probe":
        _require(isinstance(raw.get("len"), int) and raw["len"] >= 0,
                 where, "read_probe needs non-negative 'len'")
        _require(raw["len"] <= MAX_PROBE_BYTES, where,
                 f"read_probe 'len' {raw['len']} exceeds the cap of {MAX_PROBE_BYTES} bytes")
        return ReadProbe(target=_target_from_dict(raw.get("target"), where), length=raw["len"])
    if op == "write_probe":
        return WriteProbe(target=_target_from_dict(raw.get("target"), where),
                          value=_unhex(raw.get("value"), where))
    if op == "return":
        return Return()
    if op == "runtime_call":
        call = raw.get("call")
        _require(call in RUNTIME_CALLS, where, f"unknown runtime call {call!r}")
        target = (_region_ref_from_dict(raw["target"], where)
                  if "target" in raw else None)
        length = raw.get("len")
        _require(length is None or (isinstance(length, int) and length >= 0),
                 where, "'len' must be a non-negative integer")
        _check_cap(length, where, "runtime_call 'len'")
        return RuntimeCall(call=call, all=raw.get("all"), target=target, length=length,
                           read_only=raw.get("read_only"), provenance=raw.get("provenance"))
    raise ProgramFormatError(f"{where}: unknown statement op {op!r}")


def _var_to_dict(v: VarDesc) -> dict[str, Any]:
    out: dict[str, Any] = {"name": v.name, "size": v.size}
    if v.pointer:
        out["pointer"] = True
    if v.pointee_size is not None:
        out["pointee_size"] = v.pointee_size
    if v.annotation is not None:
        out["annotation"] = v.annotation.render()
    return out


def _var_from_dict(raw: Any, where: str) -> VarDesc:
    _require(isinstance(raw, dict), where, "variable must be an object")
    _require(isinstance(raw.get("name"), str), where, "variable needs 'name'")
    _require(isinstance(raw.get("size"), int) and raw["size"] > 0,
             where, "variable needs positive 'size'")
    _check_cap(raw["size"], where, "variable 'size'")
    annotation = None
    if "annotation" in raw:
        _require(isinstance(raw["annotation"], str), where, "annotation must be a string")
        annotation = parse_annotation(raw["annotation"], where)
    pointee = raw.get("pointee_size")
    _require(pointee is None or (isinstance(pointee, int) and pointee > 0),
             where, "pointee_size must be a positive integer")
    _check_cap(pointee, where, "'pointee_size'")
    return VarDesc(name=raw["name"], size=raw["size"], pointer=bool(raw.get("pointer", False)),
                   pointee_size=pointee, annotation=annotation)


def function_to_dict(fn: FunctionDesc) -> dict[str, Any]:
    out: dict[str, Any] = {"name": fn.name}
    if fn.sensitivity is not Sensitivity.NONE:
        out["sensitivity"] = fn.sensitivity.value
    out["params"] = [_var_to_dict(v) for v in fn.params]
    out["locals"] = [_var_to_dict(v) for v in fn.locals]
    out["body"] = [_stmt_to_dict(s) for s in fn.body]
    return out


def function_from_dict(raw: Any, where: str) -> FunctionDesc:
    _require(isinstance(raw, dict), where, "function must be an object")
    _require(isinstance(raw.get("name"), str), where, "function needs 'name'")
    name = raw["name"]
    sens_text = raw.get("sensitivity")
    if sens_text is None:
        sensitivity = Sensitivity.NONE
    else:
        try:
            sensitivity = Sensitivity(sens_text)
        except ValueError:
            raise ProgramFormatError(f"{where}: unknown sensitivity {sens_text!r}") from None
        _require(sensitivity is not Sensitivity.NONE, where, "sensitivity 'none' is implied; omit it")
    params = tuple(_var_from_dict(v, f"{where}.params[{i}]")
                   for i, v in enumerate(raw.get("params", [])))
    locals_ = tuple(_var_from_dict(v, f"{where}.locals[{i}]")
                    for i, v in enumerate(raw.get("locals", [])))
    _check_count(_body_length(raw), where, "statements", MAX_BODY_STATEMENTS,
                 "MAX_BODY_STATEMENTS")
    body = tuple(_stmt_from_dict(s, f"{where}.body[{i}]")
                 for i, s in enumerate(raw.get("body", [])))
    sizes: dict[str, int] = {}
    for v in params + locals_:
        if v.name in sizes:
            raise ProgramFormatError(f"{where}: duplicate variable {v.name!r}")
        sizes[v.name] = v.size
    for i, stmt in enumerate(body):
        if not isinstance(stmt, Assign):
            continue
        size = sizes.get(stmt.var)
        if size is None:
            raise ProgramFormatError(f"{where}.body[{i}]: assign to undeclared variable "
                                     f"{stmt.var!r} of function {name!r}")
        _require(len(stmt.value) <= size, f"{where}.body[{i}]",
                 f"assign of {len(stmt.value)} bytes to {stmt.var!r} of function "
                 f"{name!r}, which holds {size} bytes")
    return FunctionDesc(name=name, params=params, locals=locals_, body=body,
                        sensitivity=sensitivity)


def program_to_dict(program: ProgramDesc) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if program.instrumented:
        out["instrumented"] = True
    out["functions"] = [function_to_dict(fn) for fn in program.functions]
    return out


def program_from_dict(raw: Any) -> ProgramDesc:
    _require(isinstance(raw, dict), "program", "document must be an object")
    functions = raw.get("functions")
    _require(isinstance(functions, list), "program", "document needs a 'functions' list")
    _check_count(len(functions), "program", "functions", MAX_FUNCTIONS, "MAX_FUNCTIONS")
    _check_count(sum(map(_body_length, functions)), "program", "statements",
                 MAX_PROGRAM_STATEMENTS, "MAX_PROGRAM_STATEMENTS")
    fns = tuple(function_from_dict(f, f"functions[{i}]") for i, f in enumerate(functions))
    names = set()
    for fn in fns:
        if fn.name in names:
            raise ProgramFormatError(f"duplicate function name {fn.name!r}")
        names.add(fn.name)
    return ProgramDesc(functions=fns, instrumented=bool(raw.get("instrumented", False)))


def emit(program: ProgramDesc) -> str:
    """Serialize deterministically; parse(emit(p)) is structurally p."""
    return json.dumps(program_to_dict(program), indent=2) + "\n"


def parse(text: str) -> ProgramDesc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProgramFormatError(f"invalid JSON: {exc}") from None
    return program_from_dict(raw)
