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
least 0. A field that holds an integer refuses JSON ``true`` and ``false``;
a field that holds a flag (``pointer``, ``all``, ``read_only``,
``instrumented``) refuses anything but them; ``params``, ``locals``,
``body`` and ``args`` refuse anything but a list. A document has at most
MAX_FUNCTIONS functions, a body at most MAX_BODY_STATEMENTS statements,
and all bodies together at most MAX_PROGRAM_STATEMENTS.

Every description, parsed or built in code, keeps three rules: a
program's function names are distinct, as are a function's params and
locals; every variable a statement names in its own function (an
argument, a ``deref`` param, a region, an ``assign`` or ``heap_alloc``
var) is a str declared there, and an ``assign`` fits in it; and a
``runtime_call`` names one of the six RUNTIME_CALLS, carries its region
if it registers one (a pointee with a ``len``), and has a ``provenance``
that is absent (a forged call) or a non-empty string other than
``forged`` (the insertion rule that made it). `ProgramDesc` and
`FunctionDesc` refuse a description that breaks one when it is built;
`parse` puts the document's place in front of their message. So other
modules look names up in plain dicts.

A parsed program is compact: within one document it holds one ``str`` per
distinct name, call and provenance, and one instance per distinct
variable and per distinct statement that carries no bytes and no region
(``return``, and a ``runtime_call`` without a target). So a `Call`'s
callee is the very string its callee's `FunctionDesc` is named by, which
makes the executor's name lookups hit by identity. Statements compare by
value only; nothing may tell two equal statements apart by identity.
Error messages echo an input value through `shown`, which cuts a long
one to its start and its length.

`to_json` is the one writer of every JSON document framevault writes:
programs (`emit`), reports and counterexample files. Its bytes are
those of ``json.dumps(doc, indent=2)`` and a newline.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
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
    """Structurally invalid program document or description; `at` is the
    fault's place in the description that refused it ("body[3]"), if any."""

    def __init__(self, message: str, at: str = "") -> None:
        super().__init__(f"{at}: {message}" if at else message)
        self.at, self.message = at, message


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


@dataclass(frozen=True, slots=True)
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
        raise ProgramFormatError(f"{at}unknown annotation {shown(text)}")
    kind = AnnotationKind(m.group(1))
    size = int(m.group(2)) if m.group(2) else None
    if size is not None and kind not in _POINTER_KINDS:
        raise ProgramFormatError(f"{at}size suffix only applies to pointer annotations: "
                                 f"{shown(text)}")
    _check_cap(size, f"{at}annotation {shown(text)}", "size suffix")
    return Annotation(kind=kind, size=size)


@dataclass(frozen=True, slots=True)
class VarDesc:
    name: str
    size: int
    pointer: bool = False
    pointee_size: int | None = None
    annotation: Annotation | None = None


# ----------------------------------------------------------------------
# call arguments and probe targets

@dataclass(frozen=True, slots=True)
class ValueArg:
    var: str


@dataclass(frozen=True, slots=True)
class AddrOfArg:
    var: str


Arg = ValueArg | AddrOfArg


@dataclass(frozen=True, slots=True)
class VarTarget:
    function: str
    var: str
    offset: int = 0


@dataclass(frozen=True, slots=True)
class FrameTarget:
    function: str
    offset: int = 0


@dataclass(frozen=True, slots=True)
class DerefTarget:
    param: str
    offset: int = 0


@dataclass(frozen=True, slots=True)
class HeapTarget:
    index: int
    offset: int = 0


@dataclass(frozen=True, slots=True)
class AbsoluteTarget:
    addr: int


ProbeTarget = VarTarget | FrameTarget | DerefTarget | HeapTarget | AbsoluteTarget


# ----------------------------------------------------------------------
# statements

@dataclass(frozen=True, slots=True)
class Assign:
    var: str
    value: bytes


@dataclass(frozen=True, slots=True)
class HeapAlloc:
    var: str
    size: int
    init: bytes | None = None


@dataclass(frozen=True, slots=True)
class Call:
    callee: str
    args: tuple[Arg, ...] = ()


@dataclass(frozen=True, slots=True)
class ReadProbe:
    target: ProbeTarget
    length: int


@dataclass(frozen=True, slots=True)
class WriteProbe:
    target: ProbeTarget
    value: bytes


@dataclass(frozen=True, slots=True)
class Return:
    pass


@dataclass(frozen=True, slots=True)
class VarRef:
    var: str


@dataclass(frozen=True, slots=True)
class PointeeRef:
    var: str


@dataclass(frozen=True, slots=True)
class AddressRef:
    addr: int


RegionRef = VarRef | PointeeRef | AddressRef


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        sizes: dict[str, int] = {}
        for v in self.params + self.locals:
            if v.name in sizes:
                raise ProgramFormatError(f"duplicate variable {shown(v.name)}")
            sizes[v.name] = v.size
        for i, stmt in enumerate(self.body):
            kind = type(stmt)
            if kind is Assign or kind is HeapAlloc:
                names, what = (stmt.var,), "assign to" if kind is Assign else "heap_alloc into"
            elif kind is Call:
                names, what = [arg.var for arg in stmt.args], "argument of"
            elif (kind is ReadProbe or kind is WriteProbe) and type(stmt.target) is DerefTarget:
                names, what = (stmt.target.param,), "deref of"
            elif kind is RuntimeCall:
                if stmt.call not in RUNTIME_CALLS:
                    raise ProgramFormatError(f"unknown runtime call {shown(stmt.call)}",
                                             f"body[{i}]")
                provenance = stmt.provenance
                if provenance is not None and (type(provenance) is not str
                                               or provenance in ("", "forged")):
                    raise ProgramFormatError("'provenance' must be a non-empty string other "
                                             "than 'forged'", f"body[{i}]")
                region = type(stmt.target)
                if stmt.call not in ("register_memory", "register_memory_exception") \
                        or region is AddressRef:
                    continue
                if region is not VarRef and region is not PointeeRef:
                    raise ProgramFormatError(f"{stmt.call} needs a region", f"body[{i}]")
                if region is PointeeRef and stmt.length is None:
                    raise ProgramFormatError(f"{stmt.call} of a pointee needs 'len'", f"body[{i}]")
                names, what = (stmt.target.var,), f"{stmt.call} of"
            else:
                continue
            for name in names:
                # A name that is no str is declared nowhere and may not hash.
                if type(name) is not str or name not in sizes:
                    raise ProgramFormatError(f"{what} undeclared variable {shown(name)} of "
                                             f"function {shown(self.name)}", f"body[{i}]")
            if kind is Assign and len(stmt.value) > sizes[stmt.var]:
                raise ProgramFormatError(
                    f"assign of {len(stmt.value)} bytes to {shown(stmt.var)} of function "
                    f"{shown(self.name)}, which holds {sizes[stmt.var]} bytes", f"body[{i}]")

    def var(self, name: str) -> VarDesc | None:
        for v in self.variables():
            if v.name == name:
                return v
        return None


# The one description without slots: the executor keeps a program's
# compiled plan in its instance dict.
@dataclass(frozen=True)
class ProgramDesc:
    functions: tuple[FunctionDesc, ...] = ()
    instrumented: bool = False

    def __post_init__(self) -> None:
        names: set[str] = set()
        for fn in self.functions:
            if fn.name in names:
                raise ProgramFormatError(f"duplicate function name {shown(fn.name)}")
            names.add(fn.name)

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

# Most characters of an input value an error message echoes.
SHOWN_CHARS = 60


def shown(value: Any, quote: bool = True) -> str:
    """`repr(value)` for a str of at most SHOWN_CHARS characters or any
    other value whose repr is that short; for a longer one, the repr of
    its first SHOWN_CHARS characters and its length. With quote=False a
    str is shown as it is, not by its repr. Error messages echo input
    values through it, so they stay short whatever the input holds."""
    if isinstance(value, str):
        text = repr if quote else str
        if len(value) <= SHOWN_CHARS:
            return text(value)
        return f"{text(value[:SHOWN_CHARS])}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def _name(memo: dict, text: Any) -> Any:
    """The first str equal to `text` that this document read. A value of
    another type is returned as it is: a check refuses it, or the format
    leaves it unchecked."""
    return memo.setdefault(text, text) if type(text) is str else text


def _shared(memo: dict, cls: type, *fields: Any) -> Any:
    """The one `cls(*fields)` of this document: built on first use, then
    returned for every later request with fields of the same values and
    types (True equals 1, but `emit` writes them apart). A field that does
    not hash, a JSON value the format leaves unchecked, gets its own."""
    key = (cls, *fields, *map(type, fields))
    try:
        obj = memo.get(key)
    except TypeError:
        return cls(*fields)
    if obj is None:
        obj = memo[key] = cls(*fields)
    return obj


def _hex(data: bytes) -> str:
    return data.hex()


def _unhex(text: Any, where: str) -> bytes:
    if not isinstance(text, str):
        raise ProgramFormatError(f"{where}: expected hex string")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ProgramFormatError(f"{where}: bad hex string {shown(text)}") from None


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ProgramFormatError(f"{where}: {message}")


def _list(raw: dict, key: str, where: str) -> list:
    """The list a field holds; an absent field is an empty list."""
    value = raw.get(key, [])
    _require(type(value) is list, where, f"{shown(key)} must be a list")
    return value


def _flag(raw: dict, key: str, where: str) -> bool | None:
    """The JSON true or false a field holds, or None when it is absent."""
    if key not in raw:
        return None
    _require(type(raw[key]) is bool, where, f"{shown(key)} must be true or false")
    return raw[key]


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


def _target_from_dict(raw: Any, where: str, memo: dict) -> ProbeTarget:
    _require(isinstance(raw, dict), where, "probe target must be an object")
    kind = raw.get("kind")
    offset = raw.get("offset", 0)
    _require(type(offset) is int, where, "offset must be an integer")
    if kind == "var":
        _require(isinstance(raw.get("function"), str), where, "var target needs 'function'")
        _require(isinstance(raw.get("var"), str), where, "var target needs 'var'")
        return VarTarget(function=_name(memo, raw["function"]), var=_name(memo, raw["var"]),
                         offset=offset)
    if kind == "frame":
        _require(isinstance(raw.get("function"), str), where, "frame target needs 'function'")
        return FrameTarget(function=_name(memo, raw["function"]), offset=offset)
    if kind == "deref":
        _require(isinstance(raw.get("param"), str), where, "deref target needs 'param'")
        return DerefTarget(param=_name(memo, raw["param"]), offset=offset)
    if kind == "heap":
        _require(type(raw.get("index")) is int, where, "heap target needs 'index'")
        return HeapTarget(index=raw["index"], offset=offset)
    if kind == "addr":
        addr = raw.get("addr")
        _require(isinstance(addr, str), where, "addr target needs hex 'addr'")
        try:
            return AbsoluteTarget(addr=int(addr, 16))
        except ValueError:
            raise ProgramFormatError(f"{where}: bad address {shown(addr)}") from None
    raise ProgramFormatError(f"{where}: unknown target kind {shown(kind)}")


def _region_ref_to_dict(ref: RegionRef) -> dict[str, Any]:
    if isinstance(ref, VarRef):
        return {"var": ref.var}
    if isinstance(ref, PointeeRef):
        return {"pointee_of": ref.var}
    return {"addr": f"{ref.addr:#x}"}


def _region_ref_from_dict(raw: Any, where: str, memo: dict) -> RegionRef:
    _require(isinstance(raw, dict), where, "region reference must be an object")
    if "var" in raw:
        return VarRef(var=_name(memo, raw["var"]))
    if "pointee_of" in raw:
        return PointeeRef(var=_name(memo, raw["pointee_of"]))
    if "addr" in raw:
        try:
            return AddressRef(addr=int(raw["addr"], 16))
        except (TypeError, ValueError):
            raise ProgramFormatError(f"{where}: bad address {shown(raw['addr'])}") from None
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


def _stmt_from_dict(raw: Any, where: str, memo: dict) -> Statement:
    _require(isinstance(raw, dict), where, "statement must be an object")
    op = raw.get("op")
    if op == "assign":
        _require(isinstance(raw.get("var"), str), where, "assign needs 'var'")
        return Assign(var=_name(memo, raw["var"]), value=_unhex(raw.get("value"), where))
    if op == "heap_alloc":
        _require(isinstance(raw.get("var"), str), where, "heap_alloc needs 'var'")
        _require(type(raw.get("size")) is int and raw["size"] > 0,
                 where, "heap_alloc needs positive 'size'")
        _check_cap(raw["size"], where, "heap_alloc 'size'")
        init = _unhex(raw["init"], where) if "init" in raw else None
        return HeapAlloc(var=_name(memo, raw["var"]), size=raw["size"], init=init)
    if op == "call":
        _require(isinstance(raw.get("callee"), str), where, "call needs 'callee'")
        args: list[Arg] = []
        for i, a in enumerate(_list(raw, "args", where)):
            _require(isinstance(a, dict), f"{where}.args[{i}]", "argument must be an object")
            if "var" in a:
                args.append(ValueArg(var=_name(memo, a["var"])))
            elif "addr_of" in a:
                args.append(AddrOfArg(var=_name(memo, a["addr_of"])))
            else:
                raise ProgramFormatError(f"{where}.args[{i}]: needs 'var' or 'addr_of'")
        return Call(callee=_name(memo, raw["callee"]), args=tuple(args))
    if op == "read_probe":
        _require(type(raw.get("len")) is int and raw["len"] >= 0,
                 where, "read_probe needs non-negative 'len'")
        _require(raw["len"] <= MAX_PROBE_BYTES, where,
                 f"read_probe 'len' {raw['len']} exceeds the cap of {MAX_PROBE_BYTES} bytes")
        return ReadProbe(target=_target_from_dict(raw.get("target"), where, memo),
                         length=raw["len"])
    if op == "write_probe":
        return WriteProbe(target=_target_from_dict(raw.get("target"), where, memo),
                          value=_unhex(raw.get("value"), where))
    if op == "return":
        return _shared(memo, Return)
    if op == "runtime_call":
        target = (_region_ref_from_dict(raw["target"], where, memo)
                  if "target" in raw else None)
        length = raw.get("len")
        _require(length is None or (type(length) is int and length >= 0),
                 where, "'len' must be a non-negative integer")
        _check_cap(length, where, "runtime_call 'len'")
        fields = (_name(memo, raw.get("call")), _flag(raw, "all", where), target, length,
                  _flag(raw, "read_only", where), _name(memo, raw.get("provenance")))
        if target is not None:
            return RuntimeCall(*fields)
        return _shared(memo, RuntimeCall, *fields)
    raise ProgramFormatError(f"{where}: unknown statement op {shown(op)}")


def _var_to_dict(v: VarDesc) -> dict[str, Any]:
    out: dict[str, Any] = {"name": v.name, "size": v.size}
    if v.pointer:
        out["pointer"] = True
    if v.pointee_size is not None:
        out["pointee_size"] = v.pointee_size
    if v.annotation is not None:
        out["annotation"] = v.annotation.render()
    return out


def _var_from_dict(raw: Any, where: str, memo: dict) -> VarDesc:
    _require(isinstance(raw, dict), where, "variable must be an object")
    _require(isinstance(raw.get("name"), str), where, "variable needs 'name'")
    _require(type(raw.get("size")) is int and raw["size"] > 0,
             where, "variable needs positive 'size'")
    _check_cap(raw["size"], where, "variable 'size'")
    annotation = None
    if "annotation" in raw:
        _require(isinstance(raw["annotation"], str), where, "annotation must be a string")
        annotation = parse_annotation(raw["annotation"], where)
    pointee = raw.get("pointee_size")
    _require(pointee is None or (type(pointee) is int and pointee > 0),
             where, "pointee_size must be a positive integer")
    _check_cap(pointee, where, "'pointee_size'")
    return _shared(memo, VarDesc, _name(memo, raw["name"]), raw["size"],
                   _flag(raw, "pointer", where) is True, pointee, annotation)


def function_to_dict(fn: FunctionDesc) -> dict[str, Any]:
    out: dict[str, Any] = {"name": fn.name}
    if fn.sensitivity is not Sensitivity.NONE:
        out["sensitivity"] = fn.sensitivity.value
    out["params"] = [_var_to_dict(v) for v in fn.params]
    out["locals"] = [_var_to_dict(v) for v in fn.locals]
    out["body"] = [_stmt_to_dict(s) for s in fn.body]
    return out


def function_from_dict(raw: Any, where: str, memo: dict) -> FunctionDesc:
    """One function of a document; `memo` is the document's (see
    `program_from_dict`)."""
    _require(isinstance(raw, dict), where, "function must be an object")
    _require(isinstance(raw.get("name"), str), where, "function needs 'name'")
    name = _name(memo, raw["name"])
    sens_text = raw.get("sensitivity")
    if sens_text is None:
        sensitivity = Sensitivity.NONE
    else:
        try:
            sensitivity = Sensitivity(sens_text)
        except ValueError:
            raise ProgramFormatError(f"{where}: unknown sensitivity {shown(sens_text)}") from None
        _require(sensitivity is not Sensitivity.NONE, where, "sensitivity 'none' is implied; omit it")
    params = tuple(_var_from_dict(v, f"{where}.params[{i}]", memo)
                   for i, v in enumerate(_list(raw, "params", where)))
    locals_ = tuple(_var_from_dict(v, f"{where}.locals[{i}]", memo)
                    for i, v in enumerate(_list(raw, "locals", where)))
    _check_count(_body_length(raw), where, "statements", MAX_BODY_STATEMENTS,
                 "MAX_BODY_STATEMENTS")
    body = tuple(_stmt_from_dict(s, f"{where}.body[{i}]", memo)
                 for i, s in enumerate(_list(raw, "body", where)))
    try:
        return FunctionDesc(name=name, params=params, locals=locals_, body=body,
                            sensitivity=sensitivity)
    except ProgramFormatError as exc:
        raise ProgramFormatError(exc.message, f"{where}.{exc.at}" if exc.at else where) from None


def program_to_dict(program: ProgramDesc) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if program.instrumented:
        out["instrumented"] = True
    out["functions"] = [function_to_dict(fn) for fn in program.functions]
    return out


def program_from_dict(raw: Any) -> ProgramDesc:
    """The program a document describes. One memo serves the whole
    document: it keeps the document's first str of each name and its one
    instance of each shared statement, and is dropped with the document."""
    _require(isinstance(raw, dict), "program", "document must be an object")
    functions = raw.get("functions")
    _require(isinstance(functions, list), "program", "document needs a 'functions' list")
    _check_count(len(functions), "program", "functions", MAX_FUNCTIONS, "MAX_FUNCTIONS")
    _check_count(sum(map(_body_length, functions)), "program", "statements",
                 MAX_PROGRAM_STATEMENTS, "MAX_PROGRAM_STATEMENTS")
    memo: dict = {}
    fns = tuple(function_from_dict(f, f"functions[{i}]", memo) for i, f in enumerate(functions))
    return ProgramDesc(functions=fns, instrumented=_flag(raw, "instrumented", "program") is True)


def to_json(doc: Any) -> str:
    """`doc` as `json.dumps(doc, indent=2) + "\n"` writes it, byte for
    byte. `json.dumps` with an indent runs the pure-Python encoder; this
    walk quotes strings with the C `encode_basestring_ascii`, writes each
    key with its separator (and its value, when that is a string or an
    integer) as one piece, and joins the pieces once. A document holds dicts with str keys, lists, tuples, str,
    int, bool and None; any other value raises TypeError."""
    parts: list[str] = []
    _write(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _write(value: Any, parts: list[str], newline: str) -> None:
    """Append `value`'s pieces; `newline` is a newline and the indent of
    the line `value` ends on."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            piece = separator + _quote(key) + ": "
            # Most values are strings and integers; writing each in its key's
            # piece halves the pieces, and with them `emit`'s peak memory.
            if type(item) is str:
                parts.append(piece + _quote(item))
            elif type(item) is int:
                parts.append(piece + int.__repr__(item))
            else:
                parts.append(piece)
                _write(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def emit(program: ProgramDesc) -> str:
    """Serialize deterministically; parse(emit(p)) is structurally p."""
    return to_json(program_to_dict(program))


def parse(text: str) -> ProgramDesc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProgramFormatError(f"invalid JSON: {exc}") from None
    return program_from_dict(raw)
