"""Instrumentation: where each runtime call lands, what it carries, and
which programs are refused outright."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from framevault.instrument import (
    AnnotationError,
    ListParseError,
    PROV_ADDR_OF_ARGUMENT,
    PROV_FINEGRAINED_FUNCTION,
    PROV_NOT_SENSITIVE_VAR,
    PROV_SENSITIVE_FUNCTION,
    PROV_SENSITIVE_POINTEE,
    PROV_SENSITIVE_POINTER_VAR,
    PROV_SENSITIVE_VAR,
    PROV_UNTRUSTED_CALL,
    PROV_WRITE_SENSITIVE_POINTEE,
    PROV_WRITE_SENSITIVE_VAR,
    instrument,
    parse_lists,
    provenance_listing,
    slot_exposed,
)
from framevault.program import (
    AbsoluteTarget,
    AddressRef,
    AddrOfArg,
    Assign,
    Call,
    DerefTarget,
    FrameTarget,
    FunctionDesc,
    HeapAlloc,
    HeapTarget,
    PointeeRef,
    ProgramDesc,
    ProgramFormatError,
    ReadProbe,
    Return,
    RuntimeCall,
    Sensitivity,
    ValueArg,
    VarDesc,
    VarRef,
    VarTarget,
    WriteProbe,
    parse_annotation,
    emit,
    parse,
    to_json,
)
from framevault.executor import image_map_for, run, run_native
from framevault.fuzzer import FuzzConfig, generate_scenario, inject_forged
from framevault.identity import load_image_map

from support import pwdgen_instrumented


def var(name, size, ann=None, pointer=False, pointee=None):
    return VarDesc(name=name, size=size, pointer=pointer, pointee_size=pointee,
                   annotation=parse_annotation(ann) if ann else None)


def build(fn_locals=(), body=(), sens="sensitive", params=(),
          lib_arity=0, extra_fns=()):
    """One annotated function calling one untrusted lib, plus main."""
    fns = [
        FunctionDesc(name="work", params=tuple(params), locals=tuple(fn_locals),
                     body=tuple(body)),
        FunctionDesc(name="main", body=(Call("work", tuple(ValueArg(v.name) for v in ())),
                                        Return())),
        *extra_fns,
    ]
    program = ProgramDesc(functions=tuple(fns))
    untrusted, sensitive = parse_lists(f"helper({lib_arity})\n",
                                       "work\n" if sens == "sensitive" else "")
    return program, untrusted, sensitive


def runtime_calls(fn):
    return [s for s in fn.body if isinstance(s, RuntimeCall)]


def calls_named(fn, name):
    return [s for s in runtime_calls(fn) if s.call == name]


class TestGoldenSequence:
    """The full walkthrough program, checked statement by statement."""

    def test_instrumented_body_is_exact(self):
        program = pwdgen_instrumented()
        fn = program.function("pwdgenerator")
        assert len(fn.body) == 11
        kinds = [type(s).__name__ if not isinstance(s, RuntimeCall) else s.call
                 for s in fn.body]
        assert kinds == [
            "register_stack", "Assign", "Assign", "HeapAlloc",
            "register_memory", "register_memory_exception",
            "start_protect", "Call", "stop_protect",
            "unregister_stack", "Return",
        ]
        head = fn.body[0]
        assert head.all is True and head.provenance == PROV_SENSITIVE_FUNCTION
        pointee = fn.body[4]
        assert pointee.target == PointeeRef("id")
        assert pointee.length == 64 and pointee.read_only is False
        assert pointee.provenance == PROV_SENSITIVE_POINTEE
        carve = fn.body[5]
        assert carve.target == VarRef("age")
        assert carve.length == 4 and carve.read_only is False
        assert carve.provenance == PROV_NOT_SENSITIVE_VAR
        assert fn.body[6].provenance == PROV_UNTRUSTED_CALL
        assert fn.body[8].provenance == PROV_UNTRUSTED_CALL
        assert fn.body[9].call == "unregister_stack"

    def test_listing_names_every_inserted_call(self):
        lines = provenance_listing(pwdgen_instrumented())
        assert len(lines) == 6
        assert lines[0].startswith("pwdgenerator body[0]: register_stack(all=True)")
        assert "register_memory(*id, len=64, read_only=False)" in lines[1]
        assert "register_memory_exception(age, len=4, read_only=False)" in lines[2]
        assert all("#" in line for line in lines)

    def test_untouched_functions_stay_untouched(self):
        program = pwdgen_instrumented()
        lib = program.function("lib_func")
        assert runtime_calls(lib) == []


class TestFramePlacement:
    def test_whole_frame_mode_brackets_the_body(self):
        program, u, s = build(body=(Return(),))
        fn = instrument(program, u, s).function("work")
        assert fn.body[0].call == "register_stack" and fn.body[0].all is True
        assert fn.body[-2].call == "unregister_stack"
        assert isinstance(fn.body[-1], Return)

    def test_finegrained_mode_registers_with_all_false(self):
        program, u, s = build(body=(Return(),), sens="")
        program = ProgramDesc(functions=(
            FunctionDesc(name="work", body=(Return(),),
                         sensitivity=Sensitivity.FINEGRAINED),
            program.functions[1]))
        fn = instrument(program, u, s).function("work")
        assert fn.body[0].all is False
        assert fn.body[0].provenance == PROV_FINEGRAINED_FUNCTION

    def test_missing_trailing_return_still_gets_the_epilogue(self):
        program, u, s = build(body=())
        fn = instrument(program, u, s).function("work")
        assert fn.body[-1].call == "unregister_stack"

    def test_every_return_gets_its_own_epilogue(self):
        program, u, s = build(body=(Return(), Return()))
        fn = instrument(program, u, s).function("work")
        assert len(calls_named(fn, "unregister_stack")) == 2


class TestWindowPlacement:
    def test_each_untrusted_call_is_bracketed(self):
        body = (Call("helper"), Call("helper"), Return())
        program, u, s = build(body=body)
        fn = instrument(program, u, s).function("work")
        names = [s.call if isinstance(s, RuntimeCall) else type(s).__name__
                 for s in fn.body]
        first = names.index("start_protect")
        assert names[first:first + 3] == ["start_protect", "Call", "stop_protect"]
        assert names.count("start_protect") == names.count("stop_protect") == 2

    def test_trusted_callers_get_windows_without_registration(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="plain", body=(Call("helper"), Return())),))
        untrusted, sensitive = parse_lists("helper(0)\n", "")
        fn = instrument(program, untrusted, sensitive).function("plain")
        names = [s.call for s in runtime_calls(fn)]
        assert names == ["start_protect", "stop_protect"]

    def test_calls_between_described_functions_are_not_bracketed(self):
        extra = FunctionDesc(name="inner", body=(Return(),))
        program, u, s = build(body=(Call("inner"), Return()), extra_fns=(extra,))
        fn = instrument(program, u, s).function("work")
        assert calls_named(fn, "start_protect") == []


class TestSlotTreatment:
    """How each annotation kind turns into registrations, per mode."""

    def fn_for(self, annotation, sens, body=(Return(),), **var_kw):
        v = var("x", 8, annotation, **var_kw)
        program = ProgramDesc(functions=(
            FunctionDesc(name="work", locals=(v,), body=tuple(body),
                         sensitivity=Sensitivity(sens)),))
        untrusted, _ = parse_lists("helper(0)\n", "")
        return instrument(program, untrusted, frozenset()).function("work")

    def test_sensitive_var_finegrained_registers_writable(self):
        fn = self.fn_for("sensitive", "sensitive_finegrained")
        (reg,) = calls_named(fn, "register_memory")
        assert reg.target == VarRef("x") and reg.read_only is False
        assert reg.provenance == PROV_SENSITIVE_VAR

    def test_sensitive_var_whole_frame_needs_no_slot_call(self):
        fn = self.fn_for("sensitive", "sensitive")
        assert calls_named(fn, "register_memory") == []
        assert calls_named(fn, "register_memory_exception") == []

    def test_not_sensitive_var_whole_frame_becomes_a_carve_out(self):
        fn = self.fn_for("not_sensitive", "sensitive")
        (exc,) = calls_named(fn, "register_memory_exception")
        assert exc.read_only is False
        assert exc.provenance == PROV_NOT_SENSITIVE_VAR

    def test_not_sensitive_var_finegrained_needs_nothing(self):
        fn = self.fn_for("not_sensitive", "sensitive_finegrained")
        assert runtime_calls(fn)[1:-1] == []

    def test_write_sensitive_var_is_read_only_in_both_modes(self):
        fn = self.fn_for("write_sensitive", "sensitive")
        (exc,) = calls_named(fn, "register_memory_exception")
        assert exc.read_only is True and exc.provenance == PROV_WRITE_SENSITIVE_VAR
        fn = self.fn_for("write_sensitive", "sensitive_finegrained")
        (reg,) = calls_named(fn, "register_memory")
        assert reg.read_only is True and reg.provenance == PROV_WRITE_SENSITIVE_VAR

    def test_pointer_local_pointee_registers_after_its_definition(self):
        body = (Assign("y", b"\x01"), HeapAlloc("x", 32), Return())
        program = ProgramDesc(functions=(
            FunctionDesc(name="work",
                         locals=(var("x", 8, "sensitive_pointer", pointer=True, pointee=32),
                                 var("y", 4)),
                         body=body, sensitivity=Sensitivity.FINEGRAINED),))
        untrusted, _ = parse_lists("helper(0)\n", "")
        fn = instrument(program, untrusted, frozenset()).function("work")
        pointees = [s for s in runtime_calls(fn)
                    if isinstance(s.target, PointeeRef)]
        assert len(pointees) == 1
        pos = fn.body.index(pointees[0])
        assert isinstance(fn.body[pos - 1], HeapAlloc)
        assert pointees[0].length == 32 and pointees[0].read_only is False

    def test_pointer_param_pointee_registers_at_the_prologue(self):
        p = var("p", 8, "write_sensitive_pointer_16", pointer=True)
        program = ProgramDesc(functions=(
            FunctionDesc(name="work", params=(p,), body=(Return(),),
                         sensitivity=Sensitivity.ALL),
            FunctionDesc(name="main", locals=(var("a", 8, pointer=True, pointee=16),),
                         body=(HeapAlloc("a", 16), Call("work", (ValueArg("a"),)),
                               Return())),))
        untrusted, _ = parse_lists("helper(0)\n", "")
        fn = instrument(program, untrusted, frozenset()).function("work")
        pointee = fn.body[1]
        assert isinstance(pointee, RuntimeCall)
        assert pointee.target == PointeeRef("p")
        assert pointee.length == 16 and pointee.read_only is True
        assert pointee.provenance == PROV_WRITE_SENSITIVE_POINTEE

    def test_annotation_size_suffix_wins_over_declared_pointee_size(self):
        body = (HeapAlloc("x", 64), Return())
        fn = self.fn_for("sensitive_pointer_48", "sensitive_finegrained",
                         body=body, pointer=True, pointee=64)
        pointees = [s for s in runtime_calls(fn) if isinstance(s.target, PointeeRef)]
        assert pointees[0].length == 48
        assert pointees[0].provenance == PROV_SENSITIVE_POINTEE

    def test_finegrained_pointer_slot_uses_the_pointer_provenance(self):
        body = (HeapAlloc("x", 16), Return())
        fn = self.fn_for("sensitive_pointer", "sensitive_finegrained",
                         body=body, pointer=True, pointee=16)
        slots = [s for s in calls_named(fn, "register_memory")
                 if s.target == VarRef("x")]
        assert slots[0].provenance == PROV_SENSITIVE_POINTER_VAR
        assert slots[0].read_only is False


class TestAddrOfDowngrade:
    def build_with_addr_of(self, annotation):
        v = var("x", 8, annotation)
        program = ProgramDesc(functions=(
            FunctionDesc(name="work", locals=(v,),
                         body=(Call("helper", (AddrOfArg("x"),)), Return()),
                         sensitivity=Sensitivity.ALL),))
        untrusted, _ = parse_lists("helper(1)\n", "")
        return instrument(program, untrusted, frozenset()).function("work")

    def test_hidden_var_whose_address_escapes_becomes_a_carve_out(self):
        fn = self.build_with_addr_of("sensitive")
        (exc,) = calls_named(fn, "register_memory_exception")
        assert exc.target == VarRef("x") and exc.read_only is False
        assert exc.provenance == PROV_ADDR_OF_ARGUMENT
        assert calls_named(fn, "register_memory") == []

    def test_already_exposed_var_is_not_registered_twice(self):
        fn = self.build_with_addr_of("not_sensitive")
        (exc,) = calls_named(fn, "register_memory_exception")
        assert exc.provenance == PROV_NOT_SENSITIVE_VAR

    def test_unannotated_var_is_carved_out_when_the_frame_hides_it(self):
        # Whole-frame mode hides unannotated locals too, so an escaping
        # address still needs a carve-out to stay readable.
        fn = self.build_with_addr_of(None)
        (exc,) = calls_named(fn, "register_memory_exception")
        assert exc.provenance == PROV_ADDR_OF_ARGUMENT

    def test_unannotated_var_needs_nothing_in_finegrained_mode(self):
        v = var("x", 8)
        program = ProgramDesc(functions=(
            FunctionDesc(name="work", locals=(v,),
                         body=(Call("helper", (AddrOfArg("x"),)), Return()),
                         sensitivity=Sensitivity.FINEGRAINED),))
        untrusted, _ = parse_lists("helper(1)\n", "")
        fn = instrument(program, untrusted, frozenset()).function("work")
        assert calls_named(fn, "register_memory_exception") == []
        assert calls_named(fn, "register_memory") == []

    def test_carve_outs_wait_for_the_first_untrusted_call(self):
        v = var("x", 8, "not_sensitive")
        program = ProgramDesc(functions=(
            FunctionDesc(name="work", locals=(v,),
                         body=(Assign("x", b"\x07"), Call("helper"), Return()),
                         sensitivity=Sensitivity.ALL),))
        untrusted, _ = parse_lists("helper(0)\n", "")
        fn = instrument(program, untrusted, frozenset()).function("work")
        names = [s.call if isinstance(s, RuntimeCall) else type(s).__name__
                 for s in fn.body]
        assert names == ["register_stack", "Assign", "register_memory_exception",
                         "start_protect", "Call", "stop_protect",
                         "unregister_stack", "Return"]


@pytest.mark.parametrize("mode", [Sensitivity.ALL, Sensitivity.FINEGRAINED])
@pytest.mark.parametrize("annotation", [
    None, "sensitive", "not_sensitive", "write_sensitive",
    "sensitive_pointer_16", "write_sensitive_pointer_16"])
def test_slot_exposed_matches_what_a_lib_reads_in_the_window(mode, annotation):
    pointer = annotation is not None and "pointer" in annotation
    v = var("v", 8, annotation, pointer=pointer, pointee=16 if pointer else None)
    define = HeapAlloc("v", 16, init=b"\x22" * 16) if pointer else Assign("v", b"\x11" * 8)
    program = ProgramDesc(functions=(
        FunctionDesc(name="work", locals=(v,), body=(define, Call("lib"), Return()),
                     sensitivity=mode),
        FunctionDesc(name="lib", body=(ReadProbe(VarTarget("work", "v", 0), 8), Return())),
        FunctionDesc(name="main", body=(Call("work"), Return())),
    ))
    instrumented = instrument(program, *parse_lists("lib(0)\n", ""))
    report = run(instrumented, load_image_map(image_map_for(program)), "main")
    (read,) = [o for o in report.observations if o.kind == "read"]
    assert slot_exposed(v, mode) == (read.nonzero > 0)


class TestRejections:
    def test_instrumenting_twice_is_refused(self):
        program = pwdgen_instrumented()
        untrusted, sensitive = parse_lists("lib_func(1)\n", "pwdgenerator\n")
        with pytest.raises(AnnotationError, match="already carries"):
            instrument(program, untrusted, sensitive)

    def test_unresolved_callee_is_named(self):
        program, u, s = build(body=(Call("mystery"), Return()))
        with pytest.raises(AnnotationError, match="mystery"):
            instrument(program, u, s)

    def test_arity_mismatch_against_the_untrusted_list(self):
        program, u, s = build(body=(Call("helper", (ValueArg("x"), ValueArg("x"))),
                                    Return()),
                              fn_locals=(var("x", 4),), lib_arity=1)
        with pytest.raises(AnnotationError, match="unresolved callee"):
            instrument(program, u, s)

    def test_arity_mismatch_against_a_described_function(self):
        extra = FunctionDesc(name="inner", params=(var("p", 4),), body=(Return(),))
        program, u, s = build(body=(Call("inner"), Return()), extra_fns=(extra,))
        with pytest.raises(AnnotationError, match="takes 1 arguments, got 0"):
            instrument(program, u, s)

    def test_pointer_annotation_on_a_plain_variable(self):
        program, u, s = build(fn_locals=(var("x", 8, "sensitive_pointer_16"),),
                              body=(Return(),))
        with pytest.raises(AnnotationError, match="pointer annotation on non-pointer"):
            instrument(program, u, s)

    def test_probe_outside_an_untrusted_function(self):
        program, u, s = build(body=(ReadProbe(VarTarget("work", "x"), 4), Return()),
                              fn_locals=(var("x", 4),))
        with pytest.raises(AnnotationError, match="probe outside"):
            instrument(program, u, s)

    def test_assign_longer_than_the_variable(self):
        with pytest.raises(ProgramFormatError) as exc:
            build(fn_locals=(var("x", 2),), body=(Assign("x", b"\x01\x02\x03"), Return()))
        assert str(exc.value) == ("body[0]: assign of 3 bytes to 'x' of function 'work', "
                                  "which holds 2 bytes")

    def test_annotated_pointer_local_never_assigned(self):
        program, u, s = build(
            fn_locals=(var("x", 8, "sensitive_pointer_16", pointer=True),),
            body=(Return(),))
        with pytest.raises(AnnotationError, match="never assigned"):
            instrument(program, u, s)

    def test_annotation_outside_a_sensitive_function(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="plain", locals=(var("x", 4, "sensitive"),),
                         body=(Return(),)),))
        untrusted, _ = parse_lists("helper(0)\n", "")
        with pytest.raises(AnnotationError, match="outside a sensitive function"):
            instrument(program, untrusted, frozenset())

    def test_function_on_both_lists(self):
        program, _, _ = build(body=(Return(),))
        untrusted, sensitive = parse_lists("work(0)\n", "work\n")
        with pytest.raises(AnnotationError, match="both"):
            instrument(program, untrusted, sensitive)

    def test_heap_alloc_into_a_non_pointer(self):
        program, u, s = build(fn_locals=(var("x", 8),),
                              body=(HeapAlloc("x", 16), Return()))
        with pytest.raises(AnnotationError, match="non-pointer"):
            instrument(program, u, s)

    def test_runtime_call_names_are_reserved(self):
        program, u, s = build(body=(Call("start_protect"), Return()))
        with pytest.raises(AnnotationError, match="reserved"):
            instrument(program, u, s)


class TestNamesDescribedTwice:
    """A function name or a variable name described twice is refused when
    the description is built, however it is built: `parse` refuses it the
    same way, with its location in front."""

    def test_a_function_name_described_twice_is_refused(self):
        helper = FunctionDesc(name="helper", body=(Return(),))
        with pytest.raises(ProgramFormatError) as exc:
            build(body=(Call("helper"), Return()), extra_fns=(helper, helper))
        assert str(exc.value) == "duplicate function name 'helper'"

    @pytest.mark.parametrize("params,locals_", [
        ((var("x", 4), var("x", 4)), ()),
        ((var("x", 4),), (var("x", 8),)),
        ((), (var("y", 4), var("x", 8), var("x", 2))),
        ((), (var("x", 8), var("x", 8, pointer=True))),
    ], ids=["two params", "a param and a local", "two locals", "a local and a pointer local"])
    def test_a_variable_declared_twice_is_refused(self, params, locals_):
        with pytest.raises(ProgramFormatError) as exc:
            FunctionDesc(name="work", params=params, locals=locals_)
        assert str(exc.value) == "duplicate variable 'x'"

    def test_replace_refuses_a_name_described_twice(self):
        program, _, _ = build(fn_locals=(var("x", 8),), body=(Return(),))
        work = program.function("work")
        with pytest.raises(ProgramFormatError, match="^duplicate variable 'x'$"):
            replace(work, params=(var("x", 4),))
        with pytest.raises(ProgramFormatError, match="^duplicate function name 'work'$"):
            replace(program, functions=program.functions + (work,))

    def test_each_argument_fills_its_own_parameter_slot(self):
        # The arguments go by position, each to its own slot.
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", locals=(var("a", 4), var("b", 4)),
                         body=(Assign("a", bytes.fromhex("11111111")),
                               Assign("b", bytes.fromhex("22222222")),
                               Call("f", (ValueArg("b"), ValueArg("a"))), Return())),
            FunctionDesc(name="f", params=(var("p", 4), var("q", 4)),
                         body=(ReadProbe(FrameTarget("f", 0), 8), Return()))))
        report = run_native(program, load_image_map(image_map_for(program)), "main")
        assert [o.preview for o in report.observations] == ["2222222211111111"]


_NAMES = st.sampled_from("abc")

# What a statement may give where it names a variable of its own function:
# declared names, an undeclared one, and values that are no string.
_STATEMENT_NAMES = st.sampled_from(["a", "b", "c", "d", ["a"], {}, 7, None])


def _statement(kind, name, n):
    """A statement of `kind` that names `name`, built in code and as the
    document describes it; `n` is an assign's length or a region's."""
    if kind == "assign":
        return Assign(name, bytes(n)), {"op": "assign", "var": name, "value": "00" * n}
    if kind == "heap_alloc":
        return HeapAlloc(name, 8), {"op": "heap_alloc", "var": name, "size": 8}
    if kind in ("var", "addr_of"):
        arg = ValueArg(name) if kind == "var" else AddrOfArg(name)
        return Call("f", (arg,)), {"op": "call", "callee": "f", "args": [{kind: name}]}
    if kind == "deref":
        return (ReadProbe(DerefTarget(name), 1),
                {"op": "read_probe", "target": {"kind": "deref", "param": name}, "len": 1})
    call, ref = (("register_memory", VarRef) if kind == "region" else
                 ("register_memory_exception", PointeeRef))
    return (RuntimeCall(call, target=ref(name), length=n),
            {"op": "runtime_call", "call": call,
             "target": {"var" if ref is VarRef else "pointee_of": name}, "len": n})


class TestAssignsAtConstruction:
    """Every variable a statement names in its own function is declared,
    and an assign fits in it; a description that breaks either rule is
    refused when it is built."""

    def test_an_assign_to_an_undeclared_variable_is_refused(self):
        with pytest.raises(ProgramFormatError) as exc:
            FunctionDesc(name="main", locals=(var("x", 4),),
                         body=(Assign("x", b"\x01"), Assign("nope", b"\x01"), Return()))
        assert str(exc.value) == "body[1]: assign to undeclared variable 'nope' of function 'main'"

    def test_inject_forged_refuses_an_unfit_assign(self):
        program = generate_scenario(5, 0, FuzzConfig()).program
        (param, *_) = program.function("lib0").params
        inject_forged(program, "lib0", Assign(param.name, bytes(param.size)), 0)
        with pytest.raises(ProgramFormatError) as exc:
            inject_forged(program, "lib0", Assign(param.name, bytes(param.size + 1)), 0)
        assert str(exc.value) == (f"body[0]: assign of {param.size + 1} bytes to "
                                  f"{param.name!r} of function 'lib0', which holds "
                                  f"{param.size} bytes")

    @given(st.lists(st.tuples(_NAMES, st.integers(1, 4)), max_size=3),
           st.lists(st.tuples(_NAMES, st.integers(1, 4)), max_size=3),
           st.lists(st.tuples(st.sampled_from(["assign", "heap_alloc", "var", "addr_of",
                                               "deref", "region", "pointee"]),
                              _STATEMENT_NAMES, st.integers(0, 5)), max_size=4))
    @example([("a", 2)], [("a", 2)], [])
    @example([("a", 2)], [], [("assign", "a", 2)])
    @example([("a", 2)], [], [("assign", "a", 3)])
    @example([], [("b", 1)], [("assign", "a", 0)])
    @example([("a", 8)], [], [("heap_alloc", "a", 0), ("heap_alloc", "b", 0)])
    @example([("a", 8)], [], [("var", "a", 0), ("addr_of", ["a"], 0)])
    @example([("a", 8)], [], [("deref", "d", 0), ("deref", 7, 0)])
    @example([("a", 8)], [], [("region", "a", 4), ("pointee", {}, 4)])
    def test_construction_refuses_exactly_duplicates_and_unresolved_names(self, params,
                                                                          locals_, statements):
        names = [name for name, _ in params + locals_]
        duplicated = len(set(names)) < len(names)
        sizes = dict(params + locals_)
        unfit = [i for i, (kind, name, n) in enumerate(statements)
                 if type(name) is not str or name not in sizes
                 or kind == "assign" and n > sizes[name]]
        # The format itself requires a str where an assign, a heap_alloc or
        # a deref names its variable, so parse refuses such a statement
        # before the function is built.
        format_refused = [i for i, (kind, name, _) in enumerate(statements)
                          if type(name) is not str and kind in ("assign", "heap_alloc", "deref")]
        built = [_statement(*stmt) for stmt in statements]
        doc = {"functions": [{"name": "main",
                              "params": [{"name": n, "size": k} for n, k in params],
                              "locals": [{"name": n, "size": k} for n, k in locals_],
                              "body": [raw for _, raw in built]}]}
        try:
            fn = FunctionDesc(name="main", params=tuple(var(n, k) for n, k in params),
                              locals=tuple(var(n, k) for n, k in locals_),
                              body=tuple(stmt for stmt, _ in built))
        except ProgramFormatError as exc:
            assert exc.at == ("" if duplicated else f"body[{unfit[0]}]")
            with pytest.raises(ProgramFormatError) as parsed:
                parse(json.dumps(doc))
            if format_refused:
                assert str(parsed.value).startswith(f"functions[0].body[{format_refused[0]}]: ")
            else:
                assert str(parsed.value) == (f"functions[0].{exc}" if exc.at
                                             else f"functions[0]: {exc}")
        else:
            assert not duplicated and not unfit
            program = ProgramDesc(functions=(fn,))
            assert parse(emit(program)) == program == parse(json.dumps(doc))


class TestListParsing:
    def test_bare_untrusted_name_matches_any_arity(self):
        untrusted, _ = parse_lists("helper\n", "")
        (proto,) = untrusted
        assert proto.arity is None
        assert proto.matches("helper", 0) and proto.matches("helper", 3)

    def test_arity_restricts_the_match(self):
        untrusted, _ = parse_lists("helper(2)\n", "")
        (proto,) = untrusted
        assert proto.matches("helper", 2) and not proto.matches("helper", 1)

    def test_comments_and_blanks_are_skipped(self):
        untrusted, sensitive = parse_lists(
            "# vendor code\nhelper(2)\n\n", "# ours\npwdgenerator\n")
        assert len(untrusted) == 1 and "pwdgenerator" in sensitive

    def test_malformed_entries_are_rejected_with_a_line_number(self):
        with pytest.raises(ListParseError, match="line 1"):
            parse_lists("helper(x)\n", "")

    def test_sensitive_entries_take_no_arity(self):
        with pytest.raises(ListParseError):
            parse_lists("", "pwdgenerator(1)\n")


# Strings mixing what JSON must escape (quote, backslash, control
# characters) with non-ASCII and astral characters.
_JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7fa\u00e9\u2028\U0001f600') | st.characters())
_JSON_SCALARS = (_JSON_TEXT | st.integers() | st.integers(min_value=2**64)
                 | st.integers(max_value=-2**64) | st.booleans() | st.none())


def _json_trees(depth: int):
    """Documents of dicts, lists and tuples nested at most `depth` deep."""
    if depth == 0:
        return _JSON_SCALARS
    children = _json_trees(depth - 1)
    return (_JSON_SCALARS | st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_JSON_TEXT, children, max_size=4))


class TestRoundTrip:
    @given(_json_trees(6))
    @example(["a", 1, [], {}, ()])
    @example({})
    def test_to_json_matches_json_dumps(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [1.5, {"x": [0.5]}, {1: "a"}])
    def test_to_json_refuses_what_no_document_holds(self, doc):
        with pytest.raises(TypeError):
            to_json(doc)

    def test_emit_parse_identity_on_the_walkthrough(self):
        program = pwdgen_instrumented()
        assert parse(emit(program)) == program

    def test_emit_parse_identity_on_generated_programs(self):
        for index in range(12):
            config = FuzzConfig(scenarios=12, adversarial=index % 2 == 1)
            scenario = generate_scenario(5, index, config)
            assert parse(emit(scenario.program)) == scenario.program

    def test_parse_shares_names_and_argument_free_statements(self):
        """A parsed document keeps one str per name, so every callee is its
        function's name object, and one instance per argument-free
        statement; image-map spans are slotted."""
        fns = (FunctionDesc("main", body=(Call("worker0"), Call("worker1"), Return())),
               *(FunctionDesc(f"worker{k}", locals=(var("x", 8),),
                              body=(Assign("x", bytes([k + 1])), Call("helper"), Return()))
                 for k in range(2)),
               FunctionDesc("helper", body=(Return(),)))
        untrusted, sensitive = parse_lists("helper(0)\n", "worker0\nworker1\n")
        program = parse(emit(instrument(ProgramDesc(functions=fns), untrusted, sensitive)))
        names = {fn.name: fn.name for fn in program.functions}
        body = [stmt for fn in program.functions for stmt in fn.body]
        calls = [stmt for stmt in body if isinstance(stmt, Call)]
        assert len(calls) == 4 and all(call.callee is names[call.callee] for call in calls)
        starts = [stmt for stmt in body if getattr(stmt, "call", None) == "start_protect"]
        returns = [stmt for stmt in body if isinstance(stmt, Return)]
        assert len(starts) == 2 and len(set(map(id, starts))) == 1
        assert len(returns) == 4 and len(set(map(id, returns))) == 1
        table = load_image_map(image_map_for(program))
        assert [hasattr(table.by_name(name), "__dict__") for name in names] == [False] * 4

    def test_descriptions_have_slots_and_programs_keep_a_dict(self):
        """Every statement, target, variable and function description is
        slotted. A program keeps its instance dict, where the executor
        stores the compiled plan, and still round-trips and hashes by value."""
        p, q, x, h = (var("p", 8, "sensitive_pointer_16", pointer=True),
                      var("q", 8, pointer=True, pointee=16), var("x", 8, "not_sensitive"),
                      var("h", 8, pointer=True))
        targets = (VarTarget("work", "x", 1), FrameTarget("work", 2), DerefTarget("q"),
                   HeapTarget(0, 4), AbsoluteTarget(0x7FFE_FFFF_F000))
        lib_body = (*(ReadProbe(target, 4) for target in targets),
                    WriteProbe(HeapTarget(0), b"\x07"), Return())
        regions = (PointeeRef("p"), VarRef("x"), AddressRef(0x5000_0000))
        work_body = (RuntimeCall("register_stack", all=True, provenance=PROV_SENSITIVE_FUNCTION),
                     *(RuntimeCall("register_memory", target=region, length=8, read_only=False)
                       for region in regions),
                     Assign("x", b"\x01\x02"), RuntimeCall("start_protect"),
                     Call("lib", (AddrOfArg("x"),)), RuntimeCall("stop_protect"),
                     RuntimeCall("unregister_stack"), Return())
        main_body = (HeapAlloc("h", 16, init=b"\x05"), Call("work", (ValueArg("h"),)), Return())
        functions = (FunctionDesc("lib", (q,), (), lib_body),
                     FunctionDesc("work", (p,), (x,), work_body, Sensitivity.ALL),
                     FunctionDesc("main", (), (h,), main_body))
        program = ProgramDesc(functions=functions, instrumented=True)

        described = (p, p.annotation, q, x, h, *targets, *lib_body, *regions, *work_body,
                     AddrOfArg("x"), *main_body, ValueArg("h"), *functions)
        assert len({type(obj) for obj in described}) == 20  # every class but ProgramDesc
        assert [type(obj).__name__ for obj in described if hasattr(obj, "__dict__")] == []

        run(program, load_image_map(image_map_for(program)), "main")
        assert "_plan" in vars(program)
        again = parse(emit(program))
        assert again == program and hash(again) == hash(program)
        assert "_plan" not in vars(again)
