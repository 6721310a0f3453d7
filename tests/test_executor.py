"""Scenario execution: leak accounting, integrity checking, fault
isolation, and equivalence against the page-dump oracle."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, strategies as st

from framevault.executor import (
    _COUNT_CHUNK,
    _COUNT_SMALL,
    Executor,
    IntegrityBreach,
    Leak,
    _nonzero,
    function_layout,
    hidden_nonzero,
    image_map_for,
    run,
    run_native,
    secret_bytes_observed,
)
from framevault.identity import load_image_map, synthesize_image_map
from framevault.instrument import instrument, parse_lists
from framevault.memory import HEAP_BASE, FRAME_METADATA_BYTES, STACK_BASE
from framevault.oracle import OracleVault
from framevault.program import (
    AbsoluteTarget,
    Annotation,
    AnnotationKind,
    Assign,
    Call,
    FrameTarget,
    FunctionDesc,
    HeapAlloc,
    HeapTarget,
    ProgramDesc,
    ReadProbe,
    Return,
    RuntimeCall,
    AddressRef,
    Sensitivity,
    ValueArg,
    VarDesc,
    VarRef,
    VarTarget,
    WriteProbe,
    emit,
    parse,
)
from framevault.runtime import ExceptionKind, VaultException, VaultState

from support import PWDGEN_MAP, pwdgen_instrumented, pwdgen_table, PASSWD


def exception_kinds(report):
    return [v.kind for v in report.violations if isinstance(v, VaultException)]


def build_spoof_program(forged_lib_body):
    """Sensitive victim with a 16-byte secret calling an untrusted lib
    whose body is supplied by the test."""
    program = ProgramDesc(functions=(
        FunctionDesc(name="victim", locals=(VarDesc("secret", 16),),
                     body=(Assign("secret", bytes(range(0xA0, 0xB0))),
                           Call("lib"), Return())),
        FunctionDesc(name="lib", body=(ReadProbe(FrameTarget("victim", 0), 16),
                                       Return())),
        FunctionDesc(name="main", body=(Call("victim"), Return())),
    ))
    untrusted, sensitive = parse_lists("lib(0)\n", "victim\n")
    program = instrument(program, untrusted, sensitive)
    lib = program.function("lib")
    program = dataclasses.replace(program, functions=tuple(
        dataclasses.replace(fn, body=tuple(forged_lib_body) + fn.body)
        if fn.name == "lib" else fn
        for fn in program.functions))
    table = load_image_map(image_map_for(program))
    return program, table


class TestWalkthrough:
    def test_protected_run_shows_no_secret_bytes(self):
        report = run(pwdgen_instrumented(), pwdgen_table(), "main")
        assert report.clean
        assert report.faults == []
        assert secret_bytes_observed(report) == 0
        reads = [o for o in report.observations if o.kind == "read"]
        assert len(reads) == 1 and reads[0].length == 256 and reads[0].nonzero == 0

    def test_carve_out_write_lands_and_survives_the_close(self):
        report = run(pwdgen_instrumented(), pwdgen_table(), "main")
        # No IntegrityBreach means the carve-out byte comparison accepted
        # the callee's write; the write itself is visible as an observation.
        writes = [o for o in report.observations if o.kind == "write"]
        assert len(writes) == 1
        assert writes[0].preview == "1a000000"
        assert not any(isinstance(v, IntegrityBreach) for v in report.violations)

    def test_native_run_exposes_the_whole_password(self):
        report = run_native(pwdgen_instrumented(), pwdgen_table(), "main")
        assert secret_bytes_observed(report) == len(PASSWD) == 256
        assert report.mode == "native"
        assert report.stats.total == 0

    def test_stats_match_the_inserted_calls(self):
        report = run(pwdgen_instrumented(), pwdgen_table(), "main")
        s = report.stats
        assert (s.register_stack, s.register_memory, s.register_memory_exception,
                s.unregister_stack, s.start_protect, s.stop_protect) == (1, 1, 1, 1, 1, 1)
        assert s.total == 6

    def test_provenance_counts_cover_every_inserted_call(self):
        report = run(pwdgen_instrumented(), pwdgen_table(), "main")
        assert sum(report.provenance_counts.values()) == 6
        assert all("/" in key and not key.endswith("forged")
                   for key in report.provenance_counts)


class TestSpoofing:
    FORGED_REGISTER = RuntimeCall(call="register_memory",
                                  target=AddressRef(HEAP_BASE), length=16,
                                  read_only=False)

    def test_spoofed_register_memory_is_one_identity_mismatch(self):
        program, table = build_spoof_program([self.FORGED_REGISTER])
        report = run(program, table, "main")
        assert exception_kinds(report) == [ExceptionKind.IDENTITY_MISMATCH]
        assert not any(isinstance(v, (Leak, IntegrityBreach)) for v in report.violations)
        assert secret_bytes_observed(report) == 0

    def test_forged_calls_are_counted_under_forged(self):
        program, table = build_spoof_program([self.FORGED_REGISTER])
        report = run(program, table, "main")
        assert report.provenance_counts.get("register_memory/forged") == 1

    def test_strict_mode_halts_at_the_first_exception(self):
        program, table = build_spoof_program([self.FORGED_REGISTER])
        executor = Executor(program, table, strict=True)
        report = executor.run("main")
        assert report.halted
        # The probe behind the forged call never executes.
        assert report.observations == []

    @pytest.mark.parametrize("call", ["stop_protect", "unregister_stack"])
    def test_strict_mode_halts_at_any_refused_call(self, call):
        program, table = build_spoof_program([RuntimeCall(call=call)])
        report = Executor(program, table, strict=True).run("main")
        assert report.halted and report.observations == []
        assert [(v.kind, v.syscall) for v in report.violations] == [
            (ExceptionKind.IDENTITY_MISMATCH, call)]

    def test_forged_stop_protect_cannot_close_the_window(self):
        forged_stop = RuntimeCall(call="stop_protect")
        program, table = build_spoof_program([forged_stop])
        report = run(program, table, "main")
        assert exception_kinds(report) == [ExceptionKind.IDENTITY_MISMATCH]
        # The window stayed up, so the probe that follows still reads zeros.
        assert secret_bytes_observed(report) == 0

    @pytest.mark.parametrize("vault_factory", [VaultState, OracleVault])
    def test_an_object_registered_under_a_forged_window_is_hidden_from_the_next_callee(
            self, vault_factory):
        # lib1 leaves a forged window open over victim's frame. The heap
        # block victim allocates afterwards is registered above that
        # window's watermark, so the window victim opens for lib2 hides it.
        pointer = VarDesc("id", 8, pointer=True, pointee_size=64,
                          annotation=Annotation(AnnotationKind.SENSITIVE_POINTER, 64))
        program = instrument(ProgramDesc(functions=(
            FunctionDesc(name="victim", locals=(pointer,),
                         body=(Call("lib1"), HeapAlloc("id", 64, init=bytes(range(1, 65))),
                               Call("lib2"), Return())),
            FunctionDesc(name="lib1", body=(Return(),)),
            FunctionDesc(name="lib2", body=(ReadProbe(HeapTarget(0), 64), Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        )), *parse_lists("lib1(0)\nlib2(0)\n", "victim\n"))
        program = dataclasses.replace(program, functions=tuple(
            dataclasses.replace(fn, body=(RuntimeCall(call="start_protect"),) + fn.body)
            if fn.name == "lib1" else fn
            for fn in program.functions))
        report = run(program, load_image_map(image_map_for(program)), "main",
                     vault_factory=vault_factory)
        [read] = [o for o in report.observations if o.kind == "read"]
        assert read.function == "lib2" and read.nonzero == 0
        assert report.stats.register_memory == 1
        assert (ExceptionKind.INDEX_MISMATCH, "register_memory") not in {
            (v.kind, v.syscall) for v in report.violations if isinstance(v, VaultException)}


class TestRegionLength:
    def test_zero_length_carve_out_of_a_variable_covers_nothing(self):
        # "len": 0 names an empty region, not the whole variable.
        program = ProgramDesc(functions=(
            FunctionDesc(name="victim", locals=(VarDesc("key", 16),), body=(
                RuntimeCall(call="register_stack", all=True),
                Assign("key", bytes(range(0xA0, 0xB0))),
                RuntimeCall(call="register_memory_exception", target=VarRef("key"),
                            length=0, read_only=False),
                RuntimeCall(call="start_protect"),
                Call("lib"),
                RuntimeCall(call="stop_protect"),
                RuntimeCall(call="unregister_stack"),
                Return())),
            FunctionDesc(name="lib", body=(ReadProbe(VarTarget("victim", "key"), 16),
                                           Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        ), instrumented=True)
        report = run(program, load_image_map(image_map_for(program)), "main")
        assert report.clean and report.faults == []
        [read] = [o for o in report.observations if o.kind == "read"]
        assert (read.length, read.nonzero) == (16, 0)


class TestFaultIsolation:
    def test_probe_outside_mapped_memory_is_a_fault_not_a_crash(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="lib", body=(ReadProbe(AbsoluteTarget(0x50), 8),
                                           Return())),
            FunctionDesc(name="main", body=(Call("lib"), Return())),
        ))
        untrusted, sensitive = parse_lists("lib(0)\n", "")
        program = instrument(program, untrusted, sensitive)
        table = load_image_map(image_map_for(program))
        report = run(program, table, "main")
        assert len(report.faults) == 1 and "0x50" in report.faults[0]
        assert report.clean

    def test_unknown_callee_is_a_fault(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", body=(Call("ghost"), Return())),),
            instrumented=True)
        table = load_image_map(image_map_for(program))
        report = run(program, table, "main")
        assert any("ghost" in f for f in report.faults)

    def test_runaway_recursion_hits_the_depth_limit(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", body=(Call("main"), Return())),),
            instrumented=True)
        table = load_image_map(image_map_for(program))
        report = run(program, table, "main")
        assert any("depth" in f for f in report.faults)

    def test_missing_entry_is_rejected(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", body=(Return(),)),), instrumented=True)
        table = load_image_map(image_map_for(program))
        with pytest.raises(ValueError, match="not described"):
            run(program, table, "absent")

    def test_uncovered_image_map_is_rejected(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", body=(Return(),)),
            FunctionDesc(name="other", body=(Return(),))), instrumented=True)
        solo = ProgramDesc(functions=program.functions[:1], instrumented=True)
        table = load_image_map(image_map_for(solo))
        with pytest.raises(ValueError, match="other"):
            run(program, table, "main")


class TestRepeatedWindows:
    def test_ten_untrusted_calls_reuse_one_registration(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="victim", locals=(VarDesc("secret", 8),),
                         body=(Assign("secret", b"\xee" * 8),)
                              + tuple(Call("lib") for _ in range(10))
                              + (Return(),)),
            FunctionDesc(name="lib", body=(ReadProbe(FrameTarget("victim", 0), 8),
                                           Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        ))
        untrusted, sensitive = parse_lists("lib(0)\n", "victim\n")
        program = instrument(program, untrusted, sensitive)
        table = load_image_map(image_map_for(program))
        report = run(program, table, "main")
        assert report.clean
        assert secret_bytes_observed(report) == 0
        s = report.stats
        assert (s.start_protect, s.stop_protect) == (10, 10)
        assert (s.register_stack, s.unregister_stack) == (1, 1)
        assert s.total == 22


class _NoClear:
    """Process memory whose clear_region does nothing."""

    def __init__(self, memory):
        self._memory = memory

    def clear_region(self, addr, length):
        pass

    def __getattr__(self, name):
        return getattr(self._memory, name)


class SavesWithoutClearing(VaultState):
    """A broken runtime: windows save and restore but never clear, so every
    hidden byte stays readable and each untrusted read of one is a Leak."""

    def _open_window(self, memory, start, end):
        super()._open_window(_NoClear(memory), start, end)


def leaky_run(functions, untrusted_doc, sensitive_doc=""):
    """Instrument and run under SavesWithoutClearing; return the report
    and its Leak violations."""
    program = instrument(ProgramDesc(functions=functions),
                         *parse_lists(untrusted_doc, sensitive_doc))
    table = load_image_map(image_map_for(program))
    report = run(program, table, "main", vault_factory=SavesWithoutClearing)
    return report, [v for v in report.violations if isinstance(v, Leak)]


class TestLeakDetection:
    def test_unprotected_secret_is_reported_per_window(self):
        # victim is sensitive but the caller of the lib is a plain trusted
        # function whose frame holds the secret: the window protects
        # nothing, the probe sees the bytes, and that is a native-style
        # exposure, not a Leak (nothing protected was revealed).
        program = ProgramDesc(functions=(
            FunctionDesc(name="holder", locals=(VarDesc("data", 4),),
                         body=(Assign("data", b"\x01\x02\x03\x04"),
                               Call("lib"), Return())),
            FunctionDesc(name="lib", body=(ReadProbe(VarTarget("holder", "data"), 4),
                                           Return())),
            FunctionDesc(name="main", body=(Call("holder"), Return())),
        ))
        untrusted, sensitive = parse_lists("lib(0)\n", "")
        program = instrument(program, untrusted, sensitive)
        table = load_image_map(image_map_for(program))
        report = run(program, table, "main")
        assert secret_bytes_observed(report) == 4
        assert not any(isinstance(v, Leak) for v in report.violations)

    def test_whole_frame_secret_minus_the_carve_out(self):
        secret = bytes(i % 251 for i in range(256 * 1024))  # 1045 zeros
        frame = len(secret) + 8 + FRAME_METADATA_BYTES
        report, leaks = leaky_run((
            FunctionDesc(name="victim",
                         locals=(VarDesc("secret", len(secret)),
                                 VarDesc("age", 8, annotation=Annotation(
                                     AnnotationKind.NOT_SENSITIVE))),
                         body=(Assign("secret", secret), Assign("age", b"\x07" * 8),
                               Call("lib"), Return())),
            FunctionDesc(name="lib", body=(ReadProbe(FrameTarget("victim", 0), frame),
                                           Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        ), "lib(0)\n", "victim\n")
        [read] = [o for o in report.observations if o.kind == "read"]
        assert read.nonzero == 261_099 + 8
        assert [(l.window, l.length, l.secret_bytes) for l in leaks] == [(1, frame, 261_099)]

    def test_finegrained_sensitive_buffer(self):
        report, leaks = leaky_run((
            FunctionDesc(name="victim", sensitivity=Sensitivity.FINEGRAINED,
                         locals=(VarDesc("key", 64, annotation=Annotation(
                                     AnnotationKind.SENSITIVE)),
                                 VarDesc("note", 32)),
                         body=(Assign("key", bytes(range(64))), Assign("note", b"\xff" * 32),
                               Call("lib"), Return())),
            FunctionDesc(name="lib", body=(ReadProbe(FrameTarget("victim", 0), 96),
                                           Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        ), "lib(0)\n")
        [read] = [o for o in report.observations if o.kind == "read"]
        assert read.nonzero == 63 + 32
        assert [l.secret_bytes for l in leaks] == [63]

    def test_bytes_hidden_by_two_nested_windows_count_once(self):
        # victim's window hides the heap block it points to; helper gets
        # the same pointer through lib0 and its window hides the block too.
        pointer = VarDesc("id", 8, pointer=True, pointee_size=64,
                          annotation=Annotation(AnnotationKind.SENSITIVE_POINTER, 64))
        report, leaks = leaky_run((
            FunctionDesc(name="victim", locals=(pointer,),
                         body=(HeapAlloc("id", 64, init=bytes(range(64))),
                               Call("lib0", (ValueArg("id"),)), Return())),
            FunctionDesc(name="lib0", params=(VarDesc("p0", 8),),
                         body=(Call("helper", (ValueArg("p0"),)), Return())),
            FunctionDesc(name="helper", params=(pointer,),
                         body=(Call("lib1"), Return())),
            FunctionDesc(name="lib1", body=(ReadProbe(HeapTarget(0), 64), Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        ), "lib0(1)\nlib1(0)\n", "victim\nhelper\n")
        assert report.stats.start_protect == 2
        assert [(l.window, l.function, l.secret_bytes) for l in leaks] == [(2, "lib1", 63)]

    @staticmethod
    def nested_chain(lib3_reads):
        """main -> w1 -> lib1 -> w2 -> lib2 -> w3 -> lib3: three nested
        windows. w1 hides its whole frame but a writable and a read-only
        carve-out, w2 (fine-grained) only its `key`, w3 its whole frame.
        lib3 runs `lib3_reads`; lib2 and lib1 each read their caller's
        frame after the inner windows have opened and closed above theirs."""
        w1_frame, w2_frame, w3_frame = (n + FRAME_METADATA_BYTES for n in (40, 24, 16))
        return leaky_run((
            FunctionDesc(name="w1",
                         locals=(VarDesc("secret", 24),
                                 VarDesc("age", 8, annotation=Annotation(
                                     AnnotationKind.NOT_SENSITIVE)),
                                 VarDesc("slot", 8, annotation=Annotation(
                                     AnnotationKind.WRITE_SENSITIVE))),
                         body=(Assign("secret", bytes(range(24))), Assign("age", b"\x07" * 8),
                               Assign("slot", b"\x09" * 8), Call("lib1"), Return())),
            FunctionDesc(name="lib1", body=(Call("w2"), ReadProbe(FrameTarget("w1", 0), w1_frame),
                                            Return())),
            FunctionDesc(name="w2", sensitivity=Sensitivity.FINEGRAINED,
                         locals=(VarDesc("key", 16, annotation=Annotation(
                                     AnnotationKind.SENSITIVE)),
                                 VarDesc("note", 8)),
                         body=(Assign("key", b"\x00\x5a" * 8), Assign("note", b"\xff" * 8),
                               Call("lib2"), Return())),
            FunctionDesc(name="lib2", body=(Call("w3"), ReadProbe(FrameTarget("w2", 0), w2_frame),
                                            Return())),
            FunctionDesc(name="w3", locals=(VarDesc("secret", 16),),
                         body=(Assign("secret", b"\x33" * 16), Call("lib3"), Return())),
            FunctionDesc(name="lib3", body=tuple(
                ReadProbe(FrameTarget(fn, 0), size)
                for fn, size in (("w1", w1_frame), ("w2", w2_frame), ("w3", w3_frame))
                if fn in lib3_reads) + (Return(),)),
            FunctionDesc(name="main", body=(Call("w1"), Return())),
        ), "lib1(0)\nlib2(0)\nlib3(0)\n", "w1\nw3\n")

    def test_each_window_hides_the_registrations_it_opened_over(self):
        # Frame tops; each lib's 16-byte frame lies between two workers.
        w1, w2, w3 = 0x7FFEFFFFFFB8, 0x7FFEFFFFFF80, 0x7FFEFFFFFF50
        report, leaks = self.nested_chain(("w1", "w2", "w3"))
        assert report.stats.start_protect == 3
        assert [(l.window, l.function, l.address, l.length, l.secret_bytes) for l in leaks] == [
            (3, "lib3", w1, 56, 23), (3, "lib3", w2, 40, 8), (3, "lib3", w3, 32, 16),
            (2, "lib2", w2, 40, 8), (1, "lib1", w1, 56, 23)]
        # With lib3 reading nothing, lib2's read is the first leak scan:
        # window 3 has opened and closed above window 2 by then.
        _, leaks = self.nested_chain(())
        assert [(l.window, l.function, l.address, l.length, l.secret_bytes) for l in leaks] == [
            (2, "lib2", w2, 40, 8), (1, "lib1", w1, 56, 23)]

    def test_a_registration_made_inside_a_window_is_not_hidden_by_it(self):
        # lib registers its own frame whole after victim's window opened,
        # then reads it: the window hides only what was registered at open.
        program = instrument(ProgramDesc(functions=(
            FunctionDesc(name="victim", locals=(VarDesc("secret", 16),),
                         body=(Assign("secret", b"\xaa" * 16), Call("lib"), Return())),
            FunctionDesc(name="lib", locals=(VarDesc("own", 8),), body=(Return(),)),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        )), *parse_lists("lib(0)\n", "victim\n"))
        lib_body = (Assign("own", b"\x11" * 8), RuntimeCall(call="register_stack", all=True),
                    ReadProbe(FrameTarget("lib", 0), 8), Return())
        program = dataclasses.replace(program, functions=tuple(
            dataclasses.replace(fn, body=lib_body) if fn.name == "lib" else fn
            for fn in program.functions))
        report = run(program, load_image_map(image_map_for(program)), "main",
                     vault_factory=SavesWithoutClearing)
        [read] = [o for o in report.observations if o.kind == "read"]
        assert (read.window, read.nonzero) == (1, 8)
        assert not any(isinstance(v, Leak) for v in report.violations)

    def test_read_straddling_a_hidden_interval_counts_only_its_nonzero_bytes(self):
        report, leaks = leaky_run((
            FunctionDesc(name="victim", sensitivity=Sensitivity.FINEGRAINED,
                         locals=(VarDesc("pre", 8),
                                 VarDesc("key", 16, annotation=Annotation(
                                     AnnotationKind.SENSITIVE)),
                                 VarDesc("post", 8)),
                         body=(Assign("pre", b"\x01" * 8), Assign("key", b"\x00\x5a" * 8),
                               Assign("post", b"\x02" * 8), Call("lib"), Return())),
            FunctionDesc(name="lib", body=(ReadProbe(VarTarget("victim", "pre", 4), 24),
                                           Return())),
            FunctionDesc(name="main", body=(Call("victim"), Return())),
        ), "lib(0)\n")
        [read] = [o for o in report.observations if o.kind == "read"]
        assert read.nonzero == 4 + 8 + 4
        assert [l.secret_bytes for l in leaks] == [8]


    @given(windows=st.lists(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 80)),
                                     max_size=5), min_size=1, max_size=4),
           addr=st.integers(0, 300),
           data=st.lists(st.integers(0, 3), max_size=120).map(bytes))
    def test_interval_count_matches_a_per_byte_reference(self, windows, addr, data):
        # Reference: one address set per open window, and a byte counts when
        # it is non-zero and any window's set holds its address.
        sets = [{a for base, length in hidden for a in range(base, base + length)}
                for hidden in windows]
        expected = sum(1 for i, b in enumerate(data)
                       if b and any(addr + i in s for s in sets))
        ranges = [(base, base + length) for hidden in windows for base, length in hidden]
        assert hidden_nonzero(data, addr, ranges) == expected


# Run lengths at and around the small-read threshold and the chunk size,
# and short ones, so runs end on, just before and just after a chunk end.
_EDGES = sorted({n + d for n in (_COUNT_SMALL, _COUNT_CHUNK, 2 * _COUNT_CHUNK)
                 for d in (-1, 0, 1)})
_RUN_LENGTHS = st.one_of(st.integers(0, 40), st.sampled_from(_EDGES),
                         st.integers(0, 2 * _COUNT_CHUNK + 1))


@st.composite
def runs(draw, max_runs=6):
    """Bytes made of runs of zeros, of one non-zero byte and of short mixed
    bytes, each run of a length from _RUN_LENGTHS."""
    out = bytearray()
    for _ in range(draw(st.integers(0, max_runs))):
        kind = draw(st.sampled_from(("zero", "nonzero", "mixed")))
        if kind == "mixed":
            out += draw(st.binary(max_size=64))
        else:
            fill = draw(st.integers(1, 255)) if kind == "nonzero" else 0
            out += bytes([fill]) * draw(_RUN_LENGTHS)
    return bytes(out)


class TestByteCounting:
    """The non-zero counter takes memcmp and memchr shortcuts over long
    spans; it must count exactly what `bytes.count` would. The examples
    put a zero first, so the chunks that follow are all counted, and end
    a chunk one byte into a run."""

    @given(data=runs())
    @example(data=bytes(1) + b"\x01" * (2 * _COUNT_CHUNK + 1))
    @example(data=b"\x01" + bytes(_COUNT_CHUNK - 1) + b"\x01" * _COUNT_SMALL)
    def test_the_counter_equals_count(self, data):
        assert _nonzero(data) == len(data) - data.count(0)

    @given(data=runs(), start=st.integers(0, 3 * _COUNT_CHUNK),
           length=st.one_of(st.integers(0, 3 * _COUNT_CHUNK), st.sampled_from(_EDGES)))
    @example(data=b"\x01" * 3 * _COUNT_CHUNK, start=0, length=2 * _COUNT_CHUNK)
    @example(data=bytes(1) + b"\x01" * 3 * _COUNT_CHUNK, start=0, length=_COUNT_CHUNK + 9)
    def test_the_counter_equals_count_between_start_and_end(self, data, start, length):
        start = min(start, len(data))
        end = min(start + length, len(data))
        assert _nonzero(data, start, end) == end - start - data.count(0, start, end)

    def test_probes_longer_than_the_small_threshold_count_their_nonzero_bytes(self):
        value = (bytes(_COUNT_SMALL) + b"\x07" * _COUNT_CHUNK) * 2
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", locals=(VarDesc("buf", len(value) + 5),),
                         body=(Call("lib"), Return())),
            FunctionDesc(name="lib", body=(WriteProbe(FrameTarget("main", 0), value),
                                           ReadProbe(FrameTarget("main", 0), len(value) + 5),
                                           Return()))))
        report = run_native(program, load_image_map(image_map_for(program)), "main")
        assert [(o.kind, o.length, o.nonzero) for o in report.observations] == [
            ("write", len(value), 2 * _COUNT_CHUNK), ("read", len(value) + 5, 2 * _COUNT_CHUNK)]

    @given(data=runs(max_runs=4), addr=st.integers(0, 2 * _COUNT_CHUNK),
           ranges=st.lists(st.tuples(st.integers(-_COUNT_CHUNK, 3 * _COUNT_CHUNK),
                                     st.one_of(st.integers(-8, 3 * _COUNT_CHUNK),
                                               st.sampled_from(_EDGES))), max_size=4))
    @example(data=bytes(1) + b"\x01" * 3 * _COUNT_CHUNK, addr=100,
             ranges=[(0, _COUNT_CHUNK + 9), (5, 2 * _COUNT_CHUNK), (-50, 0), (9, -4)])
    def test_hidden_nonzero_matches_a_per_byte_reference(self, data, addr, ranges):
        # (offset from addr, length) pairs: ranges that overlap, are empty
        # or inverted, or reach outside the read.
        ranges = [(addr + off, addr + off + length) for off, length in ranges]
        mask = bytearray(len(data))
        for lo, hi in ranges:
            lo, hi = max(lo - addr, 0), min(hi - addr, len(data))
            if lo < hi:
                mask[lo:hi] = b"\x01" * (hi - lo)
        expected = sum(1 for hidden, byte in zip(mask, data) if hidden and byte)
        assert hidden_nonzero(data, addr, ranges) == expected


class SpoilsTheLastByte(VaultState):
    """A broken runtime that restores each window, then sets the byte just
    below `main`'s frame: the last byte of its callee's frame."""

    def stop_protect(self, memory, pc):
        refused = super().stop_protect(memory, pc)
        memory.write_bytes(STACK_BASE - FRAME_METADATA_BYTES - 1, b"\x01")
        return refused


def test_a_breach_at_the_last_byte_of_a_512_kib_frame_names_that_byte():
    frame = 512 * 1024
    program = instrument(ProgramDesc(functions=(
        FunctionDesc(name="holder", sensitivity=Sensitivity.ALL,
                     locals=(VarDesc("secret", frame - FRAME_METADATA_BYTES),),
                     body=(Assign("secret", b"\x5a" * 64), Call("lib"), Return())),
        FunctionDesc(name="lib", body=(Return(),)),
        FunctionDesc(name="main", body=(Call("holder"), Return())),
    )), *parse_lists("lib(0)\n", "holder\n"))
    report = run(program, load_image_map(image_map_for(program)), "main",
                 vault_factory=SpoilsTheLastByte)
    assert [(type(v), v.address, v.length, v.detail) for v in report.violations] == [
        (IntegrityBreach, STACK_BASE - FRAME_METADATA_BYTES - frame, frame,
         f"first mismatch at byte {frame - 1}")]


class TestWriteSensitive:
    def test_callee_write_is_reverted_in_both_modes(self):
        # `buf` is write_sensitive: untrusted code may read it but not
        # change it, so `peek`, in the next window, must see `f`'s value.
        value = bytes(range(0x41, 0x51))
        for sensitivity in (Sensitivity.FINEGRAINED, Sensitivity.ALL):
            program = instrument(ProgramDesc(functions=(
                FunctionDesc(name="main", body=(Call("f"), Return())),
                FunctionDesc(name="f", sensitivity=sensitivity, locals=(VarDesc(
                    "buf", 16, annotation=Annotation(AnnotationKind.WRITE_SENSITIVE)),),
                    body=(Assign("buf", value), Call("lib"), Call("peek"), Return())),
                FunctionDesc(name="lib", body=(
                    ReadProbe(VarTarget("f", "buf"), 16),
                    WriteProbe(VarTarget("f", "buf"), b"\xee" * 16), Return())),
                FunctionDesc(name="peek", body=(ReadProbe(VarTarget("f", "buf"), 16), Return())),
            )), *parse_lists("lib\npeek\n", ""))
            report = run(program, load_image_map(image_map_for(program)), "main")
            seen = [(o.function, o.kind, o.preview) for o in report.observations]
            assert seen == [("lib", "read", value.hex()), ("lib", "write", "ee" * 16),
                            ("peek", "read", value.hex())], sensitivity


class TestOracleEquivalence:
    def test_oracle_agrees_on_the_walkthrough(self):
        real = run(pwdgen_instrumented(), pwdgen_table(), "main")
        shadow = Executor(pwdgen_instrumented(), pwdgen_table(),
                          vault_factory=OracleVault).run("main")
        assert real.final_digest == shadow.final_digest
        assert exception_kinds(real) == exception_kinds(shadow)

    def test_oracle_agrees_on_the_spoof_scenario(self):
        program, table = build_spoof_program([TestSpoofing.FORGED_REGISTER])
        real = run(program, table, "main")
        shadow = Executor(program, table, vault_factory=OracleVault).run("main")
        assert real.final_digest == shadow.final_digest
        assert exception_kinds(real) == exception_kinds(shadow)


class TestLayout:
    def test_params_then_locals_from_the_frame_top(self):
        fn = FunctionDesc(name="f",
                          params=(VarDesc("a", 4), VarDesc("b", 8)),
                          locals=(VarDesc("c", 2),))
        offsets, size = function_layout(fn)
        assert offsets == {"a": 0, "b": 4, "c": 12}
        assert size == 14 + FRAME_METADATA_BYTES

    def test_empty_function_is_just_the_metadata_pad(self):
        offsets, size = function_layout(FunctionDesc(name="f"))
        assert offsets == {} and size == FRAME_METADATA_BYTES

    def test_trivial_program_runs_clean(self):
        program = ProgramDesc(functions=(
            FunctionDesc(name="main", body=(Return(),)),), instrumented=True)
        table = load_image_map(image_map_for(program))
        report = run(program, table, "main")
        assert report.clean and report.stats.total == 0
        assert report.observations == [] and report.faults == []


class TestCompiledPrograms:
    """A program is compiled once per identity table and the compile is
    kept on the program; no run may see another run's state through it."""

    RUNS = (
        lambda program, table: run_native(program, table, "main"),
        lambda program, table: run(program, table, "main"),
        lambda program, table: Executor(program, table, vault_factory=OracleVault).run("main"),
        lambda program, table: run(program, table, "main"),
    )

    @staticmethod
    def spoof_files():
        program, _ = build_spoof_program([TestSpoofing.FORGED_REGISTER])
        return emit(program), image_map_for(program)

    @pytest.mark.parametrize("files", [
        lambda: (emit(pwdgen_instrumented()), PWDGEN_MAP),
        spoof_files,
    ], ids=["pwdgen", "spoof"])
    def test_four_runs_of_one_program_match_runs_of_fresh_programs(self, files):
        text, image_map = files()
        program, table = parse(text), load_image_map(image_map)
        again = [each(program, table) for each in self.RUNS]
        fresh = [each(parse(text), load_image_map(image_map)) for each in self.RUNS]
        assert again == fresh
        assert again[0].mode == "native" and again[0] != again[1]

    def test_each_image_map_gives_the_runtime_its_own_pcs(self):
        program, forward = build_spoof_program([TestSpoofing.FORGED_REGISTER])
        backward = load_image_map(synthesize_image_map(
            [(fn.name, 0x300) for fn in reversed(program.functions)]))
        assert forward.by_name("lib").lo != backward.by_name("lib").lo
        for table in (forward, backward, forward, backward):
            report = run(program, table, "main")
            # The forged call is lib's first statement, so its pc is the span's first.
            assert [v.caller_pc for v in report.violations
                    if isinstance(v, VaultException)] == [table.by_name("lib").lo]

    def test_the_compile_stays_out_of_equality_hashing_and_emit(self):
        text = emit(pwdgen_instrumented())
        program = parse(text)
        run(program, pwdgen_table(), "main")
        assert program == parse(text) and hash(program) == hash(parse(text))
        assert emit(program) == text
