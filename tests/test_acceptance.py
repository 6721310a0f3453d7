"""Acceptance gate, one test per shipping criterion.

Every expected number here is computed by hand from the declared layouts
and call sequences before being asserted; nothing is read back from the
implementation. The conftest hook prints one PASS/FAIL line per
criterion at the end of the run.
"""

from __future__ import annotations

import time

import pytest

from framevault.cli import main
from framevault.executor import (Executor, Leak, function_layout, image_map_for,
                                 run, secret_bytes_observed)
from framevault.fuzzer import FuzzConfig, fuzz, generate_scenario
from framevault.identity import load_image_map
from framevault.instrument import instrument, parse_lists
from framevault.memory import ProcessMemory
from framevault.oracle import OracleVault
from framevault.program import (
    AddrOfArg,
    Annotation,
    AnnotationKind,
    Assign,
    Call,
    DerefTarget,
    FunctionDesc,
    HeapAlloc,
    PointeeRef,
    ProgramDesc,
    ReadProbe,
    Return,
    RuntimeCall,
    Sensitivity,
    VarDesc,
    VarRef,
    VarTarget,
    WriteProbe,
    parse,
)
from framevault.runtime import ExceptionKind, VaultState

from support import DEMO_DIR

CAMPAIGN_SEED = 0
CAMPAIGN_SIZE = 1000
CAMPAIGN_CONFIG = FuzzConfig(scenarios=CAMPAIGN_SIZE, max_chain=3)


@pytest.fixture(scope="module")
def campaign():
    return fuzz(CAMPAIGN_SEED, CAMPAIGN_CONFIG)


@pytest.fixture(scope="module")
def scenario_sample():
    """Every 40th scenario of the campaign corpus, regenerated for direct
    inspection of runtime state the campaign API does not expose."""
    return [generate_scenario(CAMPAIGN_SEED, index, CAMPAIGN_CONFIG)
            for index in range(0, CAMPAIGN_SIZE, 40)]


def execute(scenario, vault_factory=VaultState):
    table = load_image_map(scenario.image_map)
    executor = Executor(scenario.program, table, vault_factory=vault_factory)
    report = executor.run(scenario.entry)
    return executor, report


# ----------------------------------------------------------------------
# 1. golden instrumentation


def test_criterion_1_golden_instrumentation(tmp_path, capsys):
    out = tmp_path / "instrumented.json"
    started = time.monotonic()
    code = main(["instrument",
                 "--program", str(DEMO_DIR / "program.json"),
                 "--untrusted-list", str(DEMO_DIR / "untrusted.list"),
                 "--sensitive-list", str(DEMO_DIR / "sensitive.list"),
                 "-o", str(out)])
    elapsed = time.monotonic() - started
    capsys.readouterr()
    assert code == 0
    assert elapsed < 1.0

    fn = parse(out.read_text()).function("pwdgenerator")
    sequence = [(s.call, s.all, s.target, s.read_only) if isinstance(s, RuntimeCall)
                else ("call", s.callee, None, None) if isinstance(s, Call)
                else None
                for s in fn.body]
    sequence = [s for s in sequence if s is not None]
    assert sequence == [
        ("register_stack", True, None, None),
        ("register_memory", None, PointeeRef("id"), False),
        ("register_memory_exception", None, VarRef("age"), False),
        ("start_protect", None, None, None),
        ("call", "lib_func", None, None),
        ("stop_protect", None, None, None),
        ("unregister_stack", None, None, None),
    ]


# ----------------------------------------------------------------------
# 2. one scenario per API-mapping row


def _instrumented_single(sens: Sensitivity, local: VarDesc,
                         body=(Return(),)) -> FunctionDesc:
    program = ProgramDesc(functions=(
        FunctionDesc(name="work", locals=(local,), body=tuple(body),
                     sensitivity=sens),))
    untrusted, _ = parse_lists("helper\n", "")
    return instrument(program, untrusted, frozenset()).function("work")


def _calls(fn, name):
    return [s for s in fn.body if isinstance(s, RuntimeCall) and s.call == name]


def _row_1_untrusted_call():
    program = ProgramDesc(functions=(
        FunctionDesc(name="plain", body=(Call("helper"), Return())),))
    untrusted, _ = parse_lists("helper(0)\n", "")
    fn = instrument(program, untrusted, frozenset()).function("plain")
    shapes = [s.call if isinstance(s, RuntimeCall) else type(s).__name__
              for s in fn.body]
    assert shapes == ["start_protect", "Call", "stop_protect", "Return"]


def _row_2_sensitive_function():
    fn = _instrumented_single(Sensitivity.ALL, VarDesc("x", 8))
    assert fn.body[0].call == "register_stack" and fn.body[0].all is True
    assert fn.body[-2].call == "unregister_stack"
    assert isinstance(fn.body[-1], Return)


def _row_3_finegrained_function():
    fn = _instrumented_single(Sensitivity.FINEGRAINED, VarDesc("x", 8))
    assert fn.body[0].call == "register_stack" and fn.body[0].all is False
    assert fn.body[-2].call == "unregister_stack"


def _row_4_sensitive_var():
    ann = Annotation(AnnotationKind.SENSITIVE)
    fn = _instrumented_single(Sensitivity.FINEGRAINED, VarDesc("x", 8, annotation=ann))
    (reg,) = _calls(fn, "register_memory")
    assert reg.target == VarRef("x") and reg.read_only is False
    # only when all=False
    fn = _instrumented_single(Sensitivity.ALL, VarDesc("x", 8, annotation=ann))
    assert _calls(fn, "register_memory") == []


def _row_5_not_sensitive_var():
    ann = Annotation(AnnotationKind.NOT_SENSITIVE)
    fn = _instrumented_single(Sensitivity.ALL, VarDesc("x", 8, annotation=ann))
    (exc,) = _calls(fn, "register_memory_exception")
    assert exc.target == VarRef("x") and exc.read_only is False
    # only when all=True
    fn = _instrumented_single(Sensitivity.FINEGRAINED, VarDesc("x", 8, annotation=ann))
    assert _calls(fn, "register_memory_exception") == []


def _row_6_write_sensitive_var_finegrained():
    ann = Annotation(AnnotationKind.WRITE_SENSITIVE)
    fn = _instrumented_single(Sensitivity.FINEGRAINED, VarDesc("x", 8, annotation=ann))
    (reg,) = _calls(fn, "register_memory")
    assert reg.read_only is True
    assert _calls(fn, "register_memory_exception") == []


def _row_7_write_sensitive_var_whole_frame():
    ann = Annotation(AnnotationKind.WRITE_SENSITIVE)
    fn = _instrumented_single(Sensitivity.ALL, VarDesc("x", 8, annotation=ann))
    (exc,) = _calls(fn, "register_memory_exception")
    assert exc.read_only is True
    assert _calls(fn, "register_memory") == []


def _row_8_sensitive_pointer_pointee():
    v = VarDesc("p", 8, pointer=True, pointee_size=32,
                annotation=Annotation(AnnotationKind.SENSITIVE_POINTER))
    fn = _instrumented_single(Sensitivity.ALL, v,
                              body=(HeapAlloc("p", 32), Return()))
    pointees = [s for s in _calls(fn, "register_memory")
                if s.target == PointeeRef("p")]
    assert len(pointees) == 1 and pointees[0].read_only is False
    assert pointees[0].length == 32


def _row_9_write_sensitive_pointer_pointee():
    v = VarDesc("p", 8, pointer=True, pointee_size=16,
                annotation=Annotation(AnnotationKind.WRITE_SENSITIVE_POINTER))
    fn = _instrumented_single(Sensitivity.ALL, v,
                              body=(HeapAlloc("p", 16), Return()))
    pointees = [s for s in _calls(fn, "register_memory")
                if s.target == PointeeRef("p")]
    assert len(pointees) == 1 and pointees[0].read_only is True


def test_criterion_2_api_mapping_rows():
    rows = (_row_1_untrusted_call, _row_2_sensitive_function,
            _row_3_finegrained_function, _row_4_sensitive_var,
            _row_5_not_sensitive_var, _row_6_write_sensitive_var_finegrained,
            _row_7_write_sensitive_var_whole_frame,
            _row_8_sensitive_pointer_pointee,
            _row_9_write_sensitive_pointer_pointee)
    assert len(rows) == 9
    for row in rows:
        row()


# ----------------------------------------------------------------------
# 3. confidentiality over the fuzz corpus


def test_criterion_3_fuzz_confidentiality(campaign, scenario_sample):
    assert len(campaign.reports) >= 1000
    assert campaign.elapsed <= 120.0
    assert campaign.findings == []
    assert all(r.clean for r in campaign.reports)
    assert not any(isinstance(v, Leak)
                   for r in campaign.reports for v in r.violations)
    # Corpus shape: nesting depth <= 3 and frames <= 4 KiB.
    assert CAMPAIGN_CONFIG.max_chain <= 3
    for scenario in scenario_sample:
        for fn in scenario.program.functions:
            _, frame_size = function_layout(fn)
            assert frame_size <= 4096


# ----------------------------------------------------------------------
# 4. integrity against the page-dump oracle


def test_criterion_4_integrity_oracle(campaign, scenario_sample):
    assert campaign.findings == []
    for scenario in scenario_sample:
        real, real_report = execute(scenario)
        shadow, shadow_report = execute(scenario, vault_factory=OracleVault)
        assert real.memory.content_signature() == shadow.memory.content_signature()
        assert real_report.clean and shadow_report.clean


# ----------------------------------------------------------------------
# 5. nesting accounting


def test_criterion_5_nesting_accounting():
    table = load_image_map("outer 0x401000 0x401100\n"
                           "inner 0x401100 0x401200\n")
    memory = ProcessMemory()
    vault = VaultState(table)
    outer_frame = memory.push_frame(0, 96)
    outer_obj = memory.heap_alloc(40)
    vault.register_stack(0x401010, all=True, frame_base=outer_frame.base,
                         frame_top=outer_frame.top)
    vault.register_memory(0x401010, outer_obj.base, 40, False)
    vault.start_protect(memory, 0x401010)
    outer_produced = vault.save_buffer.bytes_produced
    assert outer_produced == 96 + 40

    inner_frame = memory.push_frame(1, 56)
    inner_obj = memory.heap_alloc(24)
    vault.register_stack(0x401110, all=True, frame_base=inner_frame.base,
                         frame_top=inner_frame.top)
    vault.register_memory(0x401110, inner_obj.base, 24, False)
    vault.start_protect(memory, 0x401110)
    # Inner growth is exactly the inner registration footprint: 56 + 24.
    assert vault.save_buffer.bytes_produced - outer_produced == 56 + 24

    vault.stop_protect(memory, 0x401110)
    vault.unregister_stack(memory, 0x401110)
    vault.stop_protect(memory, 0x401010)
    assert vault.exception_log == []
    assert vault.save_buffer.all_consumed()


# ----------------------------------------------------------------------
# 6. adversarial detection


def test_criterion_6_adversarial_detection():
    mapping = ("victim   0x401000 0x401100\n"
               "intruder 0x401100 0x401200\n")
    vpc, ipc = 0x401010, 0x401110

    # Spoofed register_memory while the victim's window is open.
    table = load_image_map(mapping)
    memory = ProcessMemory()
    vault = VaultState(table)
    frame = memory.push_frame(0, 64)
    memory.write_bytes(frame.top, bytes(range(1, 49)))
    obj = memory.heap_alloc(32)
    vault.register_stack(vpc, all=True, frame_base=frame.base, frame_top=frame.top)
    vault.start_protect(memory, vpc)
    before = memory.content_signature()
    vault.register_memory(ipc, obj.base, 32, False)
    assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]
    assert memory.content_signature() == before
    assert len(vault.register_list) == 1

    # Forged RegisterList growth across the window.
    table = load_image_map(mapping)
    memory = ProcessMemory()
    vault = VaultState(table)
    frame = memory.push_frame(0, 64)
    memory.write_bytes(frame.top, bytes(range(1, 49)))
    vault.register_stack(vpc, all=True, frame_base=frame.base, frame_top=frame.top)
    vault.start_protect(memory, vpc)
    other = memory.push_frame(1, 32)
    vault.register_stack(ipc, all=True, frame_base=other.base, frame_top=other.top)
    before = memory.content_signature()
    vault.stop_protect(memory, vpc)
    assert [e.kind for e in vault.exception_log] == [ExceptionKind.INDEX_MISMATCH]
    assert memory.content_signature() == before
    assert len(vault.protect_list) == 1


# ----------------------------------------------------------------------
# 7. read-exactly-once storage accounting


class _DepthCheckingVault(VaultState):
    """Records the save-buffer depth each window opens at and closes to."""

    def __init__(self, identity):
        super().__init__(identity)
        self.windows: list[tuple[int, int]] = []
        self._opened_at: list[int] = []

    def _open_window(self, memory, start, end):
        self._opened_at.append(len(self.save_buffer.images))
        super()._open_window(memory, start, end)

    def _close_window(self, memory, start, end):
        super()._close_window(memory, start, end)
        self.windows.append((self._opened_at.pop(), len(self.save_buffer.images)))


def test_criterion_7_read_exactly_once(campaign, scenario_sample):
    assert campaign.findings == []
    closed = 0
    for scenario in scenario_sample:
        executor, _ = execute(scenario, vault_factory=_DepthCheckingVault)
        vault = executor.vault
        # Each window pops exactly the images it pushed, innermost first.
        assert all(opened == closed_to for opened, closed_to in vault.windows)
        closed += len(vault.windows)
        buf = vault.save_buffer
        assert buf.all_consumed()
        assert buf.bytes_released == buf.bytes_produced
    assert closed > len(scenario_sample)


# ----------------------------------------------------------------------
# 8. statistics model at desk scale


def composite_program() -> tuple[ProgramDesc, str]:
    lib = FunctionDesc(
        name="lib", params=(VarDesc("p0", 8, pointer=True, pointee_size=4),),
        body=(ReadProbe(VarTarget("worker1", "secret"), 128),
              WriteProbe(DerefTarget("p0"), (7).to_bytes(4, "little")),
              Return()))
    lib2 = FunctionDesc(
        name="lib2",
        body=(ReadProbe(VarTarget("worker2", "key"), 32),
              ReadProbe(VarTarget("worker2", "buf"), 16),
              Return()))
    worker1 = FunctionDesc(
        name="worker1",
        locals=(VarDesc("secret", 128),
                VarDesc("age", 4, annotation=Annotation(AnnotationKind.NOT_SENSITIVE))),
        body=(Assign("secret", bytes(range(1, 129))),
              Assign("age", (41).to_bytes(4, "little")),
              Call("lib", (AddrOfArg("age"),)),
              Call("lib", (AddrOfArg("age"),)),
              Return()))
    worker2 = FunctionDesc(
        name="worker2",
        locals=(VarDesc("key", 32, annotation=Annotation(AnnotationKind.SENSITIVE)),
                VarDesc("buf", 16, annotation=Annotation(AnnotationKind.WRITE_SENSITIVE))),
        body=(Assign("key", bytes(range(0x30, 0x50))),
              Assign("buf", bytes(range(0x60, 0x70))),
              Call("lib2"),
              Return()),
        sensitivity=Sensitivity.FINEGRAINED)
    main_fn = FunctionDesc(name="main",
                           body=(Call("worker1"), Call("worker2"), Return()))
    program = ProgramDesc(functions=(lib, lib2, worker1, worker2, main_fn))
    untrusted, sensitive = parse_lists("lib(1)\nlib2(0)\n", "worker1\n")
    return instrument(program, untrusted, sensitive), "main"


def test_criterion_8_statistics_model():
    # Hand counts. worker1 (whole frame, two untrusted calls):
    #   register_stack 1, register_memory_exception 1 (age carve-out),
    #   start/stop 2 each, unregister 1.
    # worker2 (finegrained, one untrusted call):
    #   register_stack 1, register_memory 2 (key, buf), start/stop 1,
    #   unregister 1.
    # Byte accounting. worker1 frame = 128 + 4 + 16 pad = 148:
    #   each of 2 windows copies frame 148 + carve-out 4 = 152 and clears
    #   the frame 148; unregister scrubs 148.
    # worker2 frame = 32 + 16 + 16 pad = 64 with all=False:
    #   its window copies key 32 + buf 16 = 48 and clears only the
    #   writable key 32; unregister scrubs 64.
    #   copied  = 2*152 + 48            = 352
    #   cleared = 2*148 + 148 + 32 + 64 = 540
    program, entry = composite_program()
    table = load_image_map(image_map_for(program))
    report = run(program, table, entry)
    assert report.clean
    s = report.stats
    assert (s.register_stack, s.register_memory, s.register_memory_exception,
            s.unregister_stack, s.start_protect, s.stop_protect) == (2, 2, 1, 2, 3, 3)
    assert s.total == 13
    assert s.bytes_copied == 352
    assert s.bytes_cleared == 540


# ----------------------------------------------------------------------
# 9. native counterfactual on the walkthrough


def test_criterion_9_native_counterfactual(tmp_path, capsys):
    instrumented = tmp_path / "instrumented.json"
    assert main(["instrument",
                 "--program", str(DEMO_DIR / "program.json"),
                 "--untrusted-list", str(DEMO_DIR / "untrusted.list"),
                 "--sensitive-list", str(DEMO_DIR / "sensitive.list"),
                 "-o", str(instrumented)]) == 0
    diff_out = tmp_path / "diff.txt"
    code = main(["diff", "--program", str(instrumented),
                 "--image-map", str(DEMO_DIR / "image.map"),
                 "-o", str(diff_out)])
    capsys.readouterr()
    assert code == 0
    text = diff_out.read_text()
    assert "secret bytes observed (native):    256" in text
    assert "secret bytes observed (protected): 0" in text
    # The six-call total for the walkthrough shows up in the diff stats.
    lines = text.splitlines()
    header_index = next(i for i, line in enumerate(lines)
                        if line.split() and line.split()[0] == "register_stack")
    values = lines[header_index + 1].split()
    assert values == ["1", "1", "1", "1", "1", "1", "6"]
