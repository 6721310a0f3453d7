"""Fuzz harness: determinism, clean campaigns, forgery coverage, and the
shrinker."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from framevault.executor import Executor, image_map_for, run
from framevault.fuzzer import (
    FORGERIES,
    MAX_CHAIN,
    CampaignResult,
    _secret,
    FuzzConfig,
    Scenario,
    check_scenario,
    forgery_slots,
    fuzz,
    generate_scenario,
    inject_forged,
    minimize,
    scenario_from_json,
    scenario_to_json,
)
from framevault.identity import load_image_map
from framevault.instrument import instrument, parse_lists
from framevault.memory import ProcessMemory
from framevault.program import (
    AbsoluteTarget,
    Assign,
    Call,
    FunctionDesc,
    ProgramDesc,
    ProgramFormatError,
    ReadProbe,
    Return,
    RuntimeCall,
    VarDesc,
)
from framevault.reporting import render_report
from framevault.runtime import ExceptionKind, SaveBuffer, VaultException, VaultState

from test_executor import _NoClear

# fuzz(5, FuzzConfig(scenarios=20)) under a runtime that saves without
# clearing: every scenario whose library reads a hidden byte is a finding.
LEAKY_SEED = 5
LEAKY_CONFIG = FuzzConfig(scenarios=20)
LEAKY_FINDINGS = [0, 2, 3, 5, 6, 7, 10, 13, 15, 16, 19]


@pytest.fixture
def runtime_saves_without_clearing(monkeypatch):
    """Break VaultState so its windows save but never clear. OracleVault
    overrides _open_window, so the oracle run stays correct."""
    open_window = VaultState._open_window
    monkeypatch.setattr(VaultState, "_open_window",
                        lambda self, memory, start, end:
                        open_window(self, _NoClear(memory), start, end))


@pytest.mark.parametrize("config", [FuzzConfig(), FuzzConfig(adversarial=True)],
                         ids=["clean", "adversarial"])
def test_every_cleared_byte_goes_through_clear_region(monkeypatch, config):
    """The broken runtimes above skip clearing by replacing clear_region,
    so each byte a protected run zeroes must pass through it: the lengths
    it is asked to clear sum to the run's bytes_cleared."""
    asked: list[tuple[ProcessMemory, int]] = []
    clear_region = ProcessMemory.clear_region

    def counting(memory, addr, length):
        asked.append((memory, length))
        clear_region(memory, addr, length)
    monkeypatch.setattr(ProcessMemory, "clear_region", counting)
    total = 0
    for i in range(40):
        scenario = generate_scenario(7, i, config)
        executor = Executor(scenario.program, load_image_map(scenario.image_map))
        cleared = executor.run(scenario.entry).stats.bytes_cleared
        assert sum(length for memory, length in asked if memory is executor.memory) == cleared
        asked.clear()
        total += cleared
    assert total > 0


class _Unchecked:
    """A stand-in for the verdict checker that makes the runtime calls
    and nothing else: no slice copy, snapshot, compare or scan."""

    def __init__(self, executor: Executor):
        self.memory, self.vault = executor.memory, executor.vault

    def start_protect(self, pc: int, wid: int):
        return self.vault.start_protect(self.memory, pc)

    def stop_protect(self, pc: int):
        return self.vault.stop_protect(self.memory, pc)

    def scan(self, function: str, addr: int, data: bytes) -> None:
        pass


def checker_mismatches(seed: int, count: int, config: FuzzConfig) -> tuple[int, list[tuple]]:
    """Run scenarios 0..count-1 of seed as built and again with the
    executor's checker replaced by `_Unchecked`: the verdicts must change
    nothing the run does, and the checked run must render as `run()`'s
    report does. Returns the number of windows the checked runs opened
    and an (index, what differs) pair for each difference."""
    windows, mismatches = 0, []
    for index in range(count):
        scenario = generate_scenario(seed, index, config)
        table = load_image_map(scenario.image_map)
        runs = []
        for checker in (True, False):
            executor = Executor(scenario.program, table)
            if not checker:
                executor.checker = _Unchecked(executor)
            runs.append((executor, executor.run(scenario.entry)))
        (checked, report), (unchecked, bare) = runs
        windows += checked._wid
        for what, a, b in (
                ("memory", checked.memory.content_signature(),
                 unchecked.memory.content_signature()),
                ("observations", report.observations, bare.observations),
                ("faults", report.faults, bare.faults),
                ("stats", report.stats, bare.stats),
                ("provenance counts", report.provenance_counts, bare.provenance_counts),
                ("exception log", checked.vault.exception_log, unchecked.vault.exception_log),
                ("final digest and halt", (report.final_digest, report.halted),
                 (bare.final_digest, bare.halted)),
                ("verdicts without the checker", unchecked.vault.exception_log, bare.violations),
                ("report", render_report(run(scenario.program, table, scenario.entry)),
                 render_report(report))):
            if a != b:
                mismatches.append((index, what))
    return windows, mismatches


@pytest.mark.parametrize("config", [FuzzConfig(), FuzzConfig(adversarial=True)],
                         ids=["clean", "adversarial"])
def test_the_checker_changes_nothing_a_run_does(config):
    windows, mismatches = checker_mismatches(7, 100, config)
    assert windows > 100
    assert mismatches == []


class TestDeterminism:
    def test_same_seed_same_everything(self):
        config = FuzzConfig(scenarios=25)
        a = fuzz(7, config)
        b = fuzz(7, config)
        assert [r.final_digest for r in a.reports] == [r.final_digest for r in b.reports]
        assert [r.stats.total for r in a.reports] == [r.stats.total for r in b.reports]
        assert len(a.findings) == len(b.findings) == 0

    def test_different_seeds_differ(self):
        config = FuzzConfig(scenarios=10)
        a = fuzz(1, config)
        b = fuzz(2, config)
        assert [r.final_digest for r in a.reports] != [r.final_digest for r in b.reports]


# Seed 526 draws 255 first; seed 4957 draws it twice running at byte 55.
@example(seed=526, size=1)
@example(seed=4957, size=64)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 64))
def test_secret_draws_what_randrange_draws(seed, size):
    """Scenario secrets and everything generated after them depend on this
    draw; a Python whose randrange draws differently fails here by name."""
    rng, reference = random.Random(seed), random.Random(seed)
    assert _secret(rng, size) == bytes(reference.randrange(1, 256) for _ in range(size))
    assert rng.getstate() == reference.getstate()


class TestCampaigns:
    def test_clean_batch_produces_no_findings(self):
        result = fuzz(11, FuzzConfig(scenarios=150))
        assert isinstance(result, CampaignResult)
        assert result.clean
        assert len(result.reports) == 150
        assert result.elapsed > 0

    def test_adversarial_batch_detects_every_forgery(self):
        result = fuzz(13, FuzzConfig(scenarios=40, adversarial=True))
        assert result.clean
        # Every scenario carries a forgery and every report shows at least
        # one runtime exception for it.
        assert all(not r.clean for r in result.reports)

    def test_forgery_kinds_rotate_through_the_batch(self):
        config = FuzzConfig(scenarios=len(FORGERIES), adversarial=True)
        forged = [generate_scenario(17, i, config).forged for i in range(len(FORGERIES))]
        assert forged == [(call,) for call in FORGERIES]

    def test_probes_can_be_disabled(self):
        result = fuzz(5, FuzzConfig(scenarios=20, probes=False))
        assert result.clean
        assert all(r.observations == [] for r in result.reports)

    def test_frame_budget_is_respected(self):
        config = FuzzConfig(scenarios=30)
        for i in range(30):
            scenario = generate_scenario(19, i, config)
            for fn in scenario.raw.functions:
                assert sum(v.size for v in fn.params + fn.locals) <= 4096


class TestFindings:
    def test_campaign_keeps_each_failing_scenario(self, runtime_saves_without_clearing):
        result = fuzz(LEAKY_SEED, LEAKY_CONFIG)
        assert [f.index for f in result.findings] == LEAKY_FINDINGS
        assert len(result.reports) == LEAKY_CONFIG.scenarios
        for finding in result.findings:
            scenario = generate_scenario(LEAKY_SEED, finding.index, LEAKY_CONFIG)
            _, problems = check_scenario(scenario)
            assert finding.seed == LEAKY_SEED
            assert finding.problems == problems
            assert finding.scenario.program == scenario.program
            assert finding.minimized is not None


# One window per lib call, a forgery the runtime refuses, and a forged
# window it accepts.
ONE_WINDOW = generate_scenario(7, 0, FuzzConfig(max_chain=1))
ADVERSARIAL = generate_scenario(7, 0, FuzzConfig(adversarial=True))
FORGED_WINDOW = generate_scenario(7, 5, FuzzConfig(adversarial=True))


def _mutate_runtime(monkeypatch, name, mutant):
    """Route VaultState.<name> through mutant(original, self, *args) for
    the runtime under test only. OracleVault inherits the method, so its
    run keeps the original."""
    original = getattr(VaultState, name)

    def patched(self, *args):
        if type(self) is VaultState:
            return mutant(original, self, *args)
        return original(self, *args)
    monkeypatch.setattr(VaultState, name, patched)


def _stop_keeps_its_window(original, vault, memory, pc):
    top = vault.protect_list[-1] if vault.protect_list else None
    refused = original(vault, memory, pc)
    if refused is None:
        vault.protect_list.append(top)
    return refused


def _unregister_keeps_the_entries(original, vault, memory, pc):
    entries = list(vault.register_list)
    refused = original(vault, memory, pc)
    vault.register_list[:] = entries
    return refused


def _unregister_skips_the_scrub(original, vault, memory, pc):
    return original(vault, _NoClear(memory), pc)


def _close_leaves_an_image(original, vault, memory, start, end):
    original(vault, memory, start, end)
    vault.save_buffer.push(b"")


def _close_logs_an_extra_exception(original, vault, memory, start, end):
    original(vault, memory, start, end)
    vault.exception_log.append(VaultException(ExceptionKind.INDEX_MISMATCH,
                                              "stop_protect", 0, "mutant"))


def _unregister_refuses(original, vault, memory, pc):
    return vault._flag(ExceptionKind.INDEX_MISMATCH, "unregister_stack", pc, "mutant")


def _refuse_silently(original, vault, kind, syscall, pc, detail):
    return VaultException(kind, syscall, pc, detail)


class TestEveryProblemCanFire:
    """Each problem check_scenario reports appears under a runtime broken
    in the matching way; `alone` marks a problem no other check repeats."""

    def test_both_scenarios_pass_unbroken(self):
        assert check_scenario(ONE_WINDOW)[1] == check_scenario(ADVERSARIAL)[1] == []
        assert check_scenario(FORGED_WINDOW)[1] == []

    @pytest.mark.parametrize("name, mutant, problem, alone", [
        ("stop_protect", _stop_keeps_its_window, "1 windows never closed", False),
        ("unregister_stack", _unregister_keeps_the_entries,
         "4 registrations never removed", True),
        ("_close_window", _close_leaves_an_image, "save buffer holds unconsumed images", True),
        ("unregister_stack", _unregister_skips_the_scrub,
         "final memory differs from page-dump oracle", True),
        ("_close_window", _close_logs_an_extra_exception,
         "exception log differs from page-dump oracle", False),
    ])
    def test_runtime_mutant(self, monkeypatch, name, mutant, problem, alone):
        _mutate_runtime(monkeypatch, name, mutant)
        _, problems = check_scenario(ONE_WINDOW)
        assert problems == [problem] if alone else problem in problems

    def test_uncounted_release(self, monkeypatch):
        # The oracle's windows never touch the save buffer.
        monkeypatch.setattr(SaveBuffer, "pop", lambda self: self.images.pop())
        _, problems = check_scenario(ONE_WINDOW)
        assert problems == ["save buffer released != produced"]

    def test_unexpected_detection(self, monkeypatch):
        _mutate_runtime(monkeypatch, "_close_window", _close_logs_an_extra_exception)
        _, problems = check_scenario(ADVERSARIAL)
        assert problems == [
            "cannot attribute refusal at pc 0x0 to forged or inserted calls alone: "
            "VaultException(kind=<ExceptionKind.INDEX_MISMATCH: 'IndexMismatch'>, "
            "syscall='stop_protect', caller_pc=0, detail='mutant')",
            "exception log differs from page-dump oracle"]

    @pytest.mark.parametrize("scenario, name, mutant, problem", [
        # The forged register_memory is refused, so the victim's own
        # unregister_stack must not be.
        (ADVERSARIAL, "unregister_stack", _unregister_refuses,
         "adversarial scenario broke protection: VaultException(kind=<ExceptionKind."
         "INDEX_MISMATCH: 'IndexMismatch'>, syscall='unregister_stack', caller_pc=4198662, "
         "detail='mutant')"),
        # The forged window is accepted, and refusals that log nothing leave
        # it and the victim's window open with no refusal to show for it.
        (FORGED_WINDOW, "_flag", _refuse_silently,
         "a forged call was accepted and no call refused, leaving: 2 windows never closed; "
         "2 registrations never removed; save buffer holds unconsumed images; save buffer "
         "released != produced"),
    ], ids=["inserted call refused", "accepted forgery unrefused"])
    def test_forged_run_mutant(self, monkeypatch, scenario, name, mutant, problem):
        _mutate_runtime(monkeypatch, name, mutant)
        _, problems = check_scenario(scenario)
        assert problem in problems

    def test_a_pc_shared_by_a_forged_and_an_inserted_call(self):
        # A one-byte span gives every statement of worker0 the same pc, so
        # the refusal of its forged stop_protect cannot be told from one of
        # its inserted calls.
        program = inject_forged(ONE_WINDOW.program, "worker0", RuntimeCall("stop_protect"), 0)
        image_map = ONE_WINDOW.image_map.replace("worker0 0x401100 0x401200",
                                                 "worker0 0x401100 0x401101")
        _, problems = check_scenario(replace(ONE_WINDOW, program=program, image_map=image_map))
        assert problems == [
            "cannot attribute refusal at pc 0x401100 to forged or inserted calls alone: "
            "VaultException(kind=<ExceptionKind.IDENTITY_MISMATCH: 'IdentityMismatch'>, "
            "syscall='stop_protect', caller_pc=4198656, detail='no protection window is open')"]

    def test_broken_protection(self, runtime_saves_without_clearing):
        _, problems = check_scenario(generate_scenario(7, 2, FuzzConfig(adversarial=True)))
        assert problems == ["adversarial scenario broke protection: Leak(window=1, "
                            "function='lib0', address=268435458, length=8, secret_bytes=8, "
                            "detail='untrusted read observed protected bytes')"]


# Every forged call a placement walk puts in a library: the campaign's six,
# plus a frame registration without whole-frame protection.
FORGED_CALLS = (*FORGERIES.values(), RuntimeCall("register_stack", all=False))

_IDENTITY, _INDEX = ExceptionKind.IDENTITY_MISMATCH, ExceptionKind.INDEX_MISMATCH

# The sorted kinds a correct runtime logs for one forged call that runs in
# lib0 at depth 1. Most are refused at the forged call itself. A forged
# StackEntry is accepted and caught twice: the victim's stop_protect sees the
# grown RegisterList (IndexMismatch), then the victim's unregister_stack
# finds the forger's entry on top (IdentityMismatch). So is a forged window:
# the victim's stop_protect finds it on top (IdentityMismatch), then the
# victim's unregister_stack finds its frame below its watermark (IndexMismatch).
K1_REFUSALS = {
    "register_memory": (_IDENTITY,),
    "stop_protect": (_IDENTITY,),
    "unregister_stack": (_IDENTITY,),
    "register_stack": (_IDENTITY, _INDEX),
    "register_memory_exception": (_IDENTITY,),
    "start_protect": (_IDENTITY, _INDEX),
}


def forged_placements(scenario: Scenario, lib: str, k: int):
    """Yield (slots, calls, placed scenario) for every way to put k = 1 or
    2 calls of FORGED_CALLS into `lib` at slots generate_scenario may draw,
    the second call after the first."""
    base = instrument(scenario.raw, *parse_lists("\n".join(scenario.untrusted),
                                                 "\n".join(scenario.sensitive)))
    fn = base.function(lib)
    assert fn is not None
    for pos in forgery_slots(fn):
        for call in FORGED_CALLS:
            one = inject_forged(base, lib, call, pos)
            if k == 1:
                yield (pos,), (call,), replace(scenario, program=one)
                continue
            for later in forgery_slots(one.function(lib))[pos + 1:]:
                for second in FORGED_CALLS:
                    yield ((pos, later), (call, second),
                           replace(scenario, program=inject_forged(one, lib, second, later)))


def placement_failures(seed: int, count: int, config: FuzzConfig, k: int,
                       every_lib: bool = False,
                       refusals: dict | None = None) -> tuple[int, list[tuple]]:
    """Check each `forged_placements` in lib0, or with every_lib in every
    library, of scenarios 0..count-1 of seed. With `refusals`, a placement
    also fails unless its sorted refusal kinds are its first call's row.
    Returns the number of placements and a (seed, index, lib, slots, calls,
    problems) tuple for each placement with a problem."""
    placements, failures = 0, []
    for index in range(count):
        scenario = generate_scenario(seed, index, config)
        libs = [u.partition("(")[0] for u in scenario.untrusted] if every_lib else ["lib0"]
        for lib in libs:
            for slots, calls, placed in forged_placements(scenario, lib, k):
                assert placed.forged == tuple(call.call for call in calls)
                report, problems = check_scenario(placed)
                if refusals is not None:
                    kinds = tuple(sorted(v.kind for v in report.violations
                                         if isinstance(v, VaultException)))
                    if kinds != refusals[calls[0].call]:
                        problems.append(f"refusals {kinds}, expected {refusals[calls[0].call]}")
                if problems:
                    failures.append((seed, index, lib, slots, calls, problems))
                placements += 1
    return placements, failures


def single_forgery_failures(seed: int, count: int) -> tuple[int, list[tuple]]:
    """Each call of FORGED_CALLS at every slot of lib0 in adversarial
    scenarios 0..count-1 of seed, refused as K1_REFUSALS says."""
    return placement_failures(seed, count, FuzzConfig(adversarial=True), 1,
                              refusals=K1_REFUSALS)


def test_every_single_forgery_placement_is_detected():
    assert single_forgery_failures(7, 40) == (931, [])


def test_every_pair_of_forged_calls_in_lib0_passes():
    assert placement_failures(7, 5, FuzzConfig(adversarial=True), 2) == (1715, [])


# Placements of a forged register_stack(all=True) whose run reports a Leak
# of bytes an untrusted lib wrote itself (ROADMAP item 9): the forged frame
# registration outlives its frame inside a window that can no longer close,
# so `window_hidden` keeps hiding addresses later frames reuse. The unforged
# runs read the same bytes and report no Leak. (seed, index, lib, slot).
KNOWN_FALSE_LEAKS = [(0, 12, "lib0", slot) for slot in range(3)] \
    + [(102, 21, "lib0", slot) for slot in range(5)] \
    + [(103, 90, "lib1", slot) for slot in range(3)]


def _known_false_leak(failure: tuple) -> bool:
    seed, index, lib, slots, calls, problems = failure
    return (len(slots) == 1 and (seed, index, lib, slots[0]) in KNOWN_FALSE_LEAKS
            and calls == (FORGERIES["register_stack"],)
            and all(p.startswith("adversarial scenario broke protection: Leak(")
                    for p in problems))


def false_leak_mismatches(seed: int, failures: list[tuple]) -> list[tuple]:
    """The failures of a k = 1 walk of seed other than KNOWN_FALSE_LEAKS
    placements failing with Leaks alone, then each listed placement of seed
    that did not fail so."""
    excused = [f[:3] + (f[3][0],) for f in failures if _known_false_leak(f)]
    return [f for f in failures if not _known_false_leak(f)] \
        + [key for key in KNOWN_FALSE_LEAKS if key[0] == seed and key not in excused]


def test_single_forgeries_in_every_lib_fail_only_as_known_false_leaks():
    placements, failures = placement_failures(0, 20, FuzzConfig(max_chain=3), 1,
                                              every_lib=True)
    assert placements == 1134
    assert [f[:4] for f in failures] == [(0, 12, "lib0", (slot,)) for slot in range(3)]
    assert false_leak_mismatches(0, failures) == []


def test_a_forged_call_after_return_expects_no_refusal():
    # The executor stops at lib0's return, so the appended call never runs.
    scenario = generate_scenario(7, 0, FuzzConfig(adversarial=True))
    lib = scenario.program.function("lib0")
    assert lib is not None
    program = inject_forged(scenario.program, "lib0", RuntimeCall("stop_protect"),
                            len(lib.body))
    placed = replace(scenario, program=program)
    assert placed.forged == ("register_memory", "stop_protect")
    assert check_scenario(placed)[1] == []


def test_a_forged_window_that_closes_itself_expects_no_refusal():
    scenario = generate_scenario(7, 0, FuzzConfig(adversarial=True))
    program = instrument(scenario.raw, *parse_lists("\n".join(scenario.untrusted),
                                                    "\n".join(scenario.sensitive)))
    program = inject_forged(program, "lib0", RuntimeCall("start_protect"), 0)
    program = inject_forged(program, "lib0", RuntimeCall("stop_protect"), 1)
    placed = replace(scenario, program=program)
    assert placed.forged == ("start_protect", "stop_protect")
    assert check_scenario(placed)[1] == []


class TestChainCap:
    def test_chain_depth_over_the_cap_is_rejected(self):
        assert MAX_CHAIN == 16
        with pytest.raises(ValueError, match=f"1..{MAX_CHAIN}"):
            FuzzConfig(max_chain=17)
        assert FuzzConfig(max_chain=MAX_CHAIN).max_chain == MAX_CHAIN


class TestSerialization:
    def test_scenario_round_trips_through_json(self):
        scenario = generate_scenario(23, 2, FuzzConfig(adversarial=True))
        restored = scenario_from_json(scenario_to_json(scenario))
        assert restored.program == scenario.program
        assert restored.raw == scenario.raw
        assert restored.image_map == scenario.image_map
        assert restored.forged == scenario.forged
        assert restored.untrusted == scenario.untrusted

    def test_a_stored_forged_key_is_ignored(self):
        # The program marks its forged calls; older files also named them.
        scenario = generate_scenario(23, 2, FuzzConfig(adversarial=True))
        doc = json.loads(scenario_to_json(scenario))
        assert "forged" not in doc
        doc["forged"] = ["spoof_stop_protect"]
        assert scenario_from_json(json.dumps(doc)).forged == ("unregister_stack",)

    @pytest.mark.parametrize("provenance", ["", False, "forged"])
    def test_a_provenance_that_reads_as_forged_is_refused(self, provenance):
        # Accepted, the call would be counted as forged while the scenario
        # lists no forgery, and the clean run would be due its refusals.
        doc = json.loads(scenario_to_json(generate_scenario(3, 0, FuzzConfig())))
        start = doc["program"]["functions"][1]["body"][8]
        assert start == {"op": "runtime_call", "call": "start_protect",
                         "provenance": "untrusted-call"}
        start["provenance"] = provenance
        with pytest.raises(ProgramFormatError) as err:
            scenario_from_json(json.dumps(doc))
        assert str(err.value) == ("functions[1].body[8]: 'provenance' must be a non-empty "
                                  "string other than 'forged'")

    def test_restored_scenario_checks_identically(self):
        scenario = generate_scenario(29, 3, FuzzConfig())
        restored = scenario_from_json(scenario_to_json(scenario))
        report_a, problems_a = check_scenario(scenario)
        report_b, problems_b = check_scenario(restored)
        assert problems_a == problems_b == []
        assert report_a.final_digest == report_b.final_digest


def faulting_scenario() -> Scenario:
    """A scenario with droppable filler whose lib probes unmapped memory."""
    raw = ProgramDesc(functions=(
        FunctionDesc(name="victim", locals=(VarDesc("a", 4), VarDesc("b", 4),
                                            VarDesc("c", 4)),
                     body=(Assign("a", b"\x01"), Assign("b", b"\x02"),
                           Assign("c", b"\x03"), Call("lib"), Return())),
        FunctionDesc(name="lib", body=(ReadProbe(AbsoluteTarget(0x50), 4),
                                       Return())),
        FunctionDesc(name="main", body=(Call("victim"), Return())),
    ))
    untrusted, sensitive = parse_lists("lib(0)\n", "victim\n")
    program = instrument(raw, untrusted, sensitive)
    return Scenario(index=0, seed=0, raw=raw, program=program,
                    image_map=image_map_for(raw), entry="main",
                    untrusted=["lib(0)"], sensitive=["victim"])


class TestMinimize:
    def test_shrinker_drops_irrelevant_statements(self):
        scenario = faulting_scenario()
        _, problems = check_scenario(scenario)
        assert problems and all(p.startswith("fault:") for p in problems)
        small = minimize(scenario)
        original_size = sum(len(fn.body) for fn in scenario.raw.functions)
        shrunk_size = sum(len(fn.body) for fn in small.raw.functions)
        assert shrunk_size < original_size
        # The shrunk scenario still exhibits the failure.
        _, problems = check_scenario(small)
        assert problems
        # The probe that faults is still present.
        lib = small.raw.function("lib")
        assert any(isinstance(s, ReadProbe) for s in lib.body)

    def test_passing_scenarios_are_left_alone(self):
        scenario = generate_scenario(31, 0, FuzzConfig())
        assert minimize(scenario) is scenario

    def test_forged_scenarios_are_left_alone(self):
        scenario = generate_scenario(31, 1, FuzzConfig(adversarial=True))
        assert minimize(scenario) is scenario
