"""Fuzz harness: determinism, clean campaigns, forgery coverage, and the
shrinker."""

from __future__ import annotations

import pytest

from framevault.executor import image_map_for
from framevault.fuzzer import (
    FORGERY_KINDS,
    MAX_CHAIN,
    CampaignResult,
    FuzzConfig,
    Scenario,
    check_scenario,
    fuzz,
    generate_scenario,
    minimize,
    scenario_from_json,
    scenario_to_json,
)
from framevault.instrument import instrument, parse_lists
from framevault.program import (
    AbsoluteTarget,
    Assign,
    Call,
    FunctionDesc,
    ProgramDesc,
    ReadProbe,
    Return,
    VarDesc,
)
from framevault.runtime import VaultState

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
        config = FuzzConfig(scenarios=len(FORGERY_KINDS), adversarial=True)
        kinds = [generate_scenario(17, i, config).forged[0]
                 for i in range(len(FORGERY_KINDS))]
        assert sorted(kinds) == sorted(FORGERY_KINDS)

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
