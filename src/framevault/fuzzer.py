"""Randomized scenario generation and invariant checking.

Each scenario is a small annotated program: a chain of secret-holding
functions calling library functions that probe memory however they like.
The scenario is instrumented, executed twice (real runtime and the
page-dump oracle), and checked against every protection invariant. In
adversarial mode one forged runtime call is spliced into a library body
and the expected detection is asserted instead.

Generation is deterministic: scenario i of seed s is always the same
program, independent of the campaign size. A campaign checks its
scenarios one after another in a single process. `FuzzConfig` rejects a
`max_chain` outside 1..MAX_CHAIN and a scenario count below 1, and a
saved counterexample file that is not a scenario document raises
ProgramFormatError.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace

from .executor import ExecutionReport, Executor, image_map_for
from .identity import load_image_map
from .instrument import instrument, parse_lists, slot_exposed
from .memory import HEAP_BASE
from .oracle import OracleVault
from .program import (AddrOfArg, AddressRef, Annotation, AnnotationKind, Arg, Assign,
                      Call, DerefTarget, FrameTarget, FunctionDesc, HeapAlloc,
                      HeapTarget, ProgramDesc, ProgramFormatError, ReadProbe, Return,
                      RuntimeCall, Sensitivity, Statement, ValueArg, VarDesc,
                      VarTarget, WriteProbe, program_from_dict, program_to_dict)
from .runtime import ExceptionKind, VaultException

# Largest max_chain a campaign accepts. The call tree grows exponentially
# with the chain: a worker that calls its lib twice, through a lib that
# calls the next worker, runs the rest of the chain twice.
MAX_CHAIN = 16

# Most locals a generated worker declares.
MAX_LOCALS = 4

# Most single-statement drops minimize() tries on one finding.
MINIMIZE_BUDGET = 200

FORGERY_KINDS = ("spoof_register_memory", "spoof_stop_protect",
                 "spoof_unregister_stack", "forge_register_stack")

# A forged StackEntry is caught twice: the victim's stop_protect sees the
# grown RegisterList (IndexMismatch), then the victim's unregister_stack
# finds the attacker's entry on top (IdentityMismatch). The spoof kinds
# fail at the forged call itself and nowhere else.
_EXPECTED_DETECTION = {
    "spoof_register_memory": (ExceptionKind.IDENTITY_MISMATCH,),
    "spoof_stop_protect": (ExceptionKind.IDENTITY_MISMATCH,),
    "spoof_unregister_stack": (ExceptionKind.IDENTITY_MISMATCH,),
    "forge_register_stack": (ExceptionKind.INDEX_MISMATCH,
                             ExceptionKind.IDENTITY_MISMATCH),
}


@dataclass(frozen=True)
class FuzzConfig:
    scenarios: int = 100
    max_chain: int = 3       # secret-holder nesting depth
    probes: bool = True
    adversarial: bool = False

    def __post_init__(self) -> None:
        if self.scenarios < 1:
            raise ValueError(f"scenario count {self.scenarios} is below 1")
        if not 1 <= self.max_chain <= MAX_CHAIN:
            raise ValueError(f"chain depth {self.max_chain} is outside "
                             f"1..{MAX_CHAIN} (MAX_CHAIN)")


@dataclass
class Scenario:
    index: int
    seed: int
    raw: ProgramDesc
    program: ProgramDesc     # instrumented (plus any injected forgery)
    image_map: str
    entry: str
    untrusted: list[str]
    sensitive: list[str]
    forged: tuple[str, ...] = ()


@dataclass
class Finding:
    index: int
    seed: int
    problems: list[str]
    scenario: Scenario
    minimized: Scenario | None = None


@dataclass
class CampaignResult:
    seed: int
    config: FuzzConfig
    reports: list[ExecutionReport]
    findings: list[Finding]
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings


# ----------------------------------------------------------------------
# generation

def scenario_seed(seed: int, index: int) -> int:
    return (seed * 0x9E3779B1 + index * 0x85EB_CA77 + 1) & 0xFFFF_FFFF


def _secret(rng: random.Random, size: int) -> bytes:
    return bytes(rng.randrange(1, 256) for _ in range(size))


def _make_locals(rng: random.Random) -> list[VarDesc]:
    out: list[VarDesc] = []
    for j in range(rng.randint(1, MAX_LOCALS)):
        if rng.random() < 0.25:
            pointee = rng.choice((16, 32, 64))
            kind = rng.choice((AnnotationKind.SENSITIVE_POINTER,
                               AnnotationKind.WRITE_SENSITIVE_POINTER))
            out.append(VarDesc(f"v{j}", 8, pointer=True, pointee_size=pointee,
                               annotation=Annotation(kind, pointee)))
        else:
            size = rng.choice((4, 8, 16, 32))
            kind = rng.choice((None, AnnotationKind.SENSITIVE,
                               AnnotationKind.NOT_SENSITIVE,
                               AnnotationKind.WRITE_SENSITIVE))
            out.append(VarDesc(f"v{j}", size,
                               annotation=Annotation(kind) if kind else None))
    return out


@dataclass
class _WorkerPlan:
    name: str
    lib: str
    mode: Sensitivity
    params: list[VarDesc] = field(default_factory=list)
    locals: list[VarDesc] = field(default_factory=list)
    args_out: list[Arg] = field(default_factory=list)   # args to the lib call
    chain: str | None = None                            # "direct" | "via_lib"
    lib_calls: int = 1


def _plan_workers(rng: random.Random, config: FuzzConfig, depth: int) -> list[_WorkerPlan]:
    plans = []
    for i in range(depth):
        plan = _WorkerPlan(
            name=f"worker{i}",
            lib=f"lib{i}",
            mode=rng.choice((Sensitivity.ALL, Sensitivity.FINEGRAINED)),
            locals=_make_locals(rng),
            # One bracketed call in adversarial mode keeps the forged
            # statement executing exactly once.
            lib_calls=1 if config.adversarial else rng.choice((1, 1, 2)),
        )
        reached_via_lib = i > 0 and plans[i - 1].chain == "via_lib"
        if not reached_via_lib and rng.random() < 0.4:
            kind = rng.choice((None, AnnotationKind.SENSITIVE))
            plan.params.append(VarDesc("arg0", 8,
                                       annotation=Annotation(kind) if kind else None))
        candidates = list(plan.locals)
        rng.shuffle(candidates)
        for v in candidates[:2]:
            if not v.pointer and rng.random() < 0.5:
                plan.args_out.append(AddrOfArg(v.name))
            elif slot_exposed(v, plan.mode):
                # Arguments are copied after start_protect has cleared the
                # frame, so realistic programs pass only visible data.
                plan.args_out.append(ValueArg(v.name))
        if i + 1 < depth:
            plan.chain = rng.choice(("direct", "via_lib"))
        plans.append(plan)
    return plans


def _lib_param_for(worker: _WorkerPlan, k: int, arg: Arg) -> VarDesc:
    var = next(v for v in worker.params + worker.locals if v.name == arg.var)
    if isinstance(arg, AddrOfArg):
        return VarDesc(f"p{k}", 8, pointer=True, pointee_size=var.size)
    return VarDesc(f"p{k}", var.size, pointer=var.pointer,
                   pointee_size=var.pointee_size)


def _lib_probes(rng: random.Random, plans: list[_WorkerPlan], upto: int,
                lib_params: list[VarDesc], allocs: list[int]) -> list[Statement]:
    """Probe statements for lib `upto`: read ancestors' frames and heap,
    write through own pointer params, scribble around."""
    stmts: list[Statement] = []
    for _ in range(rng.randint(1, 3)):
        victim = plans[rng.randint(0, upto)]
        fn_vars = victim.params + victim.locals
        roll = rng.random()
        if roll < 0.45 and fn_vars:
            var = rng.choice(fn_vars)
            stmts.append(ReadProbe(VarTarget(victim.name, var.name, 0), var.size))
        elif roll < 0.65:
            frame_size = sum(v.size for v in fn_vars)
            if frame_size >= 4:
                off = rng.randrange(0, max(frame_size - 4, 1))
                stmts.append(ReadProbe(FrameTarget(victim.name, off),
                                       min(rng.choice((4, 8)), frame_size - off)))
        elif roll < 0.8 and allocs:
            idx = rng.randrange(len(allocs))
            size = allocs[idx]
            off = rng.randrange(0, max(size - 4, 1))
            stmts.append(ReadProbe(HeapTarget(idx, off), min(8, size - off)))
        else:
            # Scribbles stay inside regions that are visible by design;
            # writing into a cleared region and reading the garbage back
            # would trip the leak check without revealing anything.
            writable = [v for v in fn_vars
                        if not v.pointer and slot_exposed(v, victim.mode)]
            if writable:
                var = rng.choice(writable)
                stmts.append(WriteProbe(VarTarget(victim.name, var.name, 0),
                                        _secret(rng, min(var.size, 8))))
    for param in lib_params:
        if param.pointer and rng.random() < 0.8:
            width = min(param.pointee_size or 8, 8)
            if rng.random() < 0.5:
                stmts.append(WriteProbe(DerefTarget(param.name, 0), _secret(rng, width)))
            else:
                stmts.append(ReadProbe(DerefTarget(param.name, 0), width))
    rng.shuffle(stmts)
    return stmts


def generate_raw(seed: int, index: int, config: FuzzConfig) \
        -> tuple[ProgramDesc, list[str], list[str]]:
    """The pre-instrumentation program plus untrusted and sensitive names."""
    rng = random.Random(scenario_seed(seed, index))
    depth = 1 if config.adversarial else rng.randint(1, config.max_chain)
    plans = _plan_workers(rng, config, depth)

    allocs: list[int] = []        # pointee sizes, in allocation order
    allocs_before: list[int] = []  # how many allocs exist when lib i runs
    for plan in plans:
        allocs_before.append(len(allocs) + sum(1 for v in plan.locals if v.pointer))
        allocs.extend(v.pointee_size or 8 for v in plan.locals if v.pointer)

    functions: list[FunctionDesc] = []
    for i, plan in enumerate(plans):
        lib_params = [_lib_param_for(plan, k, arg) for k, arg in enumerate(plan.args_out)]
        lib_body: list[Statement] = []
        if config.probes:
            lib_body.extend(_lib_probes(rng, plans, i, lib_params,
                                        allocs[:allocs_before[i]]))
        if plan.chain == "via_lib":
            lib_body.append(Call(plans[i + 1].name, ()))
            if config.probes and rng.random() < 0.5:
                nxt = plans[i + 1]
                nxt_vars = nxt.params + nxt.locals
                if nxt_vars:
                    var = rng.choice(nxt_vars)
                    lib_body.append(ReadProbe(VarTarget(nxt.name, var.name, 0), var.size))
        lib_body.append(Return())
        functions.append(FunctionDesc(name=plan.lib, params=tuple(lib_params),
                                      body=tuple(lib_body)))

        body: list[Statement] = []
        for v in plan.locals:
            if v.pointer:
                size = v.pointee_size or 8
                body.append(HeapAlloc(v.name, size, init=_secret(rng, size)))
            else:
                body.append(Assign(v.name, _secret(rng, v.size)))
        lib_call = Call(plan.lib, tuple(plan.args_out))
        body.append(lib_call)
        if plan.chain == "direct":
            # Trusted calls run outside any window, so any slot is readable.
            nxt = plans[i + 1]
            chain_args = (ValueArg(plan.locals[0].name),) if nxt.params else ()
            body.append(Call(nxt.name, chain_args))
        for _ in range(plan.lib_calls - 1):
            body.append(lib_call)
        if rng.random() < 0.85:
            body.append(Return())
        functions.append(FunctionDesc(name=plan.name, params=tuple(plan.params),
                                      locals=tuple(plan.locals), body=tuple(body),
                                      sensitivity=plan.mode))

    main_locals = []
    main_body: list[Statement] = []
    if plans[0].params:
        main_locals.append(VarDesc("seed0", 8))
        main_body.append(Assign("seed0", _secret(rng, 8)))
        main_body.append(Call(plans[0].name, (ValueArg("seed0"),)))
    else:
        main_body.append(Call(plans[0].name, ()))
    main_body.append(Return())
    functions.append(FunctionDesc(name="main", locals=tuple(main_locals),
                                  body=tuple(main_body)))

    program = ProgramDesc(functions=tuple(functions))
    untrusted = [f"{p.lib}({len(p.args_out)})" for p in plans]
    return program, untrusted, [p.name for p in plans]


def _inject_forged(program: ProgramDesc, lib_name: str, kind: str,
                   rng: random.Random) -> ProgramDesc:
    fn = program.function(lib_name)
    assert fn is not None
    live = len(fn.body)
    for i, stmt in enumerate(fn.body):
        if isinstance(stmt, Return):
            live = i
            break
    pos = rng.randint(0, live)
    if kind == "spoof_register_memory":
        forged = RuntimeCall("register_memory", target=AddressRef(HEAP_BASE),
                             length=16, read_only=False)
    elif kind == "forge_register_stack":
        forged = RuntimeCall("register_stack", all=True)
    elif kind == "spoof_stop_protect":
        forged = RuntimeCall("stop_protect")
    else:
        forged = RuntimeCall("unregister_stack")
    body = fn.body[:pos] + (forged,) + fn.body[pos:]
    functions = tuple(replace(f, body=body) if f.name == lib_name else f
                      for f in program.functions)
    return ProgramDesc(functions=functions, instrumented=True)


def generate_scenario(seed: int, index: int, config: FuzzConfig) -> Scenario:
    raw, untrusted, sensitive = generate_raw(seed, index, config)
    program = instrument(raw, *parse_lists("\n".join(untrusted), "\n".join(sensitive)))
    forged: tuple[str, ...] = ()
    if config.adversarial:
        rng = random.Random(scenario_seed(seed, index) ^ 0x5A5A_5A5A)
        kind = FORGERY_KINDS[index % len(FORGERY_KINDS)]
        program = _inject_forged(program, "lib0", kind, rng)
        forged = (kind,)
    return Scenario(index=index, seed=seed, raw=raw, program=program,
                    image_map=image_map_for(raw), entry="main",
                    untrusted=untrusted, sensitive=sensitive, forged=forged)


# ----------------------------------------------------------------------
# checking

def check_scenario(scenario: Scenario) -> tuple[ExecutionReport, list[str]]:
    """Run the scenario and return every invariant it violates."""
    table = load_image_map(scenario.image_map)
    ex = Executor(scenario.program, table)
    report = ex.run(scenario.entry)
    vault = ex.vault
    assert vault is not None
    problems = [f"fault: {f}" for f in report.faults]

    exceptions = list(vault.exception_log)
    others = [v for v in report.violations if not isinstance(v, VaultException)]
    if scenario.forged:
        expected = sorted(k for forged in scenario.forged
                          for k in _EXPECTED_DETECTION[forged])
        actual = sorted(v.kind for v in exceptions)
        if actual != expected:
            problems.append(f"expected detections {expected}, got "
                            f"{[(v.kind, v.detail) for v in exceptions]}")
        for v in others:
            problems.append(f"adversarial scenario broke protection: {v}")
    else:
        for v in report.violations:
            problems.append(f"violation: {v}")

    window_stuck = "forge_register_stack" in scenario.forged
    if not window_stuck:
        if vault.protect_list:
            problems.append(f"{len(vault.protect_list)} windows never closed")
        if vault.register_list:
            problems.append(f"{len(vault.register_list)} registrations never removed")
        if not vault.save_buffer.all_consumed():
            problems.append("save buffer holds unconsumed records")
        if vault.save_buffer.bytes_released != vault.save_buffer.bytes_produced:
            problems.append("save buffer released != produced")

    oracle = Executor(scenario.program, table, vault_factory=OracleVault)
    oracle.run(scenario.entry)
    if oracle.memory.content_signature() != ex.memory.content_signature():
        problems.append("final memory differs from snapshot oracle")
    oracle_kinds = [v.kind for v in oracle.vault.exception_log]  # type: ignore[union-attr]
    if oracle_kinds != [v.kind for v in vault.exception_log]:
        problems.append("exception log differs from snapshot oracle")
    return report, problems


# ----------------------------------------------------------------------
# shrinking

def _drop_statement(raw: ProgramDesc, fn_index: int, stmt_index: int) -> ProgramDesc:
    fn = raw.functions[fn_index]
    body = fn.body[:stmt_index] + fn.body[stmt_index + 1:]
    functions = raw.functions[:fn_index] + (replace(fn, body=body),) \
        + raw.functions[fn_index + 1:]
    return ProgramDesc(functions=functions)


def minimize(scenario: Scenario) -> Scenario:
    """Greedy shrink: repeatedly drop single statements from the raw
    program while the scenario still fails any invariant."""
    if scenario.forged:
        return scenario
    _, original = check_scenario(scenario)
    if not original:
        return scenario
    had_faults = any(p.startswith("fault:") for p in original)

    def still_failing(problems: list[str]) -> bool:
        if not problems:
            return False
        # A shrink must not trade the real failure for a fresh fault
        # (dropping an allocation can invalidate later probe targets).
        return had_faults or not all(p.startswith("fault:") for p in problems)

    lists = parse_lists("\n".join(scenario.untrusted), "\n".join(scenario.sensitive))
    best = scenario
    spent = 0
    improved = True
    while improved and spent < MINIMIZE_BUDGET:
        improved = False
        for fi, fn in enumerate(best.raw.functions):
            for si in range(len(fn.body)):
                if spent >= MINIMIZE_BUDGET:
                    break
                spent += 1
                raw = _drop_statement(best.raw, fi, si)
                try:
                    program = instrument(raw, *lists)
                    candidate = replace(best, raw=raw, program=program,
                                        image_map=image_map_for(raw))
                    _, problems = check_scenario(candidate)
                except Exception:
                    continue
                if still_failing(problems):
                    best = candidate
                    improved = True
                    break
            if improved:
                break
    return best


# ----------------------------------------------------------------------
# campaign

def fuzz(seed: int, config: FuzzConfig,
         minimize_findings: bool = True) -> CampaignResult:
    """Run the campaign in index order. Deterministic for a given
    (seed, config)."""
    started = time.monotonic()
    reports: list[ExecutionReport] = []
    findings: list[Finding] = []
    for index in range(config.scenarios):
        scenario = generate_scenario(seed, index, config)
        report, problems = check_scenario(scenario)
        reports.append(report)
        if problems:
            minimized = minimize(scenario) if minimize_findings else None
            findings.append(Finding(index=index, seed=seed, problems=problems,
                                    scenario=scenario, minimized=minimized))
    return CampaignResult(seed=seed, config=config, reports=reports,
                          findings=findings, elapsed=time.monotonic() - started)


# ----------------------------------------------------------------------
# counterexample files

def scenario_to_json(scenario: Scenario) -> str:
    doc = {
        "index": scenario.index,
        "seed": scenario.seed,
        "entry": scenario.entry,
        "untrusted": scenario.untrusted,
        "sensitive": scenario.sensitive,
        "forged": list(scenario.forged),
        "image_map": scenario.image_map,
        "raw": program_to_dict(scenario.raw),
        "program": program_to_dict(scenario.program),
    }
    return json.dumps(doc, indent=2) + "\n"


# Every key a counterexample file must carry, with its JSON type; list
# items are strings.
_SCENARIO_KEYS = {"index": int, "seed": int, "entry": str, "untrusted": list,
                  "sensitive": list, "forged": list, "image_map": str,
                  "raw": dict, "program": dict}


def scenario_from_json(text: str) -> Scenario:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ProgramFormatError("scenario: document must be an object")
    for key, kind in _SCENARIO_KEYS.items():
        if key not in doc:
            raise ProgramFormatError(f"scenario: missing key {key!r}")
        value = doc[key]
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(item, str) for item in value)):
            what = "a list of strings" if kind is list else f"of type {kind.__name__}"
            raise ProgramFormatError(f"scenario: key {key!r} must be {what}")
    unknown = set(doc["forged"]) - set(FORGERY_KINDS)
    if unknown:
        raise ProgramFormatError(f"scenario: unknown forgery kinds {sorted(unknown)}")
    return Scenario(index=doc["index"], seed=doc["seed"],
                    raw=program_from_dict(doc["raw"]),
                    program=program_from_dict(doc["program"]),
                    image_map=doc["image_map"], entry=doc["entry"],
                    untrusted=list(doc["untrusted"]),
                    sensitive=list(doc["sensitive"]),
                    forged=tuple(doc["forged"]))
