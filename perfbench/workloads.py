"""The benchmark's three workloads.

Each workload turns a seed into inputs, runs one operation at a time
through the public `framevault` API (one closed-loop client, no threads,
no process pool) and checks every operation's output against a reference
that set-up computed. Inputs are generated here from the seed alone; the
program under test only ever sees the generated program text, image map
and scenario objects.

- campaign: the fuzz user's loop, `generate_scenario` then
  `check_scenario`, every 4th scenario adversarial.
- bigframe: what `framevault diff` does, minus file I/O, on one sensitive
  frame of 16 KiB to 512 KiB.
- deepnest: `run_native` then `run` on a chain of 16 to 62 sensitive
  workers, each calling an untrusted lib that calls the next worker.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import framevault as fv
from framevault.memory import FRAME_METADATA_BYTES
from framevault.program import (AddrOfArg, Annotation, AnnotationKind, Assign, Call,
                                DerefTarget, FrameTarget, FunctionDesc, ProgramDesc,
                                ReadProbe, Return, Sensitivity, VarDesc, WriteProbe)

clock = time.perf_counter

# Inputs per bigframe/deepnest pass. Sizes and chain lengths are drawn
# stratified (one draw per equal slice of the range), so every seed covers
# the whole range and the latency percentiles depend on the seed only
# through the draws inside each slice.
PROGRAMS_PER_PASS = 32
CAMPAIGN_PASS = 64

BIGFRAME_MIN, BIGFRAME_MAX = 16 * 1024, 512 * 1024
DEEPNEST_MIN, DEEPNEST_MAX = 16, 62
DEEPNEST_FRAME_MIN, DEEPNEST_FRAME_MAX = 64, 1024

CLEAN = fv.FuzzConfig()
ADVERSARIAL = fv.FuzzConfig(adversarial=True)


@dataclass
class Timing:
    """Host seconds of one operation, and of its protected and native
    `run` calls where the operation makes them."""

    op_s: float
    protected_s: float
    native_s: float


@dataclass
class Case:
    """One generated program plus the reference set-up computed for it."""

    name: str
    program_json: str
    image_map: str
    native_secret: int        # non-zero bytes the lib reads when unprotected
    entry: str = "main"
    program: ProgramDesc | None = None
    table: fv.IdentityTable | None = None
    diff: str = ""
    report: str = ""
    stats: dict = field(default_factory=dict)
    signature: dict = field(default_factory=dict)


def _secret(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size).replace(b"\x00", b"\x01")


def _stratified(rng: random.Random, k: int, n: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (k + rng.random()) / n


def _finish(name: str, raw: ProgramDesc, libs: list[str], native_secret: int) -> Case:
    untrusted = frozenset(fv.Prototype(lib, 1) for lib in libs)
    sensitive = frozenset(fn.name for fn in raw.functions
                          if fn.sensitivity is not Sensitivity.NONE)
    program = fv.instrument(raw, untrusted, sensitive)
    return Case(name=name, program_json=fv.emit(program), image_map=fv.image_map_for(raw),
                native_secret=native_secret)


def _holder(name: str, mode: Sensitivity, secret: bytes, carve: int, lib: str) \
        -> FunctionDesc:
    """A sensitive function with one secret buffer and one carve-out whose
    address it hands to `lib`. Fine-grained mode annotates the buffer."""
    annotation = Annotation(AnnotationKind.SENSITIVE) if mode is Sensitivity.FINEGRAINED else None
    return FunctionDesc(
        name=name, sensitivity=mode,
        locals=(VarDesc("secret", len(secret), annotation=annotation), VarDesc("carve", carve)),
        body=(Assign("secret", secret), Call(lib, (AddrOfArg("carve"),)), Return()))


def _lib(name: str, carve: int, reads: list[ReadProbe], fill: bytes, then: tuple = ()) \
        -> FunctionDesc:
    """An untrusted lib: reads, then writes its caller's carve-out."""
    return FunctionDesc(
        name=name, params=(VarDesc("p0", 8, pointer=True, pointee_size=carve),),
        body=tuple(reads) + (WriteProbe(DerefTarget("p0", 0), fill),) + then + (Return(),))


def bigframe_cases(seed: int) -> list[Case]:
    """Programs with one sensitive frame of 16 KiB to 512 KiB (log-uniform).
    The lib reads the whole frame, then writes the carve-out, which is
    8 B, 4 KiB or a quarter of the frame. Half are whole-frame, half
    fine-grained."""
    rng = random.Random(f"bigframe:{seed}")
    lo, hi = math.log(BIGFRAME_MIN), math.log(BIGFRAME_MAX)
    cases = []
    for k in range(PROGRAMS_PER_PASS):
        # Mode and carve-out follow the size slice, not the seed: the large
        # frames dominate the pass, and their mix must not change by seed.
        size = int(math.exp(_stratified(rng, k, PROGRAMS_PER_PASS, lo, hi)))
        mode = (Sensitivity.ALL, Sensitivity.FINEGRAINED)[k % 2]
        carve = (8, 4096, (size + FRAME_METADATA_BYTES) // 3)[k % 3]
        frame = size + carve + FRAME_METADATA_BYTES
        holder = _holder("holder", mode, _secret(rng, size), carve, "lib")
        lib = _lib("lib", carve, [ReadProbe(FrameTarget("holder", 0), frame)],
                   _secret(rng, carve))
        main = FunctionDesc(name="main", body=(Call("holder", ()), Return()))
        raw = ProgramDesc(functions=(lib, holder, main))
        cases.append(_finish(f"bigframe-{k}-{mode.value}-{size}-{carve}", raw, ["lib"], size))
    rng.shuffle(cases)
    return cases


def deepnest_cases(seed: int) -> list[Case]:
    """Chains worker0 -> lib0 -> worker1 -> ... of 16 to 62 sensitive
    workers with 64 B to 1 KiB frames in mixed modes. Each lib reads
    slices of its own and its ancestors' secret buffers, writes its
    caller's carve-out, then calls the next worker."""
    rng = random.Random(f"deepnest:{seed}")
    flo, fhi = math.log(DEEPNEST_FRAME_MIN), math.log(DEEPNEST_FRAME_MAX)
    span = DEEPNEST_MAX - DEEPNEST_MIN + 1
    cases = []
    for k in range(PROGRAMS_PER_PASS):
        depth = DEEPNEST_MIN + int(_stratified(rng, k, PROGRAMS_PER_PASS, 0, span))
        sizes = []
        functions: list[FunctionDesc] = []
        native_secret = 0
        for j in range(depth):
            frame = int(math.exp(rng.uniform(flo, fhi)))
            carve = rng.choice((8, 16))
            sizes.append(frame - carve - FRAME_METADATA_BYTES)
            mode = rng.choice((Sensitivity.ALL, Sensitivity.FINEGRAINED))
            reads = []
            for victim in sorted({j, rng.randrange(j + 1), rng.randrange(j + 1)}):
                off = rng.randrange(sizes[victim])
                length = rng.randint(1, sizes[victim] - off)
                reads.append(ReadProbe(FrameTarget(f"worker{victim}", off), length))
                native_secret += length
            then = (Call(f"worker{j + 1}", ()),) if j + 1 < depth else ()
            functions.append(_holder(f"worker{j}", mode, _secret(rng, sizes[j]), carve,
                                     f"lib{j}"))
            functions.append(_lib(f"lib{j}", carve, reads, _secret(rng, carve), then))
        functions.append(FunctionDesc(name="main", body=(Call("worker0", ()), Return())))
        raw = ProgramDesc(functions=tuple(functions))
        cases.append(_finish(f"deepnest-{k}-{depth}", raw, [f"lib{j}" for j in range(depth)],
                             native_secret))
    rng.shuffle(cases)
    return cases


def campaign_scenario(seed: int, i: int) -> fv.Scenario:
    """Scenario i of the campaign: every 4th one adversarial, with the
    forgery kind rotating by its index inside the fuzzer."""
    if i % 4 == 3:
        return fv.generate_scenario(seed, i // 4, ADVERSARIAL)
    return fv.generate_scenario(seed, i, CLEAN)


# ----------------------------------------------------------------------
# references and checks

def prepare(case: Case) -> None:
    """Parse the case and compute its reference with the real runtime,
    plus the final memory of a snapshot-oracle run of the same input."""
    case.program = fv.parse(case.program_json)
    case.table = fv.load_image_map(case.image_map)
    native = fv.run_native(case.program, case.table, case.entry)
    protected = fv.run(case.program, case.table, case.entry)
    oracle = fv.Executor(case.program, case.table, vault_factory=fv.OracleVault)
    oracle.run(case.entry)
    case.diff = fv.render_diff(native, protected)
    case.report = fv.render_report(protected)
    case.stats = protected.stats.as_dict()
    case.signature = oracle.memory.content_signature()


def check_case(case: Case, native: fv.ExecutionReport, protected: fv.ExecutionReport,
               executor: fv.Executor, diff: str) -> list[str]:
    problems = []
    if diff != case.diff:
        problems.append("rendered diff differs from the reference")
    if fv.render_report(protected) != case.report:
        problems.append("rendered protected report differs from the reference")
    seen = fv.secret_bytes_observed(protected)
    if seen:
        problems.append(f"protected run observed {seen} secret bytes")
    seen = fv.secret_bytes_observed(native)
    if seen != case.native_secret:
        problems.append(f"native run observed {seen} secret bytes, "
                        f"generated {case.native_secret}")
    if protected.stats.as_dict() != case.stats:
        problems.append("syscall statistics differ from the reference")
    if executor.memory.content_signature() != case.signature:
        problems.append("final memory differs from the snapshot oracle")
    return [f"{case.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# workloads

class Workload:
    """`setup` generates the inputs and their references; `items` lists
    the operations of one pass; `op` runs one and returns its timing and
    outputs; `check` returns the problems found in those outputs."""

    name = ""
    traced_passes = 2   # passes the traced run makes; counts cover exactly these

    def __init__(self, seed: int, vault_factory=fv.VaultState):
        self.seed = seed
        self.vault_factory = vault_factory

    def setup(self) -> None:
        raise NotImplementedError

    def items(self, pass_no: int) -> list:
        raise NotImplementedError

    def op(self, item) -> tuple[Timing, tuple]:
        raise NotImplementedError

    def check(self, item, outputs: tuple) -> list[str]:
        raise NotImplementedError

    def warm_up(self, items: list) -> None:
        """Operations and checks run before timing; the timed loop counts
        any failure they would show."""
        for item in items:
            self.check(item, self.op(item)[1])


class Campaign(Workload):
    name = "campaign"
    traced_passes = 4

    def setup(self) -> None:
        self.warm_up(self.items(0))

    def items(self, pass_no: int) -> list[int]:
        return [pass_no * CAMPAIGN_PASS + j for j in range(CAMPAIGN_PASS)]

    def op(self, i: int) -> tuple[Timing, tuple]:
        t0 = clock()
        scenario = campaign_scenario(self.seed, i)
        report, problems = fv.check_scenario(scenario)
        t1 = clock()
        # The unprotected counterfactual of the same scenario, timed apart
        # from the operation, gives the small-frame protected/native ratio.
        table = fv.load_image_map(scenario.image_map)
        t2 = clock()
        fv.run_native(scenario.program, table, scenario.entry)
        t3 = clock()
        protected = fv.Executor(scenario.program, table,
                                vault_factory=self.vault_factory).run(scenario.entry)
        t4 = clock()
        return Timing(t1 - t0, t4 - t3, t3 - t2), (report, problems, protected)

    def check(self, i: int, outputs: tuple) -> list[str]:
        report, problems, protected = outputs
        out = [f"scenario {i}: {p}" for p in problems]
        if fv.render_report(protected) != fv.render_report(report):
            out.append(f"scenario {i}: standalone run differs from check_scenario's run")
        return out


class _CaseWorkload(Workload):
    """A workload over a fixed pass of generated programs (`make_cases`)."""

    def setup(self) -> None:
        self.cases = self.make_cases(self.seed)
        for case in self.cases:
            prepare(case)
        self.warm_up(self.cases[:4])

    def items(self, pass_no: int) -> list[Case]:
        return self.cases

    def check(self, case: Case, outputs: tuple) -> list[str]:
        return check_case(case, *outputs)


class Bigframe(_CaseWorkload):
    """`framevault diff` minus file I/O: parse, load the image map,
    run_native, run, render_diff."""

    name = "bigframe"
    make_cases = staticmethod(bigframe_cases)

    def op(self, case: Case) -> tuple[Timing, tuple]:
        t0 = clock()
        program = fv.parse(case.program_json)
        table = fv.load_image_map(case.image_map)
        t1 = clock()
        native = fv.run_native(program, table, case.entry)
        t2 = clock()
        executor = fv.Executor(program, table, vault_factory=self.vault_factory)
        protected = executor.run(case.entry)
        t3 = clock()
        diff = fv.render_diff(native, protected)
        t4 = clock()
        return Timing(t4 - t0, t3 - t2, t2 - t1), (native, protected, executor, diff)


class Deepnest(_CaseWorkload):
    """run_native then run on a parsed chain program."""

    name = "deepnest"
    make_cases = staticmethod(deepnest_cases)

    def op(self, case: Case) -> tuple[Timing, tuple]:
        t0 = clock()
        native = fv.run_native(case.program, case.table, case.entry)
        t1 = clock()
        executor = fv.Executor(case.program, case.table, vault_factory=self.vault_factory)
        protected = executor.run(case.entry)
        t2 = clock()
        return Timing(t2 - t0, t2 - t1, t1 - t0), (native, protected, executor, None)

    def check(self, case: Case, outputs: tuple) -> list[str]:
        native, protected, executor, _ = outputs
        return check_case(case, native, protected, executor, fv.render_diff(native, protected))


WORKLOADS = {w.name: w for w in (Campaign, Bigframe, Deepnest)}
