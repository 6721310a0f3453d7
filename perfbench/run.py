"""framevault benchmark.

    python3 perfbench/run.py --workload {campaign,bigframe,deepnest} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`. One process, one closed-loop client, no threads; all timings are
host time (`time.perf_counter`).

The run sets the workload up SETUP_REPEATS times from the seed (input
generation, instrumentation, reference computation, warm-up) and reports
the median as `setup_s`. It then runs whole passes over the workload's
operations until `--seconds` have elapsed, checking every operation's
output. With `--trace 0` the last line of standard output is a JSON
object holding the end-to-end metrics named in BENCHMARK.json. With
`--trace 1` a fixed number of traced passes follows the timed loop, each
after an untraced pass over the same operations, and the JSON object holds
the per-layer metrics instead; the spans are written to
perfbench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 5
# Self times of all spans must cover the traced wall time to this share.
ACCOUNTING_TOLERANCE = 0.01

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_framevault():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "framevault" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: error: no framevault sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import framevault
    if not pathlib.Path(framevault.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: error: framevault imported from {framevault.__file__}")


class Loop:
    """Timed operations and their check results."""

    def __init__(self) -> None:
        self.timings = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, workload, pass_no: int, tracer=None) -> None:
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        for item in workload.items(pass_no):
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            try:
                with span("bench.op"):
                    timing, outputs = workload.op(item)
                with span("bench.check"):
                    problems = workload.check(item, outputs)
            except Exception:  # a crashing operation is a failed one
                problems = [traceback.format_exc()]
            else:
                self.timings.append(timing)
            if problems:
                self.failed += 1
                self.problems.append("; ".join(problems))

    def op_ms(self) -> list[float]:
        return [t.op_s * 1e3 for t in self.timings]


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    op_ms = loop.op_ms()
    protected = [t.protected_s for t in loop.timings]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "protected_ms_p50": statistics.median(protected) * 1e3,
        "overhead_x": sum(protected) / sum(t.native_s for t in loop.timings),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_framevault()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous set-up's inputs before timing the next
        started = clock()
        workload = make(args.seed)
        workload.setup()
        setup_times.append(clock() - started)

    loop = Loop()
    started = clock()
    pass_no = 0
    while clock() - started < args.seconds:
        loop.run_pass(workload, pass_no)
        pass_no += 1
    if not loop.timings:
        raise SystemExit("perfbench: error: no operation completed")
    metrics = end_to_end(loop, setup_times)
    attempted, failed, problems = loop.attempted, loop.failed, list(loop.problems)

    print(f"workload {args.workload}  seed {args.seed}  passes {pass_no}  "
          f"operations {loop.attempted}  samples {len(loop.timings)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:<20} {value:.6g} {units[name]}")
    print(f"  {'failed_ops_frac':<20} {loop.failed / loop.attempted:.6g} frac")

    correct = True
    if args.trace:
        # Untraced and traced passes alternate over the same operations, so
        # the tracing overhead is not confounded by the host's speed drift.
        plain, traced = Loop(), Loop()
        tracer = tracing.Tracer()
        wall = 0.0
        for pass_no in range(workload.traced_passes):
            plain.run_pass(workload, pass_no)
            tracer.install()
            try:
                wall_start = clock()
                with tracer.span("bench.pass"):
                    traced.run_pass(workload, pass_no, tracer)
                wall += clock() - wall_start
            finally:
                tracer.uninstall()
        summary = tracer.summary()
        layer = tracing.layer_metrics(tracer, summary)
        layer["trace.overhead_frac"] = (statistics.median(traced.op_ms())
                                        / statistics.median(plain.op_ms()) - 1)
        layer["trace.accounted_frac"] = (layer["bench.self_s"] + layer["layers.self_s"]) / wall
        correct = abs(layer["trace.accounted_frac"] - 1) <= ACCOUNTING_TOLERANCE
        for extra in (plain, traced):
            attempted += extra.attempted
            failed += extra.failed
            problems += extra.problems

        print(f"traced: {traced.attempted} operations, wall {wall:.4f} s, "
              f"self time by layer:")
        for name, seconds in tracing.layer_shares(summary).items():
            print(f"  {name:<12} {seconds:.6f} s  {seconds / wall:7.2%}")
        for name, value in layer.items():
            print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
        path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "fields": ["name", "start", "end", "parent", "op"]})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        metrics = layer

    for problem in problems[:5]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
