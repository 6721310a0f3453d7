"""Span tracing of framevault's layers from outside the package.

`Tracer.install()` replaces each layer's public functions and methods
with wrappers that record one span per call: name, start, end, parent
span and operation id. Nothing under `src/` changes; the wrappers are
removed again by `Tracer.uninstall()`. Spans stay in memory until
`write()`. A span's self time is its duration minus the time its direct
child spans cover, so the self times of all spans under one root add up
to the root's duration.

Byte counts are taken where the work happens: the wrapper of each memory
call and runtime call reads the sizes from its arguments, its result or
the runtime's public statistics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import framevault as fv
from framevault.program import RUNTIME_CALLS

clock = time.perf_counter

MIB = 1024 * 1024

MEMORY_CALLS = ("read_bytes", "write_bytes", "clear_region", "push_frame", "dump_pages",
                "content_signature")
MEMORY_BYTE_CALLS = ("read_bytes", "write_bytes", "clear_region", "dump_pages")
# Module-level functions: (layer, name in the framevault package).
FUNCTIONS = (("identity", "load_image_map"), ("program", "parse"),
             ("instrument", "instrument"), ("fuzzer", "generate_scenario"),
             ("fuzzer", "check_scenario"), ("reporting", "render_diff"),
             ("reporting", "render_report"))


def _memory_bytes(call: str, args: tuple, result) -> int:
    if call in ("read_bytes", "clear_region"):
        return args[2]
    if call == "write_bytes":
        return len(args[2])
    return sum(len(page) for page in result.values())  # dump_pages


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []        # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, fn, name, before=None, after=None):
        """Wrap fn in a span. `name` is a string or a function of the call's
        arguments. `before(label, args)` runs ahead of the call and
        `after(label, args, result, state)` after it, with `state` what
        `before` returned; they count the work the call did."""
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            state = before(label, args) if before is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, tracer.op)
            if after is not None:
                after(label, args, result, state)
            return result
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # per-layer counters

    def _count_memory(self, label, args, result, state) -> None:
        self.counts[label + ".bytes"] += _memory_bytes(label.split(".")[1], args, result)

    def _runtime_before(self, label, args):
        vault = args[0]
        if not label.startswith("runtime."):
            return None
        return (vault.stats.bytes_copied, vault.stats.bytes_cleared,
                vault.save_buffer.bytes_released, len(vault.exception_log))

    def _count_runtime(self, label, args, result, state) -> None:
        if not label.startswith("runtime."):
            return
        vault, counts = args[0], self.counts
        copied, cleared, released, rejected = state
        saved = vault.stats.bytes_copied - copied
        restored = vault.save_buffer.bytes_released - released
        counts["runtime.bytes_saved"] += saved
        counts["runtime.bytes_cleared"] += vault.stats.bytes_cleared - cleared
        counts["runtime.rejected_calls"] += len(vault.exception_log) - rejected
        if label == "runtime.start_protect":
            counts["runtime.start_protect.bytes"] += saved
            live = vault.save_buffer.bytes_produced - vault.save_buffer.bytes_released
            counts["runtime.save_buffer.peak_bytes"] = max(
                counts["runtime.save_buffer.peak_bytes"], live)
        elif label == "runtime.stop_protect":
            counts["runtime.bytes_restored"] += restored
            counts["runtime.stop_protect.bytes"] += restored

    def _count_executor(self, label, args, result, state) -> None:
        self.counts["executor.probe_read_bytes"] += sum(
            o.length for o in result.observations if o.kind == "read")

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the package."""
        for call in MEMORY_CALLS:
            self._patch(fv.ProcessMemory, call,
                        self._wrap(getattr(fv.ProcessMemory, call), f"memory.{call}",
                                   after=(self._count_memory if call in MEMORY_BYTE_CALLS
                                          else None)))
        self._patch(fv.IdentityTable, "resolve",
                    self._wrap(fv.IdentityTable.resolve, "identity.resolve"))
        self._patch(fv.ProgramDesc, "function",
                    self._wrap(fv.ProgramDesc.function, "program.function"))
        self._patch(fv.FunctionDesc, "var", self._wrap(fv.FunctionDesc.var, "program.var"))

        # Calls on an OracleVault are the oracle's; the rest are the runtime's.
        for call in RUNTIME_CALLS:
            def label(args, call=call):
                layer = "oracle" if isinstance(args[0], fv.OracleVault) else "runtime"
                return f"{layer}.{call}"
            self._patch(fv.VaultState, call,
                        self._wrap(getattr(fv.VaultState, call), label,
                                   before=self._runtime_before, after=self._count_runtime))

        self._patch(fv.Executor, "run", self._wrap(
            fv.Executor.run,
            lambda args: "executor.run_native" if args[0].native else "executor.run_protected",
            after=self._count_executor))

        modules = [m for name, m in sys.modules.items()
                   if name == "framevault" or name.startswith("framevault.")]
        for layer, name in FUNCTIONS:
            original = getattr(fv, name)
            wrapped = self._wrap(original, f"{layer}.{name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def summary(self) -> tuple[Counter, dict, dict]:
        """Calls, self seconds and inclusive seconds per span name."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[idx]
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child[idx]
            total_s[name] += duration
            if parent >= 0:
                child[parent] += duration
        return calls, self_s, total_s

    def write(self, path, header: dict) -> None:
        """One JSON line of run metadata, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(tracer: Tracer, summary) -> dict[str, float]:
    """Every per-layer metric the trace supports, by name, from the
    tracer's counts and its `summary()`."""
    calls, self_s, total_s = summary
    counts = tracer.counts
    names = ([f"memory.{c}" for c in MEMORY_CALLS]
             + ["identity.resolve", "program.function", "program.var", "executor.run_native",
                "executor.run_protected"]
             + [f"{layer}.{name}" for layer, name in FUNCTIONS]
             + [f"{layer}.{call}" for layer in ("runtime", "oracle") for call in RUNTIME_CALLS])
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for call in MEMORY_BYTE_CALLS:
        out[f"memory.{call}.bytes"] = counts[f"memory.{call}.bytes"]
    for short, call in (("read", "read_bytes"), ("write", "write_bytes"),
                        ("clear", "clear_region")):
        seconds = total_s[f"memory.{call}"]
        out[f"memory.{short}_mib_per_s"] = (
            counts[f"memory.{call}.bytes"] / MIB / seconds if seconds else 0.0)
    for call in ("start_protect", "stop_protect"):
        seconds = total_s[f"runtime.{call}"]
        out[f"runtime.{call}.mib_per_s"] = (
            counts[f"runtime.{call}.bytes"] / MIB / seconds if seconds else 0.0)
    for key in ("runtime.bytes_saved", "runtime.bytes_cleared", "runtime.bytes_restored",
                "runtime.rejected_calls", "runtime.save_buffer.peak_bytes",
                "executor.probe_read_bytes"):
        out[key] = counts[key]
    bench = sum(s for name, s in self_s.items() if name.startswith("bench."))
    out["bench.self_s"] = bench
    out["layers.self_s"] = sum(self_s.values()) - bench
    return out


def layer_shares(summary) -> dict[str, float]:
    """Self seconds per layer (the span name's first part)."""
    _, self_s, _ = summary
    shares: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        shares[name.split(".")[0]] += seconds
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
