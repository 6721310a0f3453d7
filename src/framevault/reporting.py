"""Stable text and JSON rendering of execution reports.

Every rendering is deterministic for identical inputs: fixed field order,
no timestamps, no environment-dependent content. Golden tests and CI
diffing rely on byte-identical output, so changes here are breaking and
must bump the version header.
"""

from __future__ import annotations

import json
from typing import Any

from .executor import ExecutionReport, IntegrityBreach, Leak, secret_bytes_observed
from .fuzzer import CampaignResult
from .runtime import SyscallStats, VaultException

REPORT_VERSION = "framevault report v1"

_SYSCALL_COLUMNS = ("register_stack", "register_memory", "register_memory_exception",
                    "unregister_stack", "start_protect", "stop_protect", "Total")


def stats_table(stats: SyscallStats) -> list[str]:
    """Per-syscall counts as one header row and one value row, then the
    byte traffic lines."""
    values = [stats.register_stack, stats.register_memory,
              stats.register_memory_exception, stats.unregister_stack,
              stats.start_protect, stats.stop_protect, stats.total]
    header = "  ".join(_SYSCALL_COLUMNS)
    row = "  ".join(str(v).rjust(len(name))
                    for name, v in zip(_SYSCALL_COLUMNS, values))
    return [header, row,
            f"bytes copied   {stats.bytes_copied}",
            f"bytes cleared  {stats.bytes_cleared}"]


def _provenance_lines(counts: dict[str, int]) -> list[str]:
    if not counts:
        return []
    width = max(len(k) for k in counts)
    return ["provenance"] + [f"  {k.ljust(width)}  {v}" for k, v in counts.items()]


def _violation_line(v: Leak | IntegrityBreach | VaultException) -> str:
    if isinstance(v, Leak):
        return (f"  leak       window {v.window}  {v.function}  addr {v.address:#x}"
                f"  len {v.length}  secret bytes {v.secret_bytes}")
    if isinstance(v, IntegrityBreach):
        return (f"  integrity  window {v.window}  addr {v.address:#x}"
                f"  len {v.length}  {v.detail}")
    return (f"  exception  {v.kind.value}  {v.syscall}  pc {v.caller_pc:#x}"
            f"  {v.detail}")


def render_report(report: ExecutionReport) -> str:
    lines = [REPORT_VERSION,
             f"mode: {report.mode}",
             f"entry: {report.entry}",
             f"halted: {'yes' if report.halted else 'no'}",
             f"violations: {len(report.violations)}"]
    lines.extend(_violation_line(v) for v in report.violations)
    lines.append(f"faults: {len(report.faults)}")
    lines.extend(f"  {f}" for f in report.faults)
    lines.append(f"observations: {len(report.observations)}")
    for o in report.observations:
        window = f"window {o.window}" if o.window is not None else "no window"
        lines.append(f"  {o.kind.ljust(5)}  {o.function}  {window}  "
                     f"addr {o.address:#x}  len {o.length}  nonzero {o.nonzero}  "
                     f"bytes {o.preview or '-'}")
    lines.append(f"secret bytes observed: {secret_bytes_observed(report)}")
    lines.extend(stats_table(report.stats))
    lines.extend(_provenance_lines(report.provenance_counts))
    lines.append(f"diagnostics: {len(report.diagnostics)}")
    lines.extend(f"  {d}" for d in report.diagnostics)
    lines.append(f"final digest: {report.final_digest}")
    return "\n".join(lines) + "\n"


def render_stats(report: ExecutionReport) -> str:
    """The per-syscall count table of a protected run."""
    lines = [REPORT_VERSION, "mode: stats", f"entry: {report.entry}"]
    lines.extend(stats_table(report.stats))
    lines.extend(_provenance_lines(report.provenance_counts))
    return "\n".join(lines) + "\n"


def render_diff(native: ExecutionReport, protected: ExecutionReport) -> str:
    """Side-by-side exposure comparison: what untrusted reads collected
    without protection versus with it."""
    native_seen = secret_bytes_observed(native)
    protected_seen = secret_bytes_observed(protected)
    lines = [REPORT_VERSION,
             "mode: diff",
             f"entry: {protected.entry}",
             f"secret bytes observed (native):    {native_seen}",
             f"secret bytes observed (protected): {protected_seen}",
             f"protection delta:                  {native_seen - protected_seen}",
             f"violations (protected): {len(protected.violations)}"]
    lines.extend(_violation_line(v) for v in protected.violations)
    lines.extend(stats_table(protected.stats))
    lines.extend(_provenance_lines(protected.provenance_counts))
    return "\n".join(lines) + "\n"


def render_campaign(result: CampaignResult) -> str:
    lines = [REPORT_VERSION,
             "mode: fuzz",
             f"seed: {result.seed}",
             f"scenarios: {result.config.scenarios}",
             f"max chain depth: {result.config.max_chain}",
             f"probes: {'yes' if result.config.probes else 'no'}",
             f"adversarial: {'yes' if result.config.adversarial else 'no'}",
             f"findings: {len(result.findings)}"]
    for finding in result.findings:
        lines.append(f"finding: scenario {finding.index} (seed {finding.seed})")
        lines.extend(f"  {p}" for p in finding.problems)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON forms

def _violation_dict(v: Leak | IntegrityBreach | VaultException) -> dict[str, Any]:
    if isinstance(v, Leak):
        return {"type": "leak", "window": v.window, "function": v.function,
                "addr": v.address, "len": v.length, "secret_bytes": v.secret_bytes,
                "detail": v.detail}
    if isinstance(v, IntegrityBreach):
        return {"type": "integrity", "window": v.window, "addr": v.address,
                "len": v.length, "detail": v.detail}
    return {"type": "exception", "kind": v.kind.value, "syscall": v.syscall,
            "caller_pc": v.caller_pc, "detail": v.detail}


def report_to_dict(report: ExecutionReport) -> dict[str, Any]:
    return {
        "version": REPORT_VERSION,
        "mode": report.mode,
        "entry": report.entry,
        "halted": report.halted,
        "violations": [_violation_dict(v) for v in report.violations],
        "faults": list(report.faults),
        "observations": [{"kind": o.kind, "function": o.function, "window": o.window,
                          "addr": o.address, "len": o.length, "nonzero": o.nonzero,
                          "bytes": o.preview}
                         for o in report.observations],
        "secret_bytes_observed": secret_bytes_observed(report),
        "stats": report.stats.as_dict(),
        "provenance": dict(report.provenance_counts),
        "diagnostics": list(report.diagnostics),
        "final_digest": report.final_digest,
    }


def diff_to_dict(native: ExecutionReport, protected: ExecutionReport) -> dict[str, Any]:
    native_seen = secret_bytes_observed(native)
    protected_seen = secret_bytes_observed(protected)
    return {
        "version": REPORT_VERSION,
        "mode": "diff",
        "entry": protected.entry,
        "native_secret_bytes": native_seen,
        "protected_secret_bytes": protected_seen,
        "protection_delta": native_seen - protected_seen,
        "native": report_to_dict(native),
        "protected": report_to_dict(protected),
    }


def campaign_to_dict(result: CampaignResult) -> dict[str, Any]:
    return {
        "version": REPORT_VERSION,
        "mode": "fuzz",
        "seed": result.seed,
        "scenarios": result.config.scenarios,
        "max_chain": result.config.max_chain,
        "probes": result.config.probes,
        "adversarial": result.config.adversarial,
        "findings": [{"index": f.index, "seed": f.seed, "problems": list(f.problems)}
                     for f in result.findings],
    }


def to_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"
