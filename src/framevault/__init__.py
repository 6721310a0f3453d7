"""Stack-frame secret protection: a simulated runtime that hides a
function's sensitive memory from untrusted callees and verifies it got
every byte back.

The pipeline: describe a program (`program`), insert protection calls
from annotations (`instrument`), execute over simulated memory with
synthesized program-counter identity (`executor`, `memory`, `identity`,
`runtime`), and check the whole machine against a page-dump reference
runtime (`oracle`) and randomized adversaries (`fuzzer`).
"""

from .executor import (ExecutionReport, Executor, IntegrityBreach, Leak, Observation,
                       image_map_for, run, run_native, secret_bytes_observed)
from .fuzzer import (CampaignResult, Finding, FuzzConfig, Scenario, check_scenario,
                     fuzz, generate_scenario, minimize)
from .identity import (FunctionSpan, IdentityTable, ImageMapError, load_image_map,
                       synthesize_image_map)
from .instrument import (AnnotationError, ListParseError, Prototype, instrument,
                         parse_lists, provenance_listing)
from .memory import (FRAME_METADATA_BYTES, HEAP_BASE, MemoryFault, ProcessMemory,
                     STACK_BASE, TEXT_BASE)
from .oracle import OracleVault
from .program import (FunctionDesc, ProgramDesc, ProgramFormatError, Sensitivity,
                      VarDesc, emit, parse)
from .reporting import render_campaign, render_diff, render_report, stats_table
from .runtime import (ExceptionKind, ProtectEntry, SaveBuffer, StackEntry,
                      SyscallStats, VaultException, VaultState)

__version__ = "0.1.0"

__all__ = [
    "CampaignResult", "ExceptionKind", "ExecutionReport", "Executor", "Finding",
    "FunctionDesc", "FunctionSpan", "FuzzConfig", "IdentityTable", "ImageMapError",
    "IntegrityBreach", "Leak", "ListParseError", "MemoryFault", "Observation",
    "OracleVault", "ProcessMemory", "ProgramDesc", "ProgramFormatError",
    "ProtectEntry", "Prototype", "SaveBuffer", "Scenario", "Sensitivity",
    "StackEntry", "SyscallStats", "VarDesc", "VaultException", "VaultState",
    "AnnotationError", "check_scenario", "emit", "fuzz", "generate_scenario",
    "image_map_for", "instrument", "load_image_map", "minimize", "parse",
    "parse_lists", "provenance_listing", "render_campaign", "render_diff",
    "render_report", "run", "run_native",
    "secret_bytes_observed", "stats_table", "synthesize_image_map",
    "FRAME_METADATA_BYTES", "HEAP_BASE", "STACK_BASE", "TEXT_BASE",
]
