"""Command line front end.

Subcommands mirror the pipeline: instrument an annotated program, run it
protected or native, diff the two, or fuzz the runtime. Exit codes: 0
clean, 1 protection violation, run fault or fuzz finding, 2 usage or
input errors. Output files are byte-identical for identical inputs and
seed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .executor import run, run_native
from .fuzzer import (MAX_CHAIN, FuzzConfig, check_scenario, fuzz, scenario_from_json,
                     scenario_to_json)
from .identity import ImageMapError, load_image_map
from .instrument import (AnnotationError, ListParseError, instrument, parse_lists,
                         provenance_listing)
from .program import ProgramFormatError, emit, parse, to_json
from .reporting import (campaign_to_dict, diff_to_dict, render_campaign, render_diff,
                        render_report, report_to_dict)

_INPUT_ERRORS = (ProgramFormatError, ListParseError, AnnotationError,
                 ImageMapError, OSError, ValueError)


# Most bytes any input file may hold; the largest generated input, a
# benchmark program with a 512 KiB frame, is about 1.4 MB of JSON.
MAX_INPUT_BYTES = 64 * 1024 * 1024


def _read(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"{path}: input exceeds the cap of {MAX_INPUT_BYTES} bytes "
                         f"(MAX_INPUT_BYTES)")
    return data.decode()


def _emit(text: str, output: str | None) -> None:
    if output:
        pathlib.Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_run_inputs(args):
    program = parse(_read(args.program))
    table = load_image_map(_read(args.image_map))
    return program, table


def _exit_code(report) -> int:
    """1 for a run with a violation or a fault, as check_scenario counts
    every fault as a problem; 0 for a clean run."""
    return 1 if report.violations or report.faults else 0


# ----------------------------------------------------------------------
# subcommands

def cmd_instrument(args) -> int:
    program = parse(_read(args.program))
    untrusted_doc = _read(args.untrusted_list) if args.untrusted_list else ""
    sensitive_doc = _read(args.sensitive_list) if args.sensitive_list else ""
    untrusted, sensitive = parse_lists(untrusted_doc, sensitive_doc)
    instrumented = instrument(program, untrusted, sensitive)
    _emit(emit(instrumented), args.output)
    if args.output:
        for line in provenance_listing(instrumented):
            print(line)
    return 0


def cmd_run(args) -> int:
    program, table = _load_run_inputs(args)
    report = run_native(program, table, args.entry) if args.native \
        else run(program, table, args.entry, strict=args.strict)
    doc = to_json(report_to_dict(report)) if args.format == "json" \
        else render_report(report)
    _emit(doc, args.output)
    return _exit_code(report)


def cmd_diff(args) -> int:
    program, table = _load_run_inputs(args)
    native = run_native(program, table, args.entry)
    protected = run(program, table, args.entry)
    doc = to_json(diff_to_dict(native, protected)) if args.format == "json" \
        else render_diff(native, protected)
    _emit(doc, args.output)
    return _exit_code(protected)


def cmd_fuzz(args) -> int:
    if args.replay:
        scenario = scenario_from_json(_read(args.replay))
        report, problems = check_scenario(scenario)
        if args.format == "json":
            doc = to_json({**report_to_dict(report), "problems": problems})
        else:
            lines = [render_report(report).rstrip("\n"), f"problems: {len(problems)}"]
            doc = "\n".join(lines + [f"  {p}" for p in problems]) + "\n"
        _emit(doc, args.output)
        return 1 if problems else 0

    config = FuzzConfig(scenarios=args.count, max_chain=args.depth,
                        probes=not args.no_probes, adversarial=args.adversarial)
    result = fuzz(args.seed, config, minimize_findings=not args.no_minimize)
    doc = to_json(campaign_to_dict(result)) if args.format == "json" \
        else render_campaign(result)
    _emit(doc, args.output)
    # Timing goes to stderr so output files stay byte-stable.
    print(f"{config.scenarios} scenarios in {result.elapsed:.1f}s", file=sys.stderr)
    if result.findings:
        save_dir = pathlib.Path(args.save_dir)
        save_dir.mkdir(parents=True, exist_ok=True)
        for finding in result.findings:
            scenario = finding.minimized or finding.scenario
            path = save_dir / f"scenario-{finding.seed}-{finding.index}.json"
            path.write_text(scenario_to_json(scenario))
            print(f"counterexample saved: {path}", file=sys.stderr)
    return 1 if result.findings else 0


# ----------------------------------------------------------------------

def _add_io(sub) -> None:
    sub.add_argument("--program", required=True, help="program description (JSON)")
    sub.add_argument("--image-map", required=True,
                     help="function span table (name lo hi per line)")
    sub.add_argument("--entry", default="main", help="entry function name")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("-o", "--output", help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framevault",
        description="Instrument, execute, and fuzz stack-frame protection scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instrument",
                       help="insert protection calls into an annotated program")
    p.add_argument("--program", required=True)
    p.add_argument("--untrusted-list", help="functions to bracket (name(arity) lines)")
    p.add_argument("--sensitive-list", help="functions whose frames hold secrets")
    p.add_argument("-o", "--output", help="instrumented program path; "
                   "provenance listing then goes to stdout")
    p.set_defaults(func=cmd_instrument)

    p = sub.add_parser("run", help="execute with protection")
    _add_io(p)
    p.add_argument("--strict", action="store_true",
                   help="halt at the first runtime exception")
    p.set_defaults(func=cmd_run, native=False)

    p = sub.add_parser("native", help="execute without any protection calls")
    _add_io(p)
    p.set_defaults(func=cmd_run, native=True, strict=False)

    p = sub.add_parser("diff", help="compare native exposure against protected")
    _add_io(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("fuzz", help="randomized invariant checking")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="number of scenarios, at least 1")
    p.add_argument("--depth", type=int, default=3,
                   help=f"max nesting depth, 1..{MAX_CHAIN}")
    p.add_argument("--adversarial", action="store_true",
                   help="inject one forged runtime call per scenario")
    p.add_argument("--no-probes", action="store_true")
    p.add_argument("--no-minimize", action="store_true")
    p.add_argument("--save-dir", default="findings",
                   help="directory for counterexample files")
    p.add_argument("--replay", help="re-run a saved counterexample file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"framevault: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
