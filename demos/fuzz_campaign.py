"""Randomized invariant checking over generated protection scenarios.

Each scenario builds a chain of secret-holding functions that call
untrusted libraries full of memory probes, instruments it, runs it, and
checks every protection invariant, including byte-exact agreement with
the page-dump oracle. The adversarial batch injects one forged runtime
call per scenario and expects the matching exception, and nothing else,
every time.

Run with:  python3 demos/fuzz_campaign.py
"""

from __future__ import annotations

from framevault import FuzzConfig, fuzz, render_campaign


def main() -> None:
    print("== clean campaign: 200 scenarios ==")
    result = fuzz(seed=2026, config=FuzzConfig(scenarios=200))
    print(render_campaign(result))
    print(f"({result.elapsed:.2f}s)")

    print()
    print("== adversarial campaign: 40 scenarios, one forgery each ==")
    result = fuzz(seed=2026, config=FuzzConfig(scenarios=40, adversarial=True))
    print(render_campaign(result))
    detections = sum(len(r.violations) for r in result.reports)
    print(f"runtime exceptions raised: {detections} across "
          f"{len(result.reports)} forged scenarios ({result.elapsed:.2f}s)")


if __name__ == "__main__":
    main()
