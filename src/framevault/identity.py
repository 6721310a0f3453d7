"""Function identity resolution.

A program image is described by a textual map, one function per line
(``name lo_hex hi_hex``). Spans are half-open [lo, hi), pairwise disjoint,
and confined to the text region, so a program-counter value identifies at
most one function. User code has no way to alter the table once loaded.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from .memory import TEXT_BASE, TEXT_LIMIT


class ImageMapError(ValueError):
    """Malformed, overlapping, or out-of-region image map input."""


@dataclass(frozen=True)
class FunctionSpan:
    name: str
    lo: int
    hi: int
    fid: int


class IdentityTable:
    """Immutable pc -> function mapping. FunctionId is the span's position
    in input order."""

    def __init__(self, spans: Sequence[FunctionSpan]):
        self._spans = tuple(spans)
        self._by_name = {s.name: s for s in self._spans}
        ordered = sorted(self._spans, key=lambda s: s.lo)
        self._los = [s.lo for s in ordered]
        self._ordered = ordered

    def resolve(self, pc: int) -> int | None:
        """FunctionId whose span contains pc, or None."""
        i = bisect.bisect_right(self._los, pc) - 1
        if i < 0:
            return None
        span = self._ordered[i]
        return span.fid if pc < span.hi else None

    def name_of(self, fid: int) -> str:
        return self._spans[fid].name

    def by_name(self, name: str) -> FunctionSpan | None:
        return self._by_name.get(name)


def load_image_map(text: str) -> IdentityTable:
    """Parse an image map document. `#` starts a comment; blank lines are
    ignored. Rejects malformed lines, duplicate names, spans outside the
    text region, and overlapping spans."""
    spans: list[FunctionSpan] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ImageMapError(f"line {lineno}: expected 'name lo hi', got {raw!r}")
        name, lo_text, hi_text = parts
        try:
            lo = int(lo_text, 16)
            hi = int(hi_text, 16)
        except ValueError:
            raise ImageMapError(f"line {lineno}: bad hex address in {raw!r}") from None
        if lo >= hi:
            raise ImageMapError(f"line {lineno}: empty or inverted span for {name}")
        if not (TEXT_BASE <= lo and hi <= TEXT_LIMIT):
            raise ImageMapError(f"line {lineno}: span for {name} outside text region")
        if name in names:
            raise ImageMapError(f"line {lineno}: duplicate function name {name}")
        names.add(name)
        spans.append(FunctionSpan(name=name, lo=lo, hi=hi, fid=len(spans)))

    ordered = sorted(spans, key=lambda s: s.lo)
    for a, b in zip(ordered, ordered[1:]):
        if b.lo < a.hi:
            raise ImageMapError(f"spans for {a.name} and {b.name} overlap")
    return IdentityTable(spans)


SPAN_BASE = TEXT_BASE + 0x1000
SPAN_ALIGN = 0x100


def synthesize_image_map(extents: Sequence[tuple[str, int]]) -> str:
    """Render an image map giving each (name, min_span_len) a span of at
    least min_span_len bytes rounded up to SPAN_ALIGN, packed from
    SPAN_BASE upward."""
    lines = []
    lo = SPAN_BASE
    for name, min_len in extents:
        length = ((max(min_len, 1) + SPAN_ALIGN - 1) // SPAN_ALIGN) * SPAN_ALIGN
        hi = lo + length
        if hi > TEXT_LIMIT:
            raise ImageMapError("synthesized spans exceed the text region")
        lines.append(f"{name} {lo:#x} {hi:#x}")
        lo = hi
    return "\n".join(lines) + "\n"
