"""Function identity resolution.

A program image is described by a textual map, one function per line
(``name lo_hex hi_hex``). Spans are half-open [lo, hi), pairwise disjoint,
and confined to the text region, so a program-counter value identifies at
most one function. User code has no way to alter the table once loaded.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .memory import TEXT_BASE, TEXT_LIMIT
from .program import shown


# Most lines an image map may have, comments and blank lines included: four
# per function a program may describe (program.MAX_FUNCTIONS).
MAX_IMAGE_MAP_LINES = 4096


class ImageMapError(ValueError):
    """Malformed, overlapping, or out-of-region image map input."""


@dataclass(frozen=True, slots=True)
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
        self._his = [s.hi for s in ordered]
        self._fids = [s.fid for s in ordered]

    def resolve(self, pc: int) -> int | None:
        """FunctionId whose span contains pc, or None."""
        i = bisect_right(self._los, pc) - 1
        return self._fids[i] if i >= 0 and pc < self._his[i] else None

    def name_of(self, fid: int) -> str:
        return self._spans[fid].name

    def by_name(self, name: str) -> FunctionSpan | None:
        return self._by_name.get(name)


def load_image_map(text: str) -> IdentityTable:
    """Parse an image map document. `#` starts a comment; blank lines are
    ignored. Rejects more than MAX_IMAGE_MAP_LINES lines, malformed lines,
    duplicate names, spans outside the text region, and overlapping spans.
    Span names are interned, so tables loaded from many maps share one
    str per name."""
    lines = text.splitlines()
    if len(lines) > MAX_IMAGE_MAP_LINES:
        raise ImageMapError(f"image map: {len(lines)} lines exceed the cap of "
                            f"{MAX_IMAGE_MAP_LINES} (MAX_IMAGE_MAP_LINES)")
    spans: list[FunctionSpan] = []
    names: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ImageMapError(f"line {lineno}: expected 'name lo hi', got {shown(raw)}")
        name, lo_text, hi_text = parts
        try:
            lo = int(lo_text, 16)
            hi = int(hi_text, 16)
        except ValueError:
            raise ImageMapError(f"line {lineno}: bad hex address in {shown(raw)}") from None
        if lo >= hi:
            raise ImageMapError(f"line {lineno}: empty or inverted span for "
                                f"{shown(name, False)}")
        if not (TEXT_BASE <= lo and hi <= TEXT_LIMIT):
            raise ImageMapError(f"line {lineno}: span for {shown(name, False)} "
                                f"outside text region")
        if name in names:
            raise ImageMapError(f"line {lineno}: duplicate function name {shown(name, False)}")
        names.add(name)
        spans.append(FunctionSpan(name=sys.intern(name), lo=lo, hi=hi, fid=len(spans)))

    ordered = sorted(spans, key=lambda s: s.lo)
    for a, b in zip(ordered, ordered[1:]):
        if b.lo < a.hi:
            raise ImageMapError(f"spans for {shown(a.name, False)} and "
                                f"{shown(b.name, False)} overlap")
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
