"""Reference runtime for differential checking, and the one derivation of
which bytes a protection window hides.

`window_bytes` turns a RegisterList slice into the byte intervals a window
clears, restores and leaves to the callee. It joins two passes over the
slice: `window_regions`, what closing must leave intact and the writable
carve-outs, and `window_hidden`, what the window hides. The oracle below
uses `window_bytes`. The executor's verdicts take `window_regions` when a
window opens, and `window_hidden`, from a copy of the same slice, only
when a leak scan first needs it. The runtime under test uses none of them.

The oracle keeps the registration bookkeeping and identity/index
verification of the real runtime but replaces the window save/restore
machinery wholesale: a whole-memory page dump is taken when a window
opens, and the kept regions are written back from it when the window
closes. A correct runtime must leave memory byte-identical to this one.
"""

from __future__ import annotations

from .memory import ProcessMemory, bytes_from_dump
from .runtime import MemoryEntry, RegisterEntry, StackEntry, VaultState

Interval = tuple[int, int]  # (addr, length)


def subtract_intervals(intervals: list[Interval], holes: list[Interval]) -> list[Interval]:
    """Remove hole intervals from (addr, length) intervals. Each interval
    leaves its pieces in address order, cut at every hole bound inside
    it, so an empty hole splits a piece in two."""
    if not holes:
        return [interval for interval in intervals if interval[1] > 0]
    holes = sorted(holes)
    out = []
    for addr, length in intervals:
        lo, end = addr, addr + length
        for h_addr, h_len in holes:
            if h_addr >= end:
                break
            if lo < h_addr:
                out.append((lo, h_addr - lo))
            if h_addr + h_len > lo:
                lo = h_addr + h_len
        if lo < end:
            out.append((lo, end - lo))
    return out


def window_bytes(entries: list[RegisterEntry], start: int,
                 end: int) -> tuple[list[Interval], list[Interval], list[Interval]]:
    """The (hidden, kept, writable carve-outs) intervals of a window over
    entries[start:end + 1].

    hidden: what the window zeroes, i.e. all=True frames minus every
    carve-out, then writable objects. kept: what closing the window
    restores, i.e. those frames and every object, read-only ones too,
    minus the writable carve-outs. Writable carve-outs: regions whose
    callee writes closing keeps; a read-only carve-out is restored with
    its frame. all=False frames contribute nothing themselves.
    """
    window = entries[start:end + 1]
    regions, writable = window_regions(window)
    return window_hidden(window), subtract_intervals(regions, writable), writable


def window_regions(window: list[RegisterEntry]) -> tuple[list[Interval], list[Interval]]:
    """What closing a window over these registrations must leave intact,
    before its writable carve-outs are cut out (the all=True frames, then
    the objects), and those writable carve-outs."""
    frames: list[Interval] = []
    objects: list[Interval] = []
    writable: list[Interval] = []
    for entry in window:
        kind = type(entry)
        if kind is StackEntry:
            if entry.all:
                frames.append((entry.frame_top, entry.frame_base - entry.frame_top))
        elif kind is MemoryEntry:
            objects.append((entry.base, entry.length))
        elif not entry.read_only:
            writable.append((entry.base, entry.length))
    return frames + objects, writable


def window_hidden(window: list[RegisterEntry]) -> list[Interval]:
    """What a window over these registrations hides: the all=True frames
    minus every carve-out, then the writable objects."""
    frames: list[Interval] = []
    objects: list[Interval] = []
    carve_outs: list[Interval] = []
    for entry in window:
        kind = type(entry)
        if kind is StackEntry:
            if entry.all:
                frames.append((entry.frame_top, entry.frame_base - entry.frame_top))
        elif kind is MemoryEntry:
            if not entry.read_only:
                objects.append((entry.base, entry.length))
        else:
            carve_outs.append((entry.base, entry.length))
    return subtract_intervals(frames, carve_outs) + objects


class OracleVault(VaultState):
    """Drop-in replacement for VaultState with page-dump windows."""

    def __init__(self, identity):
        super().__init__(identity)
        # (page dump, kept intervals) per open window, innermost last. The
        # kept intervals hold at close: the window closes over the slice it
        # opened over, and no registration below its watermark can go.
        self._windows: list[tuple[dict[int, bytes], list[Interval]]] = []

    def _open_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        hidden, kept, _ = window_bytes(self.register_list, start, end)
        self._windows.append((memory.dump_pages(), kept))
        for addr, length in hidden:
            memory.clear_region(addr, length)

    def _close_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        dump, kept = self._windows.pop()
        for addr, length in kept:
            memory.write_bytes(addr, bytes_from_dump(dump, addr, length))
