"""Reference runtime for differential checking, and the one derivation of
which bytes a protection window hides.

`window_bytes` turns a RegisterList slice into the byte intervals a window
clears, restores and leaves to the callee; the executor's verdicts and the
oracle below both use it, and the runtime under test does not.

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
    """Remove hole intervals from (addr, length) intervals."""
    out = []
    for addr, length in intervals:
        pieces = [(addr, addr + length)]
        for h_addr, h_len in holes:
            h_lo, h_hi = h_addr, h_addr + h_len
            next_pieces = []
            for lo, hi in pieces:
                if h_hi <= lo or hi <= h_lo:
                    next_pieces.append((lo, hi))
                    continue
                if lo < h_lo:
                    next_pieces.append((lo, h_lo))
                if h_hi < hi:
                    next_pieces.append((h_hi, hi))
            pieces = next_pieces
        out.extend((lo, hi - lo) for lo, hi in pieces if hi > lo)
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
    frames: list[Interval] = []
    objects: list[MemoryEntry] = []
    carve_outs: list[Interval] = []
    writable: list[Interval] = []
    for entry in entries[start:end + 1]:
        if isinstance(entry, StackEntry):
            if entry.all:
                frames.append((entry.frame_top, entry.frame_size))
        elif isinstance(entry, MemoryEntry):
            objects.append(entry)
        else:
            carve_outs.append((entry.base, entry.length))
            if not entry.read_only:
                writable.append((entry.base, entry.length))
    hidden = subtract_intervals(frames, carve_outs)
    hidden += [(obj.base, obj.length) for obj in objects if not obj.read_only]
    kept = subtract_intervals(frames + [(obj.base, obj.length) for obj in objects], writable)
    return hidden, kept, writable


class OracleVault(VaultState):
    """Drop-in replacement for VaultState with page-dump windows."""

    def __init__(self, identity):
        super().__init__(identity)
        self._window_dumps: list[dict[int, bytes]] = []

    def _open_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        self._window_dumps.append(memory.dump_pages())
        hidden, _, _ = window_bytes(self.register_list, start, end)
        for addr, length in hidden:
            memory.clear_region(addr, length)

    def _close_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        dump = self._window_dumps.pop()
        _, kept, _ = window_bytes(self.register_list, start, end)
        for addr, length in kept:
            memory.write_bytes(addr, bytes_from_dump(dump, addr, length))
