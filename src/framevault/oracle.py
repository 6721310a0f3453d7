"""The verdicts, the one derivation of which bytes a protection window
hides and keeps, and a page-dump reference runtime.

`window_kept` and `window_hidden` each take a RegisterList slice. The
first gives the regions closing a window over it restores and the
writable carve-outs cut out of them; the second what the window hides.
`WindowChecker` and `OracleVault` use them; the runtime under test uses
neither.

`WindowChecker` owns the Leak and IntegrityBreach verdicts. The save
buffer plays no part in them, so a runtime bug cannot mask itself. The
executor opens and closes windows through the checker. With its own
reads it snapshots each region closing keeps as a window opens, and the
writable carve-outs just before it closes; after the close it compares
each in place with `ProcessMemory.holds` and reads back only one that
changed, cut into pieces around the carve-outs. What a window hides is
derived from a copy of its slice only when a leak scan first needs it:
most windows see no non-zero untrusted read. A scan clips the hidden
intervals of every open window to the read, merges them, and counts the
non-zero bytes of each merged slice in place.

`OracleVault` keeps the real runtime's registration bookkeeping and
identity/index checks but replaces its save/restore machinery: a
whole-memory page dump when a window opens, and the kept pieces written
back from it when the window closes. A correct runtime must leave memory
byte-identical to this one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .memory import ProcessMemory, _nonzero, bytes_from_dump
from .runtime import MemoryEntry, RegisterEntry, StackEntry, VaultException, VaultState

Interval = tuple[int, int]  # (addr, length)


@dataclass(frozen=True)
class Leak:
    """An untrusted read saw a non-zero byte at a hidden address while a
    protection window was open."""

    window: int
    function: str
    address: int
    length: int
    secret_bytes: int
    detail: str


@dataclass(frozen=True)
class IntegrityBreach:
    """After a window closed, protected bytes differ from their value at
    window open (carve-outs: from their value just before close)."""

    window: int
    address: int
    length: int
    detail: str


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


def window_kept(window: list[RegisterEntry]) -> tuple[list[Interval], list[Interval]]:
    """What closing a window over these registrations keeps: the regions
    it restores, the all=True frames then every object, read-only ones
    too; and the writable carve-outs cut out of them, whose callee writes
    closing keeps. A read-only carve-out is restored with its frame;
    all=False frames contribute nothing themselves."""
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


def hidden_nonzero(data: bytes, addr: int, ranges: Iterable[tuple[int, int]]) -> int:
    """Non-zero bytes of `data`, read from `addr`, that lie in any of the
    (lo, hi) ranges. Overlapping ranges count each byte once."""
    end = addr + len(data)
    count = 0
    done = addr  # bytes below this address are already counted
    for lo, hi in sorted((lo, hi) for lo, hi in ranges if lo < end and addr < hi):
        lo, hi = max(lo, done), min(hi, end)
        if lo < hi:
            count += _nonzero(data, lo - addr, hi - addr)
            done = hi
    return count


@dataclass(slots=True)
class _Window:
    """One open window and the registrations it opened over."""

    wid: int
    entries: list[RegisterEntry]  # a copy of the slice, as it stood at open
    snapshots: list[tuple[int, bytes]]  # (addr, the bytes there at open) of each kept region
    writable: list[Interval]  # (addr, length) of the writable carve-outs
    hidden: list[Interval] | None = None  # what it hides, once a leak scan needs it


class WindowChecker:
    """The Leak and IntegrityBreach verdicts of one protected run over
    `memory` and `vault`, appended to `violations` as they arise."""

    def __init__(self, memory: ProcessMemory, vault: VaultState, violations: list):
        self.memory = memory
        self.vault = vault
        self.violations = violations
        self.windows: list[_Window] = []  # the open windows, innermost last

    def start_protect(self, pc: int, wid: int) -> VaultException | None:
        """The vault's start_protect at `pc`, which on success opens window
        `wid`. Copies the slice it opens over and snapshots each region
        closing it keeps before the runtime clears them."""
        vault, read = self.vault, self.memory.read_bytes
        protect_list = vault.protect_list
        entries = vault.register_list[protect_list[-1].register_index if protect_list else 0:]
        regions, writable = window_kept(entries)
        snapshots = [(addr, read(addr, length)) for addr, length in regions]
        refused = vault.start_protect(self.memory, pc)
        if refused is None:
            self.windows.append(_Window(wid, entries, snapshots, writable))
        return refused

    def stop_protect(self, pc: int) -> VaultException | None:
        """The vault's stop_protect at `pc`. If it closes the innermost
        window, logs an IntegrityBreach for each piece of a kept region,
        then of a writable carve-out, that changed: a region against its
        snapshot at open, a carve-out against its bytes just before."""
        memory, windows = self.memory, self.windows
        writable = windows[-1].writable if windows else ()
        pre_close = [(addr, memory.read_bytes(addr, length)) for addr, length in writable]
        refused = self.vault.stop_protect(memory, pc)
        if refused is None:  # else the window stays open and nothing was restored
            window = windows.pop()
            holds = memory.holds
            for snapshots, holes in ((window.snapshots, window.writable), (pre_close, ())):
                for addr, snapshot in snapshots:
                    if not holds(addr, snapshot):
                        self._breaches(window.wid, addr, snapshot, holes)
        return refused

    def _breaches(self, wid: int, addr: int, snapshot: bytes, holes: list[Interval]) -> None:
        """Log an IntegrityBreach for each piece of the region at `addr`,
        outside `holes`, whose bytes differ from the snapshot. A piece's
        first mismatch is the byte holding the lowest set bit of the two
        XORed as little-endian ints."""
        now = memoryview(self.memory.read_bytes(addr, len(snapshot)))
        for lo, length in subtract_intervals([(addr, len(snapshot))], holes):
            off = lo - addr
            if not snapshot.startswith(now[off:off + length], off):
                diff = (int.from_bytes(now[off:off + length], "little")
                        ^ int.from_bytes(snapshot[off:off + length], "little"))
                self.violations.append(IntegrityBreach(
                    window=wid, address=lo, length=length,
                    detail=f"first mismatch at byte {((diff & -diff).bit_length() - 1) // 8}"))

    def scan(self, function: str, addr: int, data: bytes) -> None:
        """After `function`'s read of `data` at `addr` saw non-zero bytes
        while a window was open: log a Leak if any lies in hidden bytes."""
        windows = self.windows
        for w in windows:
            if w.hidden is None:
                w.hidden = window_hidden(w.entries)
        secret = hidden_nonzero(data, addr, ((lo, lo + n) for w in windows for lo, n in w.hidden))
        if secret:
            self.violations.append(Leak(
                window=windows[-1].wid, function=function, address=addr,
                length=len(data), secret_bytes=secret,
                detail="untrusted read observed protected bytes"))


class OracleVault(VaultState):
    """Drop-in replacement for VaultState with page-dump windows."""

    def __init__(self, identity):
        super().__init__(identity)
        # (page dump, kept intervals) per open window, innermost last. The
        # kept intervals hold at close: the window closes over the slice it
        # opened over, and no registration below its watermark can go.
        self._windows: list[tuple[dict[int, bytes], list[Interval]]] = []

    def _open_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        window = self.register_list[start:end + 1]
        self._windows.append((memory.dump_pages(), subtract_intervals(*window_kept(window))))
        for addr, length in window_hidden(window):
            memory.clear_region(addr, length)

    def _close_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        dump, kept = self._windows.pop()
        for addr, length in kept:
            memory.write_bytes(addr, bytes_from_dump(dump, addr, length))
