"""Protection runtime: registration lists, protection windows, the save
buffer, and the six runtime calls.

Every call takes the explicit program-counter value of its caller and
verifies the caller's identity against the identity table before touching
any state, so a caller cannot act on another function's registrations.
Verification failures are logged as exceptions and the offending call
becomes a no-op; process memory is never mutated by a failed call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .identity import IdentityTable
from .memory import ProcessMemory, in_heap, in_stack


class ExceptionKind(str, enum.Enum):
    IDENTITY_MISMATCH = "IdentityMismatch"
    INDEX_MISMATCH = "IndexMismatch"
    REGION_OUT_OF_FRAME = "RegionOutOfFrame"
    UNKNOWN_CALLER = "UnknownCaller"


@dataclass(frozen=True)
class VaultException:
    """Logged record of a rejected runtime call."""

    kind: ExceptionKind
    syscall: str
    caller_pc: int
    detail: str


@dataclass
class StackEntry:
    """Frame registration. With all=True the whole frame is saved and
    cleared around untrusted calls; with all=False only separately
    registered objects are."""

    owner: int
    frame_base: int
    frame_top: int
    all: bool
    save_record: int | None = None

    @property
    def frame_size(self) -> int:
        return self.frame_base - self.frame_top


@dataclass
class MemoryEntry:
    """Object registration (on-frame variable or heap object). Read-only
    objects are saved but stay visible during the protection window."""

    owner: int
    base: int
    length: int
    read_only: bool
    save_record: int | None = None


@dataclass
class MemoryExceptionEntry:
    """Carve-out inside a fully protected frame: the region is saved when
    the window opens and copied back once the frames are cleared, so the
    callee can use it; closing the window keeps the callee's writes."""

    owner: int
    base: int
    length: int
    read_only: bool


RegisterEntry = StackEntry | MemoryEntry | MemoryExceptionEntry


@dataclass(frozen=True)
class ProtectEntry:
    caller: int
    register_index: int  # first free RegisterList slot when the window opened


@dataclass
class SaveRecord:
    data: bytes | None
    consumed: bool = False


class SaveBuffer:
    """Append-only store of saved byte images. Each record is read back
    exactly once; its storage is released on that read."""

    def __init__(self) -> None:
        self.records: list[SaveRecord] = []
        self.bytes_produced = 0
        self.bytes_released = 0

    def append(self, data: bytes) -> int:
        self.records.append(SaveRecord(data=data))
        self.bytes_produced += len(data)
        return len(self.records) - 1

    def consume(self, record_id: int) -> bytes:
        rec = self.records[record_id]
        if rec.consumed or rec.data is None:
            raise RuntimeError(f"save record {record_id} consumed twice")
        data = rec.data
        rec.data = None
        rec.consumed = True
        self.bytes_released += len(data)
        return data

    def all_consumed(self) -> bool:
        return all(r.consumed for r in self.records)


@dataclass
class SyscallStats:
    """Invocation counts (rejected calls included) and cumulative byte
    traffic: bytes_copied counts bytes written into the save buffer,
    bytes_cleared counts bytes overwritten with zeros."""

    register_stack: int = 0
    unregister_stack: int = 0
    register_memory: int = 0
    register_memory_exception: int = 0
    start_protect: int = 0
    stop_protect: int = 0
    bytes_copied: int = 0
    bytes_cleared: int = 0

    @property
    def total(self) -> int:
        return (self.register_stack + self.unregister_stack + self.register_memory
                + self.register_memory_exception + self.start_protect + self.stop_protect)

    def as_dict(self) -> dict[str, int]:
        return {
            "register_stack": self.register_stack,
            "unregister_stack": self.unregister_stack,
            "register_memory": self.register_memory,
            "register_memory_exception": self.register_memory_exception,
            "start_protect": self.start_protect,
            "stop_protect": self.stop_protect,
            "total": self.total,
            "bytes_copied": self.bytes_copied,
            "bytes_cleared": self.bytes_cleared,
        }


class VaultState:
    """The four kernel-side structures plus exception and statistics logs."""

    def __init__(self, identity: IdentityTable):
        self.identity = identity
        self.register_list: list[RegisterEntry] = []
        self.protect_list: list[ProtectEntry] = []
        self.save_buffer = SaveBuffer()
        self.exception_log: list[VaultException] = []
        self.diagnostics: list[str] = []
        self.stats = SyscallStats()

    # ------------------------------------------------------------------
    # helpers

    def _flag(self, kind: ExceptionKind, syscall: str, caller_pc: int, detail: str) -> None:
        self.exception_log.append(VaultException(kind, syscall, caller_pc, detail))

    def _resolve(self, syscall: str, caller_pc: int) -> int | None:
        fid = self.identity.resolve(caller_pc)
        if fid is None:
            self._flag(ExceptionKind.UNKNOWN_CALLER, syscall, caller_pc,
                       f"pc {caller_pc:#x} not inside any function span")
        return fid

    def _last_stack_index(self) -> int | None:
        for i in range(len(self.register_list) - 1, -1, -1):
            if isinstance(self.register_list[i], StackEntry):
                return i
        return None

    def _watermark(self) -> int:
        return self.protect_list[-1].register_index if self.protect_list else 0

    def _clear(self, memory: ProcessMemory, addr: int, length: int) -> None:
        memory.clear_region(addr, length)
        self.stats.bytes_cleared += length

    # ------------------------------------------------------------------
    # registration calls

    def register_stack(self, caller_pc: int, all: bool,
                       frame_base: int, frame_top: int) -> None:
        """Record the caller's own frame; all selects whole-frame protection."""
        self.stats.register_stack += 1
        fid = self._resolve("register_stack", caller_pc)
        if fid is None:
            return
        if not (frame_top < frame_base and in_stack(frame_top, frame_base - frame_top)):
            raise ValueError(f"invalid frame bounds [{frame_top:#x}, {frame_base:#x})")
        self.register_list.append(StackEntry(owner=fid, frame_base=frame_base,
                                             frame_top=frame_top, all=all))

    def _register_object(self, syscall: str, caller_pc: int, base: int,
                         length: int, read_only: bool) -> None:
        fid = self._resolve(syscall, caller_pc)
        if fid is None:
            return
        idx = self._last_stack_index()
        if idx is None:
            self._flag(ExceptionKind.IDENTITY_MISMATCH, syscall, caller_pc,
                       "no frame registration to attach to")
            return
        last = self.register_list[idx]
        assert isinstance(last, StackEntry)
        if last.owner != fid:
            self._flag(ExceptionKind.IDENTITY_MISMATCH, syscall, caller_pc,
                       f"caller {self.identity.name_of(fid)} does not own the "
                       f"latest frame registration ({self.identity.name_of(last.owner)})")
            return
        if length < 0:
            raise ValueError("negative region length")
        if syscall == "register_memory_exception":
            if not (last.frame_top <= base and base + length <= last.frame_base):
                self._flag(ExceptionKind.REGION_OUT_OF_FRAME, syscall, caller_pc,
                           f"region {base:#x}+{length} lies outside the caller frame")
                return
            self.register_list.append(MemoryExceptionEntry(owner=fid, base=base,
                                                           length=length, read_only=read_only))
        else:
            if not (in_stack(base, length) or in_heap(base, length)):
                raise ValueError(f"region {base:#x}+{length} outside stack and heap")
            self.register_list.append(MemoryEntry(owner=fid, base=base,
                                                  length=length, read_only=read_only))

    def register_memory(self, caller_pc: int, base: int, length: int,
                        read_only: bool) -> None:
        """Record a memory object (frame variable or heap block) for
        save/clear/restore handling around untrusted calls."""
        self.stats.register_memory += 1
        self._register_object("register_memory", caller_pc, base, length, read_only)

    def register_memory_exception(self, caller_pc: int, base: int, length: int,
                                  read_only: bool) -> None:
        """Record a carve-out that stays usable inside a fully protected
        frame. The region must lie within the caller's registered frame."""
        self.stats.register_memory_exception += 1
        self._register_object("register_memory_exception", caller_pc, base, length, read_only)

    def unregister_stack(self, memory: ProcessMemory, caller_pc: int) -> None:
        """Drop the latest frame registration and everything after it,
        then scrub the frame so no stale data survives the return."""
        self.stats.unregister_stack += 1
        fid = self._resolve("unregister_stack", caller_pc)
        if fid is None:
            return
        idx = self._last_stack_index()
        if idx is None:
            self._flag(ExceptionKind.IDENTITY_MISMATCH, "unregister_stack", caller_pc,
                       "no frame registration to remove")
            return
        last = self.register_list[idx]
        assert isinstance(last, StackEntry)
        if last.owner != fid:
            self._flag(ExceptionKind.IDENTITY_MISMATCH, "unregister_stack", caller_pc,
                       f"caller {self.identity.name_of(fid)} does not own the "
                       f"latest frame registration ({self.identity.name_of(last.owner)})")
            return
        del self.register_list[idx:]
        self._clear(memory, last.frame_top, last.frame_size)

    # ------------------------------------------------------------------
    # protection windows

    def start_protect(self, memory: ProcessMemory, caller_pc: int) -> None:
        """Open a protection window covering every registration made since
        the enclosing window opened (or since the beginning)."""
        self.stats.start_protect += 1
        fid = self._resolve("start_protect", caller_pc)
        if fid is None:
            return
        self._open_window(memory, self._watermark(), len(self.register_list) - 1)
        self.protect_list.append(ProtectEntry(caller=fid, register_index=len(self.register_list)))
        if len(self.protect_list) >= 2 and (self.protect_list[-1].register_index
                                            < self.protect_list[-2].register_index):
            self.diagnostics.append("protection windows opened out of registration order")

    def _open_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        """Save everything in [start, end], then hide it in fixed phases:
        zero the all=True frames, copy the carve-outs back from their saved
        images, and zero the writable objects last, so a carve-out never
        shows a byte that an object hides. Registration order plays no part.
        """
        entries = self.register_list[start:end + 1]
        carve_outs: list[tuple[int, int]] = []  # (base, save record)
        for entry in entries:
            if isinstance(entry, StackEntry):
                if not entry.all:
                    continue
                addr, length = entry.frame_top, entry.frame_size
            else:
                addr, length = entry.base, entry.length
            record = self.save_buffer.append(memory.read_bytes(addr, length))
            self.stats.bytes_copied += length
            if isinstance(entry, MemoryExceptionEntry):
                carve_outs.append((addr, record))
            else:
                entry.save_record = record

        for entry in entries:
            if isinstance(entry, StackEntry) and entry.all:
                self._clear(memory, entry.frame_top, entry.frame_size)
        for addr, record in carve_outs:
            memory.write_bytes(addr, self.save_buffer.consume(record))
        for entry in entries:
            if isinstance(entry, MemoryEntry) and not entry.read_only:
                self._clear(memory, entry.base, entry.length)

    def stop_protect(self, memory: ProcessMemory, caller_pc: int) -> None:
        """Close the innermost protection window and restore saved data.

        The caller must be the function that opened the window, and the
        RegisterList must not have grown since; otherwise the window stays
        open and nothing is restored.
        """
        self.stats.stop_protect += 1
        fid = self._resolve("stop_protect", caller_pc)
        if fid is None:
            return
        if not self.protect_list:
            self._flag(ExceptionKind.IDENTITY_MISMATCH, "stop_protect", caller_pc,
                       "no protection window is open")
            return
        top = self.protect_list[-1]
        if top.caller != fid:
            self._flag(ExceptionKind.IDENTITY_MISMATCH, "stop_protect", caller_pc,
                       f"window opened by {self.identity.name_of(top.caller)}, "
                       f"closed by {self.identity.name_of(fid)}")
            return
        if len(self.register_list) != top.register_index:
            self._flag(ExceptionKind.INDEX_MISMATCH, "stop_protect", caller_pc,
                       f"RegisterList grew from {top.register_index} to "
                       f"{len(self.register_list)} inside the window")
            return

        self.protect_list.pop()
        self._close_window(memory, self._watermark(), len(self.register_list) - 1)

    def _close_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        """Write every saved image in [start, end] back, then the carve-outs
        as the callee left them.

        _open_window takes every image before it clears anything, so
        overlapping images hold the same bytes and their order does not
        matter; the carve-outs, read first, are written last.
        """
        entries = self.register_list[start:end + 1]
        carve_outs = [(e.base, memory.read_bytes(e.base, e.length)) for e in entries
                      if isinstance(e, MemoryExceptionEntry)]
        first_frame = next((i for i, e in enumerate(entries) if isinstance(e, StackEntry)),
                           len(entries))
        for i, entry in enumerate(entries):
            if isinstance(entry, MemoryExceptionEntry):
                if i < first_frame:
                    self.diagnostics.append("carve-out with no enclosing frame in window")
            elif isinstance(entry, StackEntry) and not entry.all:
                continue
            elif entry.save_record is None:
                self.diagnostics.append("frame registered all=True has no saved image"
                                        if isinstance(entry, StackEntry)
                                        else "memory object has no saved image")
            else:
                addr = entry.frame_top if isinstance(entry, StackEntry) else entry.base
                memory.write_bytes(addr, self.save_buffer.consume(entry.save_record))
                entry.save_record = None
        for addr, data in carve_outs:
            memory.write_bytes(addr, data)
