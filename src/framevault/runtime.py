"""Protection runtime: registration lists, protection windows, the save
buffer (a stack of saved images), and the six runtime calls.

Every call takes the explicit program-counter value of its caller and
verifies the caller's identity against the identity table before touching
any state, so a caller cannot act on another function's registrations.
Each call is accepted and returns None, or is refused: it appends one
`VaultException` to `exception_log`, returns it, and changes no
registration, window, saved image or byte of process memory. An open
window freezes the frame registrations it covers: none below its
watermark can be removed or take a carve-out, so a window restores what
it saved and opens over no carve-out without its frame. An object
registered while a window is open lies above the watermark, and the
next window hides it. Windows close innermost first, and each pops the
images it pushed. A read-only registration, such as a `write_sensitive`
slot, is restored even when it is a carve-out, so a callee's write to it
is reverted in whole-frame and fine-grained mode alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .identity import IdentityTable
from .memory import ProcessMemory, in_heap, in_stack
from .program import RUNTIME_CALLS, shown


class ExceptionKind(str, enum.Enum):
    IDENTITY_MISMATCH = "IdentityMismatch"
    INDEX_MISMATCH = "IndexMismatch"
    REGION_OUT_OF_FRAME = "RegionOutOfFrame"
    UNKNOWN_CALLER = "UnknownCaller"
    INVALID_REGION = "InvalidRegion"


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


@dataclass
class MemoryEntry:
    """Object registration (on-frame variable or heap object). Read-only
    objects are saved but stay visible during the protection window."""

    owner: int
    base: int
    length: int
    read_only: bool


@dataclass
class MemoryExceptionEntry:
    """Carve-out inside a fully protected frame: the region is saved when
    the window opens and copied back once the frames are cleared, so the
    callee can use it. Closing the window keeps the callee's writes to a
    writable carve-out; a read-only one comes back from its frame's image."""

    owner: int
    base: int
    length: int
    read_only: bool


RegisterEntry = StackEntry | MemoryEntry | MemoryExceptionEntry


class ProtectEntry(NamedTuple):
    """One open window. A NamedTuple, so it equals the plain tuple
    (caller, register_index)."""

    caller: int
    register_index: int  # first free RegisterList slot when the window opened


class SaveBuffer:
    """Stack of saved byte images. Windows close innermost first, so
    images come back last in, first out; popping an image releases it."""

    def __init__(self) -> None:
        self.images: list[bytes] = []
        self.bytes_produced = 0
        self.bytes_released = 0

    def push(self, data: bytes) -> None:
        self.images.append(data)
        self.bytes_produced += len(data)

    def pop(self) -> bytes:
        data = self.images.pop()
        self.bytes_released += len(data)
        return data

    def all_consumed(self) -> bool:
        return not self.images


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
        return sum(getattr(self, call) for call in RUNTIME_CALLS)

    def as_dict(self) -> dict[str, int]:
        counts = {call: getattr(self, call) for call in RUNTIME_CALLS}
        return {**counts, "total": sum(counts.values()),
                "bytes_copied": self.bytes_copied, "bytes_cleared": self.bytes_cleared}


class VaultState:
    """The four kernel-side structures plus exception and statistics logs."""

    def __init__(self, identity: IdentityTable):
        self.identity = identity
        self.register_list: list[RegisterEntry] = []
        self.protect_list: list[ProtectEntry] = []
        self.save_buffer = SaveBuffer()
        self.exception_log: list[VaultException] = []
        self._calls = dict.fromkeys(RUNTIME_CALLS, 0)
        self._bytes_cleared = 0

    @property
    def stats(self) -> SyscallStats:
        """A snapshot of the call counts and the byte traffic so far."""
        return SyscallStats(**self._calls, bytes_copied=self.save_buffer.bytes_produced,
                            bytes_cleared=self._bytes_cleared)

    # ------------------------------------------------------------------
    # helpers

    def _flag(self, kind: ExceptionKind, syscall: str, caller_pc: int,
              detail: str) -> VaultException:
        self.exception_log.append(exc := VaultException(kind, syscall, caller_pc, detail))
        return exc

    def _resolve(self, syscall: str, caller_pc: int) -> int | VaultException:
        self._calls[syscall] += 1  # each of the six calls passes here exactly once
        fid = self.identity.resolve(caller_pc)
        if fid is None:
            return self._flag(ExceptionKind.UNKNOWN_CALLER, syscall, caller_pc,
                              f"pc {caller_pc:#x} not inside any function span")
        return fid

    def _name(self, fid: int) -> str:
        """A function's name as an exception detail shows it: bounded."""
        return shown(self.identity.name_of(fid), False)

    def _latest_frame(self, syscall: str, caller_pc: int,
                      missing: str) -> tuple[int, StackEntry] | VaultException:
        """The index and entry of the latest frame registration; the caller must own it."""
        fid = self._resolve(syscall, caller_pc)
        if isinstance(fid, VaultException):
            return fid
        register_list = self.register_list
        for idx in range(len(register_list) - 1, -1, -1):
            last = register_list[idx]
            if type(last) is StackEntry:
                if last.owner != fid:
                    return self._flag(ExceptionKind.IDENTITY_MISMATCH, syscall, caller_pc,
                                      f"caller {self._name(fid)} does not own the latest "
                                      f"frame registration ({self._name(last.owner)})")
                return idx, last
        return self._flag(ExceptionKind.IDENTITY_MISMATCH, syscall, caller_pc, missing)

    def watermark(self) -> int:
        """RegisterList length when the innermost open window opened, else 0."""
        return self.protect_list[-1].register_index if self.protect_list else 0

    def _frozen(self, syscall: str, caller_pc: int, idx: int) -> VaultException | None:
        """Refuse a call on frame registration idx if it lies below the open
        window's watermark: the window has frozen it."""
        watermark = self.watermark()
        if idx < watermark:
            return self._flag(ExceptionKind.INDEX_MISMATCH, syscall, caller_pc,
                              f"frame registration {idx} lies below the open window's "
                              f"watermark {watermark}")
        return None

    def _clear(self, memory: ProcessMemory, addr: int, length: int) -> None:
        memory.clear_region(addr, length)
        self._bytes_cleared += length

    # ------------------------------------------------------------------
    # registration calls

    def register_stack(self, caller_pc: int, all: bool,
                       frame_base: int, frame_top: int) -> VaultException | None:
        """Record the caller's own frame; all selects whole-frame protection."""
        fid = self._resolve("register_stack", caller_pc)
        if isinstance(fid, VaultException):
            return fid
        if not (frame_top < frame_base and in_stack(frame_top, frame_base - frame_top)):
            return self._flag(ExceptionKind.INVALID_REGION, "register_stack", caller_pc,
                              f"invalid frame bounds [{frame_top:#x}, {frame_base:#x})")
        self.register_list.append(StackEntry(fid, frame_base, frame_top, all))
        return None

    def _register_object(self, syscall: str, caller_pc: int, base: int,
                         length: int, read_only: bool) -> VaultException | None:
        found = self._latest_frame(syscall, caller_pc, "no frame registration to attach to")
        if isinstance(found, VaultException):
            return found
        idx, last = found
        carve_out = syscall == "register_memory_exception"
        if carve_out and (frozen := self._frozen(syscall, caller_pc, idx)):
            return frozen
        if length < 0:
            return self._flag(ExceptionKind.INVALID_REGION, syscall, caller_pc,
                              "negative region length")
        if carve_out:
            if not (last.frame_top <= base and base + length <= last.frame_base):
                return self._flag(ExceptionKind.REGION_OUT_OF_FRAME, syscall, caller_pc,
                                  f"region {base:#x}+{length} lies outside the caller frame")
            self.register_list.append(MemoryExceptionEntry(last.owner, base, length, read_only))
        else:
            if not (in_stack(base, length) or in_heap(base, length)):
                return self._flag(ExceptionKind.INVALID_REGION, syscall, caller_pc,
                                  f"region {base:#x}+{length} outside stack and heap")
            self.register_list.append(MemoryEntry(last.owner, base, length, read_only))
        return None

    def register_memory(self, caller_pc: int, base: int, length: int,
                        read_only: bool) -> VaultException | None:
        """Record a memory object (frame variable or heap block) for
        save/clear/restore handling around untrusted calls."""
        return self._register_object("register_memory", caller_pc, base, length, read_only)

    def register_memory_exception(self, caller_pc: int, base: int, length: int,
                                  read_only: bool) -> VaultException | None:
        """Record a carve-out that stays usable inside a fully protected
        frame. The region must lie within the caller's registered frame."""
        return self._register_object("register_memory_exception", caller_pc, base, length,
                                     read_only)

    def unregister_stack(self, memory: ProcessMemory, caller_pc: int) -> VaultException | None:
        """Drop the latest frame registration and everything after it,
        then scrub the frame so no stale data survives the return. One
        below the open window's watermark stays: the window restores it."""
        found = self._latest_frame("unregister_stack", caller_pc,
                                   "no frame registration to remove")
        if isinstance(found, VaultException):
            return found
        idx, last = found
        if frozen := self._frozen("unregister_stack", caller_pc, idx):
            return frozen
        del self.register_list[idx:]
        self._clear(memory, last.frame_top, last.frame_base - last.frame_top)
        return None

    # ------------------------------------------------------------------
    # protection windows

    def start_protect(self, memory: ProcessMemory, caller_pc: int) -> VaultException | None:
        """Open a protection window covering every registration made since
        the enclosing window opened (or since the beginning)."""
        fid = self._resolve("start_protect", caller_pc)
        if isinstance(fid, VaultException):
            return fid
        self._open_window(memory, self.watermark(), len(self.register_list) - 1)
        self.protect_list.append(ProtectEntry(fid, len(self.register_list)))
        return None

    def _open_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        """Push an image of every all=True frame and object in [start, end]
        in registration order, then of every carve-out. Then hide in fixed
        phases: zero the frames, pop the carve-outs back into place, and
        zero the writable objects last, so a carve-out never shows a byte
        that an object hides.
        """
        push, read = self.save_buffer.push, memory.read_bytes
        frames: list[StackEntry] = []
        objects: list[MemoryEntry] = []  # the writable ones
        carve_outs: list[MemoryExceptionEntry] = []
        for entry in self.register_list[start:end + 1]:
            kind = type(entry)
            if kind is StackEntry:
                if entry.all:
                    push(read(entry.frame_top, entry.frame_base - entry.frame_top))
                    frames.append(entry)
            elif kind is MemoryEntry:
                push(read(entry.base, entry.length))
                if not entry.read_only:
                    objects.append(entry)
            else:
                carve_outs.append(entry)
        for carve_out in carve_outs:
            push(read(carve_out.base, carve_out.length))

        for frame in frames:
            self._clear(memory, frame.frame_top, frame.frame_base - frame.frame_top)
        for carve_out in reversed(carve_outs):
            memory.write_bytes(carve_out.base, self.save_buffer.pop())
        for obj in objects:
            self._clear(memory, obj.base, obj.length)

    def stop_protect(self, memory: ProcessMemory, caller_pc: int) -> VaultException | None:
        """Close the innermost protection window and restore saved data.

        The caller must be the function that opened the window, and the
        RegisterList must not have grown since; otherwise the window stays
        open and nothing is restored.
        """
        fid = self._resolve("stop_protect", caller_pc)
        if isinstance(fid, VaultException):
            return fid
        if not self.protect_list:
            return self._flag(ExceptionKind.IDENTITY_MISMATCH, "stop_protect", caller_pc,
                              "no protection window is open")
        top = self.protect_list[-1]
        if top.caller != fid:
            return self._flag(ExceptionKind.IDENTITY_MISMATCH, "stop_protect", caller_pc,
                              f"window opened by {self._name(top.caller)}, "
                              f"closed by {self._name(fid)}")
        if len(self.register_list) != top.register_index:
            return self._flag(ExceptionKind.INDEX_MISMATCH, "stop_protect", caller_pc,
                              f"RegisterList grew from {top.register_index} to "
                              f"{len(self.register_list)} inside the window")

        self.protect_list.pop()
        self._close_window(memory, self.watermark(), len(self.register_list) - 1)
        return None

    def _close_window(self, memory: ProcessMemory, start: int, end: int) -> None:
        """Pop every image in [start, end] back in reverse registration
        order, then write the writable carve-outs back as the callee left
        them.

        _open_window takes every image before it clears anything, so
        overlapping images hold the same bytes and their order does not
        matter; the writable carve-outs, read first, are written last.
        """
        images: list[int] = []  # where each saved image goes back, in push order
        carve_outs: list[tuple[int, bytes]] = []
        for entry in self.register_list[start:end + 1]:
            kind = type(entry)
            if kind is StackEntry:
                if entry.all:
                    images.append(entry.frame_top)
            elif kind is MemoryEntry:
                images.append(entry.base)
            elif not entry.read_only:
                carve_outs.append((entry.base, memory.read_bytes(entry.base, entry.length)))
        pop, write = self.save_buffer.pop, memory.write_bytes
        for addr in reversed(images):
            write(addr, pop())
        for addr, data in carve_outs:
            write(addr, data)
