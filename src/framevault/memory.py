"""Simulated process memory for one process image.

The address space has three fixed, disjoint regions: a read-only text
region, an upward-growing heap, and a downward-growing stack. Storage is
sparse: pages materialize on first write, so untouched bytes read as zero
without preallocating whole regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

TEXT_BASE = 0x0040_0000
TEXT_LIMIT = 0x0100_0000
HEAP_BASE = 0x1000_0000
HEAP_CAPACITY = 256 * 1024 * 1024
HEAP_LIMIT = HEAP_BASE + HEAP_CAPACITY
STACK_CAPACITY = 1 * 1024 * 1024
STACK_BASE = 0x7FFF_0000_0000
STACK_LIMIT = STACK_BASE - STACK_CAPACITY

# Saved return-address / frame-pointer analog at the high end of every
# frame. Included in the frame size, never reachable through variables.
FRAME_METADATA_BYTES = 16

_PAGE_BITS = 12
_PAGE = 1 << _PAGE_BITS


class MemoryFault(Exception):
    """Access outside the readable or writable regions."""


class StackOverflow(MemoryFault):
    """Frame allocation would cross the stack capacity limit."""


class StackUnderflow(MemoryFault):
    """Frame pop with no live frames."""


class HeapExhausted(MemoryFault):
    """Heap allocation would cross the heap capacity limit."""


def in_text(addr: int, length: int = 1) -> bool:
    return TEXT_BASE <= addr and addr + length <= TEXT_LIMIT


def in_heap(addr: int, length: int = 1) -> bool:
    return HEAP_BASE <= addr and addr + length <= HEAP_LIMIT


def in_stack(addr: int, length: int = 1) -> bool:
    return STACK_LIMIT <= addr and addr + length <= STACK_BASE


@dataclass(frozen=True)
class StackFrame:
    """One live activation record. `base` is the high bound (exclusive),
    `top` the low bound (inclusive); frames grow downward."""

    owner: int
    base: int
    top: int

    @property
    def size(self) -> int:
        return self.base - self.top


@dataclass(frozen=True)
class HeapObject:
    base: int
    size: int


class ProcessMemory:
    """Byte-addressable store with stack/heap/text region discipline."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self._frames: list[StackFrame] = []
        self._heap: list[HeapObject] = []
        self._heap_next = HEAP_BASE

    # ------------------------------------------------------------------
    # raw byte access

    def _write(self, addr: int, data: bytes) -> None:
        done = 0
        length = len(data)
        while done < length:
            page, off = divmod(addr + done, _PAGE)
            step = min(length - done, _PAGE - off)
            buf = self._pages.get(page)
            if buf is None:
                buf = bytearray(_PAGE)
                self._pages[page] = buf
            buf[off:off + step] = data[done:done + step]
            done += step

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read from stack, heap, or text. Unwritten bytes are zero."""
        if length < 0:
            raise ValueError("negative read length")
        if not (in_stack(addr, length) or in_heap(addr, length) or in_text(addr, length)):
            raise MemoryFault(f"read outside mapped regions: {addr:#x}+{length}")
        return bytes_from_dump(self._pages, addr, length)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write to stack or heap. The text region is read-only."""
        if not data:
            return
        if not (in_stack(addr, len(data)) or in_heap(addr, len(data))):
            if in_text(addr, len(data)):
                raise MemoryFault(f"write to read-only text region: {addr:#x}")
            raise MemoryFault(f"write outside writable regions: {addr:#x}+{len(data)}")
        self._write(addr, data)

    def clear_region(self, addr: int, length: int) -> None:
        """Overwrite a stack or heap region with zeros."""
        if length:
            self.write_bytes(addr, bytes(length))

    # ------------------------------------------------------------------
    # stack frames

    @property
    def frames(self) -> tuple[StackFrame, ...]:
        return tuple(self._frames)

    def push_frame(self, owner: int, size: int) -> StackFrame:
        """Allocate a zero-initialized frame directly below the stack top."""
        if size <= 0:
            raise ValueError("frame size must be positive")
        base = self._frames[-1].top if self._frames else STACK_BASE
        top = base - size
        if top < STACK_LIMIT:
            raise StackOverflow(f"frame of {size} bytes exceeds stack capacity")
        self._write(top, bytes(size))
        frame = StackFrame(owner=owner, base=base, top=top)
        self._frames.append(frame)
        return frame

    def pop_frame(self) -> StackFrame:
        """Release the lowest frame. Its bytes stay in place (stale data)."""
        if not self._frames:
            raise StackUnderflow("pop with no live frames")
        return self._frames.pop()

    # ------------------------------------------------------------------
    # heap

    @property
    def heap_objects(self) -> tuple[HeapObject, ...]:
        return tuple(self._heap)

    def heap_alloc(self, size: int) -> HeapObject:
        """Bump-allocate a fresh 16-byte-aligned heap object."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        base = self._heap_next
        if base + size > HEAP_LIMIT:
            raise HeapExhausted(f"allocation of {size} bytes exceeds heap capacity")
        self._heap_next = base + ((size + 15) // 16) * 16
        obj = HeapObject(base=base, size=size)
        self._heap.append(obj)
        return obj

    # ------------------------------------------------------------------
    # page dumps

    def dump_pages(self) -> dict[int, bytes]:
        """Copy of the whole backing store, keyed by page index."""
        return {page: bytes(buf) for page, buf in self._pages.items()}

    def content_signature(self) -> dict[int, bytes]:
        """Backing store with all-zero pages dropped; equal signatures
        mean byte-identical memory contents."""
        zero = bytes(_PAGE)
        return {page: bytes(buf) for page, buf in self._pages.items() if bytes(buf) != zero}


def bytes_from_dump(dump: Mapping[int, bytes | bytearray], addr: int, length: int) -> bytes:
    """Read a region out of a dump_pages() image or the live page store."""
    out = bytearray(length)
    done = 0
    while done < length:
        page, off = divmod(addr + done, _PAGE)
        step = min(length - done, _PAGE - off)
        buf = dump.get(page)
        if buf is not None:
            out[done:done + step] = buf[off:off + step]
        done += step
    return bytes(out)
