"""Simulated process memory for one process image.

The address space has three fixed, disjoint regions: a read-only text
region, an upward-growing heap, and a downward-growing stack. Storage is
two contiguous segments, one `bytearray` each: the stack's covers
`[STACK_BASE - len, STACK_BASE)` and the heap's `[HEAP_BASE, HEAP_BASE +
len)`. A write beyond a segment grows it in 4 KiB steps up to the region's
capacity; bytes beyond both segments were never written and read as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

TEXT_BASE = 0x0040_0000
TEXT_LIMIT = 0x0100_0000
STACK_CAPACITY = 1 * 1024 * 1024
HEAP_BASE = 0x1000_0000
# Sixteen objects of the largest size a description may declare
# (program.MAX_OBJECT_BYTES): the heap segment holds every byte below its
# highest write, so this also bounds what one description can make it hold.
HEAP_CAPACITY = 16 * STACK_CAPACITY
HEAP_LIMIT = HEAP_BASE + HEAP_CAPACITY
STACK_BASE = 0x7FFF_0000_0000
STACK_LIMIT = STACK_BASE - STACK_CAPACITY

# Saved return-address / frame-pointer analog at the high end of every
# frame. Included in the frame size, never reachable through variables.
FRAME_METADATA_BYTES = 16

# Segment growth step and content_signature granule. Region bounds and
# capacities are multiples of it, so chunk addresses do not depend on how
# far a segment has grown.
_CHUNK = 4096
# Zeros to clear and grow from, as long as the largest region. A view of
# immutable bytes is safe to keep, and pages that are only read stay off
# the resident set; a fresh bytes(n) per clear would fault in n new bytes.
_ZEROS = memoryview(bytes(max(STACK_CAPACITY, HEAP_CAPACITY)))


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


class StackFrame(NamedTuple):
    """One live activation record. `base` is the high bound (exclusive),
    `top` the low bound (inclusive); frames grow downward. A NamedTuple,
    so it equals the plain tuple (owner, base, top)."""

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
        self._stack = bytearray()
        self._heap = bytearray()
        self._frames: list[StackFrame] = []
        self._objects: list[HeapObject] = []
        self._heap_next = HEAP_BASE

    # ------------------------------------------------------------------
    # raw byte access

    def _segments(self) -> dict[int, bytearray]:
        """The live segments, keyed by the address of their first byte."""
        return {STACK_BASE - len(self._stack): self._stack, HEAP_BASE: self._heap}

    def _covering(self, addr: int, length: int) -> tuple[bytearray, int]:
        """The segment holding stack or heap bytes [addr, addr+length),
        grown to cover them, and addr's offset in it."""
        if addr >= STACK_LIMIT:
            short = STACK_BASE - addr - len(self._stack)
            if short > 0:
                self._stack[:0] = _ZEROS[:-(-short // _CHUNK) * _CHUNK]
            return self._stack, addr - STACK_BASE + len(self._stack)
        short = addr + length - HEAP_BASE - len(self._heap)
        if short > 0:
            self._heap += _ZEROS[:-(-short // _CHUNK) * _CHUNK]
        return self._heap, addr - HEAP_BASE

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read from stack, heap, or text. Unwritten bytes are zero."""
        if length < 0:
            raise ValueError("negative read length")
        segment = self._stack
        off = addr - STACK_BASE + len(segment)
        if off >= 0 and addr + length <= STACK_BASE:
            # The stack segment holds every byte. A slice is the cheaper
            # copy for short reads, the view below for long ones.
            if length <= _CHUNK:
                return bytes(segment[off:off + length])
        elif in_heap(addr, length):
            segment, off = self._heap, addr - HEAP_BASE
        elif in_text(addr, length):
            return bytes(length)
        elif not in_stack(addr, length):
            raise MemoryFault(f"read outside mapped regions: {addr:#x}+{length}")
        if off < 0 or off + length > len(segment):
            return bytes_from_dump({addr - off: segment}, addr, length)
        # A temporary view copies the bytes once. No view outlives the
        # call, because a bytearray with an exported view cannot grow.
        return bytes(memoryview(segment)[off:off + length])

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write to stack or heap. The text region is read-only."""
        stack = self._stack
        off = addr - STACK_BASE + len(stack)
        if off >= 0 and addr + len(data) <= STACK_BASE:  # the stack segment holds them
            stack[off:off + len(data)] = data
            return
        if not data:
            return
        if not (in_stack(addr, len(data)) or in_heap(addr, len(data))):
            if in_text(addr, len(data)):
                raise MemoryFault(f"write to read-only text region: {addr:#x}")
            raise MemoryFault(f"write outside writable regions: {addr:#x}+{len(data)}")
        segment, off = self._covering(addr, len(data))
        segment[off:off + len(data)] = data

    def holds(self, addr: int, data: bytes) -> bool:
        """Whether the bytes at addr equal `data`. Where one segment holds
        them all they are compared in place, with no copy."""
        length = len(data)
        off = addr - STACK_BASE + len(self._stack)
        if off >= 0 and addr + length <= STACK_BASE:
            return self._stack.startswith(data, off)
        off = addr - HEAP_BASE
        if off >= 0 and off + length <= len(self._heap):
            return self._heap.startswith(data, off)
        return self.read_bytes(addr, length) == data

    def clear_region(self, addr: int, length: int) -> None:
        """Overwrite a stack or heap region with zeros."""
        if length < 0:
            raise ValueError("negative clear length")
        # A clear longer than _ZEROS fits no region; write_bytes faults on it.
        self.write_bytes(addr, _ZEROS[:length] if length <= len(_ZEROS) else bytes(length))

    # ------------------------------------------------------------------
    # stack frames

    def push_frame(self, owner: int, size: int) -> StackFrame:
        """Allocate a zero-initialized frame directly below the stack top."""
        frames = self._frames
        base = frames[-1].top if frames else STACK_BASE
        top = base - size
        segment = self._stack
        off = top - STACK_BASE + len(segment)
        fresh = 0  # the frame's first bytes that growing the segment zeroes
        if size <= 0 or off < 0:  # not a frame the stack segment already covers
            if size <= 0:
                raise ValueError("frame size must be positive")
            if top < STACK_LIMIT:
                raise StackOverflow(f"frame of {size} bytes exceeds stack capacity")
            fresh = -off
            segment, off = self._covering(top, size)
        segment[off + fresh:off + size] = _ZEROS[:size - fresh]
        frame = StackFrame(owner, base, top)
        frames.append(frame)
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
        return tuple(self._objects)

    def heap_alloc(self, size: int) -> HeapObject:
        """Bump-allocate a fresh 16-byte-aligned heap object."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        base = self._heap_next
        if base + size > HEAP_LIMIT:
            raise HeapExhausted(f"allocation of {size} bytes exceeds heap capacity")
        self._heap_next = base + ((size + 15) // 16) * 16
        obj = HeapObject(base=base, size=size)
        self._objects.append(obj)
        return obj

    # ------------------------------------------------------------------
    # segment dumps

    def dump_pages(self) -> dict[int, bytes]:
        """Copy of both segments, keyed by the address of their first byte."""
        return {base: bytes(segment) for base, segment in self._segments().items()}

    def content_signature(self) -> dict[int, bytes]:
        """The non-zero 4 KiB chunks of both segments, keyed by address.
        Equal signatures mean byte-identical memory contents, and all-zero
        memory equals an empty store. Chunks keep the signature as small as
        the written bytes are, however far a scrubbed segment has grown."""
        zero = bytes(_CHUNK)
        signature = {}
        for base, segment in self._segments().items():
            data = bytes(segment)
            for off in range(0, len(data), _CHUNK):
                if data[off:off + _CHUNK] != zero:
                    signature[base + off] = data[off:off + _CHUNK]
        return signature


def bytes_from_dump(dump: Mapping[int, bytes | bytearray], addr: int, length: int) -> bytes:
    """Read a region out of a dump_pages() image: {segment base: bytes}.
    Bytes outside every segment read as zero."""
    out = bytearray(length)
    for base, segment in dump.items():
        lo, hi = max(addr, base), min(addr + length, base + len(segment))
        if lo < hi:
            out[lo - addr:hi - addr] = memoryview(segment)[lo - base:hi - base]
    return bytes(out)
