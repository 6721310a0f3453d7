"""Differential test of the memory model against a per-address reference.

The reference maps every address to its byte (absent means zero) and
applies the region rules directly: text is readable but read-only, stack
and heap are readable and writable, everything else faults. Random
sequences of frame, heap and byte operations run against ProcessMemory
and the reference side by side, and every result and fault is compared.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from framevault.memory import (HEAP_BASE, HEAP_CAPACITY, HEAP_LIMIT, STACK_BASE,
                               STACK_CAPACITY, STACK_LIMIT, TEXT_BASE, TEXT_LIMIT,
                               HeapExhausted, MemoryFault, ProcessMemory, StackOverflow,
                               StackUnderflow, bytes_from_dump)
from framevault.program import MAX_OBJECT_BYTES

READABLE = ((STACK_LIMIT, STACK_BASE), (HEAP_BASE, HEAP_LIMIT), (TEXT_BASE, TEXT_LIMIT))
WRITABLE = READABLE[:2]


def _inside(regions, addr, length):
    return any(lo <= addr and addr + length <= hi for lo, hi in regions)


class Reference:
    """Memory as a dict from address to non-zero byte."""

    def __init__(self) -> None:
        self.bytes: dict[int, int] = {}
        self.frames: list[tuple[int, int]] = []   # (top, base)
        self.heap_next = HEAP_BASE

    def read(self, addr, length):
        return bytes(self.bytes.get(a, 0) for a in range(addr, addr + length))

    def write(self, addr, data):
        for i, b in enumerate(data):
            if b:
                self.bytes[addr + i] = b
            else:
                self.bytes.pop(addr + i, None)

    def clear(self, addr, length):
        for a in [a for a in self.bytes if addr <= a < addr + length]:
            del self.bytes[a]

    def rebuilt(self) -> ProcessMemory:
        """A fresh ProcessMemory holding only this reference's non-zero bytes."""
        m = ProcessMemory()
        run_start, run = None, bytearray()
        for a in sorted(self.bytes):
            if run and a != run_start + len(run):
                m.write_bytes(run_start, bytes(run))
                run = bytearray()
            if not run:
                run_start = a
            run.append(self.bytes[a])
        if run:
            m.write_bytes(run_start, bytes(run))
        return m


# Addresses near every region edge, so that accesses straddle the stack's
# unwritten low end, the heap's unwritten high end and the region bounds.
ANCHORS = (STACK_BASE, STACK_LIMIT, HEAP_BASE, HEAP_LIMIT, TEXT_BASE, TEXT_LIMIT, 0x10)
addresses = st.builds(lambda anchor, delta: anchor + delta,
                      st.sampled_from(ANCHORS), st.integers(-9000, 9000))
lengths = st.integers(0, 9000)
payloads = st.binary(min_size=0, max_size=600).map(lambda b: b.replace(b"\0", b"\1")) | \
    st.builds(lambda n, b: bytes([b]) * n, st.integers(0, 9000), st.integers(0, 255))

operations = st.one_of(
    st.tuples(st.just("push"), st.integers(-1, 9000) | st.sampled_from(
        (STACK_BASE - STACK_LIMIT, STACK_BASE - STACK_LIMIT + 1))),
    st.tuples(st.just("pop")),
    st.tuples(st.just("alloc"), st.integers(-1, 9000) | st.sampled_from(
        (HEAP_LIMIT - HEAP_BASE, HEAP_LIMIT - HEAP_BASE + 1))),
    st.tuples(st.just("write"), addresses, payloads),
    st.tuples(st.just("clear"), addresses, lengths | st.just(-1)),
    st.tuples(st.just("read"), addresses, lengths | st.just(-1)),
    st.tuples(st.just("dump"), addresses, lengths),
    st.tuples(st.just("signature")),
)


def _apply(m: ProcessMemory, ref: Reference, op) -> None:
    kind = op[0]
    if kind == "push":
        size = op[1]
        base = ref.frames[-1][0] if ref.frames else STACK_BASE
        if size <= 0:
            with pytest.raises(ValueError):
                m.push_frame(0, size)
        elif base - size < STACK_LIMIT:
            with pytest.raises(StackOverflow):
                m.push_frame(0, size)
        else:
            frame = m.push_frame(len(ref.frames), size)
            ref.frames.append((base - size, base))
            ref.clear(base - size, size)
            assert (frame.top, frame.base) == ref.frames[-1]
    elif kind == "pop":
        if not ref.frames:
            with pytest.raises(StackUnderflow):
                m.pop_frame()
        else:
            frame = m.pop_frame()
            assert (frame.top, frame.base) == ref.frames.pop()
    elif kind == "alloc":
        size = op[1]
        if size <= 0:
            with pytest.raises(ValueError):
                m.heap_alloc(size)
        elif ref.heap_next + size > HEAP_LIMIT:
            with pytest.raises(HeapExhausted):
                m.heap_alloc(size)
        else:
            obj = m.heap_alloc(size)
            assert (obj.base, obj.size) == (ref.heap_next, size)
            ref.heap_next += (size + 15) // 16 * 16
    elif kind == "write":
        addr, data = op[1], op[2]
        if data and not _inside(WRITABLE, addr, len(data)):
            with pytest.raises(MemoryFault):
                m.write_bytes(addr, data)
        else:
            m.write_bytes(addr, data)
            ref.write(addr, data)
    elif kind == "clear":
        addr, length = op[1], op[2]
        if length < 0:
            with pytest.raises(ValueError):
                m.clear_region(addr, length)
        elif length and not _inside(WRITABLE, addr, length):
            with pytest.raises(MemoryFault):
                m.clear_region(addr, length)
        else:
            m.clear_region(addr, length)
            ref.clear(addr, length)
    elif kind == "read":
        addr, length = op[1], op[2]
        if length < 0:
            with pytest.raises(ValueError):
                m.read_bytes(addr, length)
        elif not _inside(READABLE, addr, length):
            with pytest.raises(MemoryFault):
                m.read_bytes(addr, length)
        else:
            got = m.read_bytes(addr, length)
            assert type(got) is bytes
            assert got == ref.read(addr, length)
            # The in-place comparison agrees, and tells one changed byte.
            assert m.holds(addr, got)
            if length:
                assert not m.holds(addr, got[:-1] + bytes([got[-1] ^ 1]))
    elif kind == "dump":
        addr, length = op[1], op[2]
        dump = m.dump_pages()
        if _inside(READABLE, addr, length):
            assert bytes_from_dump(dump, addr, length) == ref.read(addr, length)
        # A dump is a copy: later writes do not show through it.
        if ref.bytes:
            a = min(ref.bytes)
            m.write_bytes(a, bytes([ref.bytes[a] ^ 0xFF]))
            assert bytes_from_dump(dump, a, 1) == bytes([ref.bytes[a]])
            m.write_bytes(a, bytes([ref.bytes[a]]))
    else:
        signature = m.content_signature()
        assert signature == ref.rebuilt().content_signature()
        if ref.bytes:
            assert signature != ProcessMemory().content_signature()
            changed = ref.rebuilt()
            a = max(ref.bytes)
            changed.write_bytes(a, bytes([ref.bytes[a] ^ 0x01]))
            assert signature != changed.content_signature()


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(operations, max_size=30))
def test_memory_matches_a_per_address_reference(ops):
    m, ref = ProcessMemory(), Reference()
    for op in ops:
        _apply(m, ref, op)
    # Whatever happened, all-zero memory still equals an empty store.
    for a in list(ref.bytes):
        m.write_bytes(a, b"\0")
    assert m.content_signature() == ProcessMemory().content_signature()


@pytest.mark.parametrize("addr, length", [
    (STACK_BASE - 4, 8),            # straddles the stack base
    (STACK_LIMIT - 4, 8),           # straddles the stack limit
    (HEAP_LIMIT - 4, 8),            # straddles the heap limit
    (HEAP_BASE - 1, 2),             # straddles the heap base
    (0x10, 1),                      # unmapped
])
def test_write_and_clear_outside_the_regions_fault(addr, length):
    m = ProcessMemory()
    with pytest.raises(MemoryFault):
        m.write_bytes(addr, b"\x01" * length)
    with pytest.raises(MemoryFault):
        m.clear_region(addr, length)


def test_text_write_faults_and_negative_read_length_is_rejected():
    m = ProcessMemory()
    with pytest.raises(MemoryFault, match="read-only text"):
        m.write_bytes(TEXT_BASE + 8, b"\x01")
    with pytest.raises(ValueError):
        m.read_bytes(HEAP_BASE, -1)


def test_memory_holds_at_most_its_two_capacities():
    m = ProcessMemory()
    m.write_bytes(HEAP_LIMIT - 1, b"\x01")
    m.write_bytes(STACK_LIMIT, b"\x02")
    with pytest.raises(MemoryFault):
        m.write_bytes(HEAP_LIMIT, b"\x01")
    assert m.read_bytes(HEAP_LIMIT - 1, 1) == b"\x01"
    assert m.read_bytes(STACK_LIMIT, 1) == b"\x02"
    assert sum(len(v) for v in m.dump_pages().values()) <= STACK_CAPACITY + HEAP_CAPACITY
    # The heap holds sixteen of the largest objects a description may declare.
    assert HEAP_CAPACITY == 16 * MAX_OBJECT_BYTES
