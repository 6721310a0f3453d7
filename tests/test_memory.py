"""Memory model: region discipline, frame lifecycle, sparse storage."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from framevault.memory import (FRAME_METADATA_BYTES, HEAP_BASE, HeapExhausted,
                               MemoryFault, ProcessMemory, STACK_BASE, STACK_LIMIT,
                               StackOverflow, StackUnderflow, TEXT_BASE,
                               bytes_from_dump, in_heap, in_stack, in_text)


class TestRegions:
    def test_regions_are_disjoint(self):
        for addr in (TEXT_BASE, HEAP_BASE, STACK_BASE - 1):
            assert in_text(addr) + in_heap(addr) + in_stack(addr) == 1

    def test_stack_range_is_base_exclusive(self):
        assert in_stack(STACK_BASE - 1)
        assert not in_stack(STACK_BASE)
        assert in_stack(STACK_LIMIT)
        assert not in_stack(STACK_LIMIT - 1)

    def test_unwritten_bytes_read_as_zero(self):
        m = ProcessMemory()
        assert m.read_bytes(STACK_BASE - 64, 64) == bytes(64)
        assert m.read_bytes(HEAP_BASE, 16) == bytes(16)

    def test_read_outside_regions_faults(self):
        m = ProcessMemory()
        with pytest.raises(MemoryFault):
            m.read_bytes(0x10, 4)
        with pytest.raises(MemoryFault):
            m.read_bytes(STACK_BASE - 2, 4)  # straddles the stack base

    def test_text_is_read_only(self):
        m = ProcessMemory()
        assert m.read_bytes(TEXT_BASE, 4) == bytes(4)
        with pytest.raises(MemoryFault):
            m.write_bytes(TEXT_BASE, b"\x01")


class TestFrames:
    def test_first_frame_hangs_from_stack_base(self):
        m = ProcessMemory()
        frame = m.push_frame(owner=0, size=64)
        assert frame.base == STACK_BASE
        assert frame.top == STACK_BASE - 64
        assert frame.size == 64

    def test_frames_grow_downward_contiguously(self):
        m = ProcessMemory()
        f1 = m.push_frame(0, 64)
        f2 = m.push_frame(1, 48)
        assert f2.base == f1.top
        assert f2.top == f1.top - 48

    def test_new_frame_is_zeroed_even_over_stale_bytes(self):
        m = ProcessMemory()
        f1 = m.push_frame(0, 32)
        m.write_bytes(f1.top, b"\xaa" * 32)
        m.pop_frame()
        f2 = m.push_frame(1, 32)
        assert f2.top == f1.top
        assert m.read_bytes(f2.top, 32) == bytes(32)

    def test_pop_leaves_stale_bytes_in_place(self):
        m = ProcessMemory()
        frame = m.push_frame(0, 32)
        m.write_bytes(frame.top, b"\x5a" * 32)
        m.pop_frame()
        # The region is off-frame now but still mapped stack memory.
        assert m.read_bytes(frame.top, 32) == b"\x5a" * 32

    def test_overflow_and_underflow(self):
        m = ProcessMemory()
        with pytest.raises(StackOverflow):
            m.push_frame(0, STACK_BASE - STACK_LIMIT + 1)
        with pytest.raises(StackUnderflow):
            m.pop_frame()

    def test_metadata_pad_is_part_of_the_frame(self):
        assert FRAME_METADATA_BYTES == 16


class TestHeap:
    def test_alloc_is_16_byte_aligned_bump(self):
        m = ProcessMemory()
        a = m.heap_alloc(24)
        b = m.heap_alloc(8)
        assert a.base == HEAP_BASE
        assert b.base == HEAP_BASE + 32  # 24 rounds up to 32
        assert m.heap_objects == (a, b)

    def test_exhaustion(self):
        m = ProcessMemory()
        with pytest.raises(HeapExhausted):
            m.heap_alloc(257 * 1024 * 1024)


class TestSnapshots:
    def test_dump_and_signature(self):
        m = ProcessMemory()
        frame = m.push_frame(0, 32)
        m.write_bytes(frame.top + 4, b"\x07\x08")
        dump = m.dump_pages()
        assert bytes_from_dump(dump, frame.top + 4, 2) == b"\x07\x08"
        assert bytes_from_dump(dump, frame.top, 4) == bytes(4)
        m2 = ProcessMemory()
        m2.push_frame(0, 32)
        m2.write_bytes(frame.top + 4, b"\x07\x08")
        assert m.content_signature() == m2.content_signature()
        m2.write_bytes(frame.top + 4, b"\x07\x09")
        assert m.content_signature() != m2.content_signature()

    def test_signature_ignores_all_zero_pages(self):
        m = ProcessMemory()
        frame = m.push_frame(0, 64)
        empty = ProcessMemory()
        assert m.content_signature() == empty.content_signature()
        m.write_bytes(frame.top, b"\x01")
        assert m.content_signature() != empty.content_signature()


# Cross-page behavior matters: frames and objects routinely straddle the
# 4096-byte storage granules.

_REGION = STACK_BASE - 8192


@given(writes=st.lists(
    st.tuples(st.integers(0, 8000), st.binary(min_size=1, max_size=190)),
    max_size=24))
def test_last_writer_wins(writes):
    m = ProcessMemory()
    model = bytearray(8192)
    for off, data in writes:
        m.write_bytes(_REGION + off, data)
        model[off:off + len(data)] = data
    assert m.read_bytes(_REGION, 8192) == bytes(model)


@given(off=st.integers(0, 4000), length=st.integers(0, 4000))
def test_clear_region_zeroes_exactly_the_region(off, length):
    m = ProcessMemory()
    m.write_bytes(_REGION, b"\xff" * 8192)
    m.clear_region(_REGION + off, length)
    got = m.read_bytes(_REGION, 8192)
    assert got == b"\xff" * off + bytes(length) + b"\xff" * (8192 - off - length)
