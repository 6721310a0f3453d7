"""Protection runtime: save/clear/restore byte-exactness, watermark
accounting, detection of forged and spoofed calls.

Expected byte images here are computed by hand from the declared layouts,
never read back from the implementation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from framevault.identity import load_image_map
from framevault.memory import ProcessMemory, STACK_BASE
from framevault.oracle import OracleVault, window_bytes
from framevault.runtime import (ExceptionKind, MemoryEntry, MemoryExceptionEntry, SaveBuffer,
                                StackEntry, VaultState)

MAP = """\
victim    0x401000 0x401100
intruder  0x401100 0x401200
outerfn   0x401200 0x401300
"""
VPC, IPC, OPC = 0x401010, 0x401110, 0x401210
BAD_PC = 0x700000  # inside text, outside every span

FRAME_PATTERN = bytes(range(0x10, 0x40))   # 48 variable bytes, all non-zero
HEAP_PATTERN = bytes(range(0x80, 0xA0))    # 32 bytes, all non-zero
CARVE_NEW = b"\xca\xfe\xba\xbe"


def make_state(vault_cls=VaultState):
    table = load_image_map(MAP)
    return ProcessMemory(), vault_cls(table)


def run_both(ops):
    """Apply ops to a VaultState and an OracleVault over the same memory
    layout, asserting equal memory after every op; return both vaults.

    The layout: a 64-byte frame, a 32-byte frame and a 32-byte heap object,
    each holding its own non-zero pattern. Ops are the six runtime calls,
    with regions given as (block, offset, length), plus ("write", region,
    byte) for a write by whoever runs at that point.
    """
    runs = []
    for vault_cls in (VaultState, OracleVault):
        memory, vault = make_state(vault_cls)
        frames = [memory.push_frame(0, 64), memory.push_frame(1, 32)]
        heap = memory.heap_alloc(32)
        blocks = [(f.top, f.size) for f in frames] + [(heap.base, 32)]
        memory.write_bytes(frames[0].top, FRAME_PATTERN + bytes(range(0x40, 0x50)))
        memory.write_bytes(frames[1].top, bytes(range(0x60, 0x80)))
        memory.write_bytes(heap.base, HEAP_PATTERN)
        runs.append((memory, vault, frames, blocks))

    def region(vault, blocks, block, offset, length):
        if block is None:  # the latest registered frame
            latest = [e for e in vault.register_list if isinstance(e, StackEntry)]
            block = [b for b, _ in blocks].index(latest[-1].frame_top) if latest else 0
        base, size = blocks[block]
        offset %= size
        return base + offset, min(length, size - offset)

    for op in ops:
        name, *args = op
        for memory, vault, frames, blocks in runs:
            if name == "register_stack":
                pc, index, all_ = args
                vault.register_stack(pc, all_, frames[index].base, frames[index].top)
            elif name in ("register_memory", "register_memory_exception"):
                pc, where, read_only = args
                getattr(vault, name)(pc, *region(vault, blocks, *where), read_only)
            elif name == "write":
                where, byte = args
                addr, length = region(vault, blocks, *where)
                memory.write_bytes(addr, bytes([byte]) * length)
            else:
                getattr(vault, name)(memory, args[0])
        assert runs[0][0].content_signature() == runs[1][0].content_signature(), op
    return runs[0][1], runs[1][1]


# Calls come in rounds: a few registrations, start_protect, a few writes
# inside the window, then a few stop_protect or unregister_stack calls.
# One call in four comes from the intruder. Few distinct offsets and
# lengths, so that regions often overlap; a block of None names the latest
# registered frame, so that most carve-outs are accepted.
CALLER = st.sampled_from((VPC, VPC, VPC, IPC))
OFFSET_LENGTH = (st.sampled_from((0, 8, 16)), st.sampled_from((0, 8, 16)))
REGION = st.tuples(st.sampled_from((None, 0, 1, 2)), *OFFSET_LENGTH)
FRAME_REGION = st.tuples(st.sampled_from((None, None, None, 0, 1)), *OFFSET_LENGTH)
REGISTRATION = st.one_of(
    st.tuples(st.just("register_stack"), CALLER, st.integers(0, 1), st.booleans()),
    st.tuples(st.just("register_memory"), CALLER, REGION, st.booleans()),
    st.tuples(st.just("register_memory_exception"), CALLER, FRAME_REGION, st.booleans()),
)
ROUND = st.tuples(
    st.lists(REGISTRATION, max_size=5),
    st.tuples(st.just("start_protect"), CALLER),
    st.lists(st.tuples(st.just("write"), REGION, st.integers(1, 255)), max_size=3),
    st.lists(st.tuples(st.sampled_from(("stop_protect", "unregister_stack")), CALLER),
             max_size=3),
).map(lambda r: [*r[0], r[1], *r[2], *r[3]])
RUNTIME_OPS = st.lists(ROUND, min_size=1, max_size=6).map(lambda rounds: sum(rounds, []))


def open_standard_window(memory, vault):
    """frame(64) + heap object(32) + carve-out(4) registered and opened.

    The frame: 48 pattern bytes, then a 16-byte zero metadata pad.
    The carve-out is frame bytes [8:12].
    """
    frame = memory.push_frame(owner=0, size=64)
    memory.write_bytes(frame.top, FRAME_PATTERN)
    obj = memory.heap_alloc(32)
    memory.write_bytes(obj.base, HEAP_PATTERN)
    vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
    vault.register_memory(VPC, obj.base, 32, False)
    vault.register_memory_exception(VPC, frame.top + 8, 4, False)
    vault.start_protect(memory, VPC)
    return frame, obj


class TestWindowByteExact:
    def test_open_saves_then_hides(self):
        memory, vault = make_state()
        frame, obj = open_standard_window(memory, vault)
        # Saved: 64-byte frame + 32-byte object + 4-byte carve-out = 100.
        assert vault.save_buffer.bytes_produced == 100
        # The carve-out record is read back during the open itself.
        assert vault.save_buffer.bytes_released == 4
        # Cleared: the frame and the writable object, 64 + 32 = 96.
        assert vault.stats.bytes_cleared == 96
        hidden = memory.read_bytes(frame.top, 64)
        assert hidden == bytes(8) + FRAME_PATTERN[8:12] + bytes(52)
        assert memory.read_bytes(obj.base, 32) == bytes(32)

    def test_close_restores_everything_but_the_carve_out(self):
        memory, vault = make_state()
        frame, obj = open_standard_window(memory, vault)
        # The untrusted callee writes the carve-out and scribbles elsewhere.
        memory.write_bytes(frame.top + 8, CARVE_NEW)
        memory.write_bytes(frame.top + 20, b"\xee" * 8)
        memory.write_bytes(obj.base, b"\xdd" * 32)
        vault.stop_protect(memory, VPC)
        assert vault.exception_log == []
        expected_frame = (FRAME_PATTERN[:8] + CARVE_NEW + FRAME_PATTERN[12:]
                          + bytes(16))
        assert memory.read_bytes(frame.top, 64) == expected_frame
        assert memory.read_bytes(obj.base, 32) == HEAP_PATTERN
        assert vault.save_buffer.all_consumed()
        assert vault.save_buffer.bytes_released == 100
        assert vault.protect_list == [] and len(vault.register_list) == 3

    def test_read_only_object_stays_visible_and_comes_back(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        obj = memory.heap_alloc(16)
        memory.write_bytes(obj.base, bytes(range(0x41, 0x51)))
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.register_memory(VPC, obj.base, 16, True)
        vault.start_protect(memory, VPC)
        assert memory.read_bytes(obj.base, 16) == bytes(range(0x41, 0x51))
        memory.write_bytes(obj.base, b"\x00" * 16)  # callee vandalism
        vault.stop_protect(memory, VPC)
        assert memory.read_bytes(obj.base, 16) == bytes(range(0x41, 0x51))

    def test_empty_window_is_legal(self):
        memory, vault = make_state()
        vault.start_protect(memory, VPC)
        assert vault.save_buffer.bytes_produced == 0
        vault.stop_protect(memory, VPC)
        assert vault.exception_log == []

    def test_all_false_frame_is_not_hidden(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        memory.write_bytes(frame.top, b"\x11" * 16)
        vault.register_stack(VPC, all=False, frame_base=frame.base, frame_top=frame.top)
        vault.start_protect(memory, VPC)
        assert memory.read_bytes(frame.top, 16) == b"\x11" * 16
        assert vault.save_buffer.bytes_produced == 0
        vault.stop_protect(memory, VPC)
        assert vault.exception_log == []


class TestNesting:
    def test_inner_window_saves_exactly_the_new_registrations(self):
        memory, vault = make_state()
        f1 = memory.push_frame(2, 64)
        o1 = memory.heap_alloc(32)
        vault.register_stack(OPC, all=True, frame_base=f1.base, frame_top=f1.top)
        vault.register_memory(OPC, o1.base, 32, False)
        vault.start_protect(memory, OPC)
        produced_outer = vault.save_buffer.bytes_produced
        assert produced_outer == 64 + 32

        f2 = memory.push_frame(0, 48)
        o2 = memory.heap_alloc(16)
        vault.register_stack(VPC, all=True, frame_base=f2.base, frame_top=f2.top)
        vault.register_memory(VPC, o2.base, 16, False)
        vault.start_protect(memory, VPC)
        # Growth is the inner footprint alone: 48 + 16 = 64 bytes.
        assert vault.save_buffer.bytes_produced - produced_outer == 48 + 16

        vault.stop_protect(memory, VPC)
        assert vault.save_buffer.bytes_released == 48 + 16
        vault.unregister_stack(memory, VPC)  # inner epilogue, before returning
        vault.stop_protect(memory, OPC)
        assert vault.exception_log == []
        assert vault.save_buffer.all_consumed()
        assert vault.save_buffer.bytes_released == vault.save_buffer.bytes_produced

    def test_windows_close_in_lifo_order_only(self):
        memory, vault = make_state()
        f1 = memory.push_frame(2, 64)
        vault.register_stack(OPC, all=True, frame_base=f1.base, frame_top=f1.top)
        vault.start_protect(memory, OPC)
        f2 = memory.push_frame(0, 48)
        vault.register_stack(VPC, all=True, frame_base=f2.base, frame_top=f2.top)
        vault.start_protect(memory, VPC)
        vault.stop_protect(memory, OPC)  # outer tries to close first
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]
        assert len(vault.protect_list) == 2


class TestDetection:
    def test_stop_from_wrong_function_is_rejected_without_restore(self):
        memory, vault = make_state()
        frame, obj = open_standard_window(memory, vault)
        before = memory.content_signature()
        vault.stop_protect(memory, IPC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]
        assert len(vault.protect_list) == 1
        assert memory.content_signature() == before
        vault.stop_protect(memory, VPC)  # the owner still can
        assert len(vault.protect_list) == 0
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]

    def test_forged_growth_is_rejected_without_restore(self):
        memory, vault = make_state()
        frame, obj = open_standard_window(memory, vault)
        other = memory.push_frame(1, 32)
        # Registering your own frame is always legal; the damage shows at
        # the window close, where the recorded watermark no longer matches.
        vault.register_stack(IPC, all=True, frame_base=other.base, frame_top=other.top)
        before = memory.content_signature()
        vault.stop_protect(memory, VPC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.INDEX_MISMATCH]
        assert len(vault.protect_list) == 1
        assert memory.content_signature() == before
        # Once the forged entry is removed the owner can close normally.
        vault.unregister_stack(memory, IPC)
        vault.stop_protect(memory, VPC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.INDEX_MISMATCH]
        assert vault.protect_list == []

    def test_spoofed_register_memory_is_rejected(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        obj = memory.heap_alloc(16)
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        before = memory.content_signature()
        vault.register_memory(IPC, obj.base, 16, False)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]
        assert len(vault.register_list) == 1
        assert memory.content_signature() == before

    def test_register_memory_with_no_frame_registered(self):
        memory, vault = make_state()
        obj = memory.heap_alloc(16)
        vault.register_memory(VPC, obj.base, 16, False)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]

    def test_exception_region_must_lie_within_the_frame(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.register_memory_exception(VPC, frame.top - 8, 4, False)
        vault.register_memory_exception(VPC, frame.base - 2, 4, False)
        assert [e.kind for e in vault.exception_log] == [
            ExceptionKind.REGION_OUT_OF_FRAME, ExceptionKind.REGION_OUT_OF_FRAME]
        assert len(vault.register_list) == 1

    def test_stop_with_no_open_window(self):
        memory, vault = make_state()
        vault.stop_protect(memory, VPC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]

    def test_unresolvable_pc_is_flagged_per_call(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        vault.register_stack(BAD_PC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.start_protect(memory, BAD_PC)
        vault.stop_protect(memory, BAD_PC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.UNKNOWN_CALLER] * 3
        assert vault.register_list == [] and vault.protect_list == []

    def test_every_invocation_is_counted_even_when_rejected(self):
        memory, vault = make_state()
        obj = memory.heap_alloc(16)
        vault.register_memory(IPC, obj.base, 16, False)  # rejected
        vault.stop_protect(memory, VPC)                  # rejected
        assert vault.stats.register_memory == 1
        assert vault.stats.stop_protect == 1
        assert vault.stats.total == 2


class TestUnregister:
    def test_unregister_scrubs_the_frame_and_truncates(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 64)
        memory.write_bytes(frame.top, FRAME_PATTERN)
        obj = memory.heap_alloc(16)
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.register_memory(VPC, obj.base, 16, False)
        vault.unregister_stack(memory, VPC)
        assert vault.register_list == []
        assert memory.read_bytes(frame.top, 64) == bytes(64)

    def test_unregister_by_wrong_owner_changes_nothing(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 64)
        memory.write_bytes(frame.top, FRAME_PATTERN)
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.unregister_stack(memory, IPC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]
        assert len(vault.register_list) == 1
        assert memory.read_bytes(frame.top, 48) == FRAME_PATTERN

    def test_unregister_with_nothing_registered(self):
        memory, vault = make_state()
        vault.unregister_stack(memory, VPC)
        assert [e.kind for e in vault.exception_log] == [ExceptionKind.IDENTITY_MISMATCH]

    def test_unregister_under_an_open_window_is_refused(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        memory.write_bytes(frame.top, FRAME_PATTERN[:32])
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.start_protect(memory, VPC)
        refused = vault.unregister_stack(memory, VPC)
        assert vault.exception_log == [refused]
        assert refused.kind is ExceptionKind.INDEX_MISMATCH
        assert refused.detail == "frame registration 0 lies below the open window's watermark 1"
        assert len(vault.register_list) == 1
        assert memory.read_bytes(frame.top, 32) == bytes(32)  # still hidden
        # A second window opens at the same watermark, not below it.
        vault.start_protect(memory, VPC)
        assert [w.register_index for w in vault.protect_list] == [1, 1]
        assert vault.diagnostics == []

    def test_unregister_and_register_again_leave_the_window_unclosable(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        memory.write_bytes(frame.top, FRAME_PATTERN[:32])
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.start_protect(memory, VPC)
        vault.unregister_stack(memory, VPC)
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        memory.write_bytes(frame.top, b"\x33" * 4)
        vault.stop_protect(memory, VPC)
        assert [(e.kind, e.syscall, e.detail) for e in vault.exception_log] == [
            (ExceptionKind.INDEX_MISMATCH, "unregister_stack",
             "frame registration 0 lies below the open window's watermark 1"),
            (ExceptionKind.INDEX_MISMATCH, "stop_protect",
             "RegisterList grew from 1 to 2 inside the window")]
        assert len(vault.register_list) == 2 and len(vault.protect_list) == 1
        assert memory.read_bytes(frame.top, 32) == b"\x33" * 4 + bytes(28)  # still hidden
        assert vault.diagnostics == []


class TestSaveBuffer:
    def test_records_are_read_exactly_once(self):
        buf = SaveBuffer()
        rid = buf.append(b"\x01\x02\x03")
        assert buf.consume(rid) == b"\x01\x02\x03"
        with pytest.raises(RuntimeError):
            buf.consume(rid)

    def test_byte_accounting(self):
        buf = SaveBuffer()
        a = buf.append(b"\x01" * 10)
        b = buf.append(b"\x02" * 6)
        assert buf.bytes_produced == 16 and buf.bytes_released == 0
        assert not buf.all_consumed()
        buf.consume(a)
        buf.consume(b)
        assert buf.bytes_released == 16 and buf.all_consumed()


class TestDiagnostics:
    def test_carve_out_opened_alone_has_no_enclosing_frame(self):
        memory, vault = make_state()
        frame = memory.push_frame(0, 32)
        memory.write_bytes(frame.top, FRAME_PATTERN[:32])
        vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
        vault.start_protect(memory, VPC)
        # The inner window covers the carve-out and nothing else.
        vault.register_memory_exception(VPC, frame.top + 8, 4, False)
        vault.start_protect(memory, VPC)
        memory.write_bytes(frame.top + 8, CARVE_NEW)
        vault.stop_protect(memory, VPC)
        assert vault.exception_log == []
        assert vault.diagnostics == ["carve-out with no enclosing frame in window"]
        assert memory.read_bytes(frame.top, 32) == bytes(8) + CARVE_NEW + bytes(20)


class TestWindowBytes:
    # A whole-frame registration [0x1000, 0x1100) with a 4-byte carve-out
    # at 0x1008, a writable and a read-only object, and an all=False frame.
    ENTRIES = [
        StackEntry(owner=0, frame_base=0x1100, frame_top=0x1000, all=True),
        MemoryEntry(owner=0, base=0x5000, length=32, read_only=False),
        MemoryEntry(owner=0, base=0x6000, length=16, read_only=True),
        MemoryExceptionEntry(owner=0, base=0x1008, length=4, read_only=False),
        StackEntry(owner=1, frame_base=0x1000, frame_top=0xF00, all=False),
    ]

    def test_carve_outs_are_cut_out_of_hidden_and_kept(self):
        hidden, kept, carve_outs = window_bytes(self.ENTRIES, 0, 4)
        assert carve_outs == [(0x1008, 4)]
        assert hidden[:2] == kept[:2] == [(0x1000, 8), (0x100C, 0xF4)]

    def test_read_only_objects_are_kept_but_not_hidden(self):
        hidden, kept, _ = window_bytes(self.ENTRIES, 0, 4)
        assert hidden[2:] == [(0x5000, 32)]
        assert kept[2:] == [(0x5000, 32), (0x6000, 16)]

    def test_partial_frames_contribute_nothing(self):
        assert window_bytes(self.ENTRIES, 4, 4) == ([], [], [])
        hidden, kept, carve_outs = window_bytes(self.ENTRIES, 1, 4)
        assert hidden == [(0x5000, 32)]
        assert kept == [(0x5000, 32), (0x6000, 16)]
        assert carve_outs == [(0x1008, 4)]


class TestOracleEquivalence:
    def test_snapshot_oracle_produces_identical_final_memory(self):
        images = []
        logs = []
        for vault_cls in (VaultState, OracleVault):
            memory, vault = make_state(vault_cls)
            frame, obj = open_standard_window(memory, vault)
            memory.write_bytes(frame.top + 8, CARVE_NEW)
            memory.write_bytes(frame.top + 20, b"\xee" * 8)
            memory.write_bytes(obj.base, b"\xdd" * 32)
            vault.stop_protect(memory, VPC)
            vault.unregister_stack(memory, VPC)
            images.append(memory.content_signature())
            logs.append([e.kind for e in vault.exception_log])
        assert images[0] == images[1]
        assert logs[0] == logs[1] == []

    def test_callee_write_to_a_carve_out_survives_a_doubly_registered_frame(self):
        images = []
        for vault_cls in (VaultState, OracleVault):
            memory, vault = make_state(vault_cls)
            frame = memory.push_frame(0, 64)
            memory.write_bytes(frame.top, b"\x11" * 64)
            vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
            vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
            vault.register_memory_exception(VPC, frame.top + 8, 8, False)
            vault.start_protect(memory, VPC)
            memory.write_bytes(frame.top + 8, b"\x22" * 8)
            vault.stop_protect(memory, VPC)
            assert vault.exception_log == []
            assert memory.read_bytes(frame.top + 8, 8) == b"\x22" * 8
            assert memory.read_bytes(frame.top, 64) == b"\x11" * 8 + b"\x22" * 8 + b"\x11" * 48
            images.append(memory.content_signature())
        assert images[0] == images[1]

    def test_carve_out_between_two_registrations_of_its_frame_stays_visible(self):
        images = []
        for vault_cls in (VaultState, OracleVault):
            memory, vault = make_state(vault_cls)
            frame = memory.push_frame(0, 64)
            memory.write_bytes(frame.top, b"\x11" * 64)
            vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
            vault.register_memory_exception(VPC, frame.top + 8, 8, False)
            vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
            vault.start_protect(memory, VPC)
            assert memory.read_bytes(frame.top, 64) == bytes(8) + b"\x11" * 8 + bytes(48)
            memory.write_bytes(frame.top + 8, b"\x22" * 8)
            vault.stop_protect(memory, VPC)
            assert vault.exception_log == [] and vault.diagnostics == []
            assert memory.read_bytes(frame.top, 64) == b"\x11" * 8 + b"\x22" * 8 + b"\x11" * 48
            images.append(memory.content_signature())
        assert images[0] == images[1]

    def test_writable_object_under_a_carve_out_stays_hidden(self):
        images = []
        for vault_cls in (VaultState, OracleVault):
            memory, vault = make_state(vault_cls)
            frame = memory.push_frame(0, 64)
            memory.write_bytes(frame.top, b"\x11" * 64)
            vault.register_stack(VPC, all=True, frame_base=frame.base, frame_top=frame.top)
            vault.register_memory(VPC, frame.top + 16, 8, False)
            vault.register_memory_exception(VPC, frame.top + 16, 8, False)
            vault.start_protect(memory, VPC)
            assert memory.read_bytes(frame.top, 64) == bytes(64)
            memory.write_bytes(frame.top + 16, b"\x22" * 8)
            vault.stop_protect(memory, VPC)
            assert vault.exception_log == [] and vault.diagnostics == []
            assert memory.read_bytes(frame.top, 64) == b"\x11" * 16 + b"\x22" * 8 + b"\x11" * 40
            images.append(memory.content_signature())
        assert images[0] == images[1]

    @settings(max_examples=200, deadline=None)
    @given(ops=RUNTIME_OPS)
    def test_runtime_matches_the_oracle_on_random_call_sequences(self, ops):
        runtime, oracle = run_both(ops)
        assert ([e.kind for e in runtime.exception_log]
                == [e.kind for e in oracle.exception_log])

    def test_frame_registered_again_inside_an_open_window(self):
        vaults = run_both([("register_stack", VPC, 0, True), ("start_protect", VPC),
                           ("unregister_stack", VPC), ("register_stack", VPC, 0, True),
                           ("stop_protect", VPC)])
        for vault in vaults:
            assert [(e.kind, e.syscall) for e in vault.exception_log] == [
                (ExceptionKind.INDEX_MISMATCH, "unregister_stack"),
                (ExceptionKind.INDEX_MISMATCH, "stop_protect")]
