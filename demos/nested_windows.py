"""Nested protection windows, driven one runtime call at a time.

An outer function registers its frame and a heap object, opens a window,
and (conceptually, through the untrusted code it called) an inner
function does the same. The save buffer is a stack of images: the inner
window pushes exactly its own registration footprint on top of the outer
window's images, so bytes already saved are not copied twice, and each
window pops its own images back when it closes.

Run with:  python3 demos/nested_windows.py
"""

from __future__ import annotations

from framevault import ProcessMemory, VaultState, load_image_map

MAP = """\
outer 0x401000 0x401100
inner 0x401100 0x401200
"""
OUTER_PC, INNER_PC = 0x401010, 0x401110


def report(vault: VaultState, label: str) -> None:
    buf = vault.save_buffer
    print(f"  {label}: produced={buf.bytes_produced:4d}  "
          f"released={buf.bytes_released:4d}  windows={len(vault.protect_list)}  "
          f"images held={[len(image) for image in buf.images]}")


def main() -> None:
    memory = ProcessMemory()
    vault = VaultState(load_image_map(MAP))

    print("== outer function: 96-byte frame + 40-byte heap object ==")
    outer_frame = memory.push_frame(owner=0, size=96)
    outer_obj = memory.heap_alloc(40)
    vault.register_stack(OUTER_PC, all=True, frame_base=outer_frame.base,
                         frame_top=outer_frame.top)
    vault.register_memory(OUTER_PC, outer_obj.base, 40, False)
    vault.start_protect(memory, OUTER_PC)
    report(vault, "outer window open ")
    print("    96 + 40 = 136 bytes saved")

    print()
    print("== inner function: 56-byte frame + 24-byte heap object ==")
    inner_frame = memory.push_frame(owner=1, size=56)
    inner_obj = memory.heap_alloc(24)
    vault.register_stack(INNER_PC, all=True, frame_base=inner_frame.base,
                         frame_top=inner_frame.top)
    vault.register_memory(INNER_PC, inner_obj.base, 24, False)
    before = vault.save_buffer.bytes_produced
    vault.start_protect(memory, INNER_PC)
    report(vault, "inner window open ")
    growth = vault.save_buffer.bytes_produced - before
    print(f"    growth = {growth} bytes: only the inner 56 + 24, "
          f"nothing re-copied")

    print()
    print("== unwinding in LIFO order ==")
    vault.stop_protect(memory, INNER_PC)
    report(vault, "inner window shut ")
    vault.unregister_stack(memory, INNER_PC)
    vault.stop_protect(memory, OUTER_PC)
    report(vault, "outer window shut ")
    print(f"    exceptions: {len(vault.exception_log)}, "
          f"save buffer drained: {vault.save_buffer.all_consumed()}")


if __name__ == "__main__":
    main()
