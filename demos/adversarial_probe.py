"""What happens when untrusted code calls the runtime itself.

Three attacks, all detected by the caller-identity and watermark checks:

1. The intruder invokes register_memory while the victim's window is
   open, hoping to get a region restored with attacker-chosen content.
   The intruder does not own the latest frame registration, so the call
   is refused: one IdentityMismatch, no state change.

2. The intruder legally registers its own frame inside the victim's
   window. The registration itself is allowed, but the victim's
   stop_protect now sees more registrations than its window recorded:
   one IndexMismatch, and the window refuses to close (no restore from
   a list the attacker grew).

3. The intruder opens a window of its own inside the victim's window.
   The victim's stop_protect now meets the intruder's window: one
   IdentityMismatch. The victim's unregister_stack is refused as well,
   with IndexMismatch, because its frame registration lies under the
   open windows that restore from it; the frame stays registered and
   hidden.

Run with:  python3 demos/adversarial_probe.py
"""

from __future__ import annotations

from framevault import ProcessMemory, VaultState, load_image_map

MAP = """\
victim   0x401000 0x401100
intruder 0x401100 0x401200
"""
VICTIM_PC, INTRUDER_PC = 0x401010, 0x401110


def show_log(vault: VaultState) -> None:
    for exc in vault.exception_log:
        print(f"  {exc.kind.value}: {exc.syscall} from pc {exc.caller_pc:#x}")
        print(f"    {exc.detail}")
    if not vault.exception_log:
        print("  (no exceptions)")


def fresh() -> tuple[ProcessMemory, VaultState]:
    memory = ProcessMemory()
    vault = VaultState(load_image_map(MAP))
    frame = memory.push_frame(owner=0, size=64)
    memory.write_bytes(frame.top, bytes(range(1, 49)))
    vault.register_stack(VICTIM_PC, all=True, frame_base=frame.base,
                         frame_top=frame.top)
    vault.start_protect(memory, VICTIM_PC)
    return memory, vault


def main() -> None:
    print("== attack 1: spoofed register_memory ==")
    memory, vault = fresh()
    target = memory.heap_alloc(32)
    before = memory.content_signature()
    vault.register_memory(INTRUDER_PC, target.base, 32, False)
    show_log(vault)
    print(f"  register list still has {len(vault.register_list)} entries, "
          f"memory untouched: {memory.content_signature() == before}")

    print()
    print("== attack 2: forged register-list growth ==")
    memory, vault = fresh()
    own = memory.push_frame(owner=1, size=32)
    vault.register_stack(INTRUDER_PC, all=True, frame_base=own.base,
                         frame_top=own.top)
    print("  intruder registered its own frame inside the victim's window")
    before = memory.content_signature()
    vault.stop_protect(memory, VICTIM_PC)
    show_log(vault)
    print(f"  window still open ({len(vault.protect_list)} on the protect "
          f"list), memory untouched: {memory.content_signature() == before}")

    print()
    print("== recovery: remove the forged entry, then close cleanly ==")
    vault.unregister_stack(memory, INTRUDER_PC)
    vault.stop_protect(memory, VICTIM_PC)
    print(f"  windows remaining: {len(vault.protect_list)}, "
          f"new exceptions: {len(vault.exception_log) - 1}")

    print()
    print("== attack 3: forged start_protect, then the victim's epilogue ==")
    memory, vault = fresh()
    vault.start_protect(memory, INTRUDER_PC)
    print("  intruder opened a window of its own inside the victim's window")
    before = memory.content_signature()
    vault.stop_protect(memory, VICTIM_PC)
    vault.unregister_stack(memory, VICTIM_PC)
    show_log(vault)
    print(f"  victim's frame still registered: {len(vault.register_list) == 1}, "
          f"memory untouched: {memory.content_signature() == before}")


if __name__ == "__main__":
    main()
