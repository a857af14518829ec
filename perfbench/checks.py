"""Output checks, each against a computation made apart from VMSH.

Every check raises :class:`~harness.CheckFailed` on a wrong output.  The
expected values come from the guest's own state (its kernel image, its
root file system), from the benchmark's own models of what it wrote, or
from the benchmark's own copy of a handler's arithmetic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from harness import expect

SLOT_BYTES = 4096


# -- attach-cycle ----------------------------------------------------------------

def kernel_base(found_vbase: int, guest_vbase: int) -> None:
    expect(found_vbase == guest_vbase,
           f"kernel_vbase {found_vbase:#x} != guest image base {guest_vbase:#x}")


def symbols(resolved: Mapping[str, int], exported: Mapping[str, int],
            required: Iterable[str]) -> None:
    for name in required:
        expect(name in exported, f"guest does not export {name}")
        expect(resolved.get(name) == exported[name],
               f"{name} resolved to {resolved.get(name)!r}, "
               f"guest exports it at {exported[name]:#x}")


def console(output: str, file_bytes: bytes) -> None:
    expected = file_bytes.decode().rstrip("\n")
    expect(output == expected,
           f"console printed {output!r}, the guest file holds {expected!r}")


def rollback(error: Optional[BaseException], site: str,
             before: Dict[str, object], after: Dict[str, object]) -> None:
    expect(error is not None, f"attach with a fault armed at {site} succeeded")
    expect(getattr(error, "site", None) == site,
           f"attach failed with {error!r}, not the fault armed at {site}")
    leaked = sorted(k for k in before if before[k] != after.get(k))
    expect(not leaked, f"rollback from {site} changed {leaked}")


# -- vmsh-blk ------------------------------------------------------------------------

class BlkModel:
    """What each 4 KiB slot of the raw region holds, from our own writes."""

    def __init__(self, slots: int) -> None:
        self.slots: Dict[int, bytes] = {}
        self.size = slots

    def write(self, slot: int, data: bytes) -> None:
        expect(len(data) == SLOT_BYTES, "model writes whole slots")
        self.slots[slot] = data

    def expected(self, slot: int) -> bytes:
        return self.slots.get(slot, bytes(SLOT_BYTES))


def blk_read(model: BlkModel, slot: int, data: bytes) -> None:
    expected = model.expected(slot)
    if data == expected:
        return
    if len(data) != len(expected):
        raise_at = f"read {len(data)} bytes, expected {len(expected)}"
    else:
        first = next(i for i, (a, b) in enumerate(zip(data, expected)) if a != b)
        raise_at = f"first differing byte at offset {first}"
    expect(False, f"raw slot {slot}: {raise_at}")


def file_read(path: str, data: bytes, written: bytes) -> None:
    expect(data == written,
           f"{path}: read {len(data)} bytes that differ from the "
           f"{len(written)} bytes written")


def depth_gain(mode: str, iops_qd1: float, iops_qd8: float) -> None:
    expect(iops_qd8 > iops_qd1,
           f"{mode}: virtual IOPS at depth 8 ({iops_qd8:.0f}) does not "
           f"exceed depth 1 ({iops_qd1:.0f})")


# -- faas-traffic ----------------------------------------------------------------------

def echo(response: object, fn_index: int, value: int) -> None:
    expected = {"fn": fn_index, "echo": value}
    expect(response == expected, f"response {response!r} != {expected!r}")


def no_timeouts(timeouts: int) -> None:
    expect(timeouts == 0, f"{timeouts} requests timed out")


def flood_is_junk(junk_frames: int, flood_frames: int) -> None:
    expect(flood_frames > 0, "the noisy neighbour sent no frames")
    expect(junk_frames == flood_frames,
           f"{junk_frames} junk frames counted for {flood_frames} flood frames")


def attach_legs(log: Iterable[str]) -> None:
    got = sorted(log)
    want = sorted(["attached", "detached", "rolled-back:PermanentFaultError"])
    expect(got == want, f"debug-attach legs logged {got}, expected {want}")


# -- faas-coldstart -----------------------------------------------------------------------

def coldstart_value(fn_index: int, x: int) -> int:
    """The benchmark's own copy of what function ``fn_index`` computes."""
    return (x * (2 * fn_index + 1) + fn_index) % 1_000_003


def invocation(result: object, fn_index: int, x: int) -> None:
    expected = {"fn": fn_index, "value": coldstart_value(fn_index, x)}
    expect(result == expected, f"result {result!r} != {expected!r}")


def baked(misses: int, functions: int) -> None:
    expect(misses == functions,
           f"the bake missed the pool {misses} times for {functions} functions")


def scaled_to_zero(live: int) -> None:
    expect(live == 0, f"{live} instances still live after the idle gap")


def pool_hits(hits: int, misses: int, invocations: int) -> None:
    expect(misses == 0, f"{misses} pool misses after the bake")
    expect(hits == invocations,
           f"{hits} pool hits for {invocations} scale-from-zero starts")
