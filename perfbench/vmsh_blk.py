"""vmsh-blk: requests through VMSH's block device, nothing of attach.

Set-up boots one QEMU guest per dispatch mode (ioregionfd and
wrap_syscall) and attaches VMSH to each, serving an admin image with a
raw region appended past the end of its file system.  One round, per
guest: seeded random 4 KiB raw writes then reads through the queued
driver API at iodepth 1 and at iodepth 8, then file writes and reads
through the guest fs on the overlay with the caches dropped between.
Each request is one operation.
"""

from __future__ import annotations

import random

import checks
from checks import SLOT_BYTES, BlkModel
from harness import Workload

from repro.image.builder import build_admin_image
from repro.testbed import Testbed
from repro.units import KiB, MiB, SECTOR_SIZE

MODES = ("ioregionfd", "wrap_syscall")
DEPTHS = (1, 8)


class _Guest:
    def __init__(self, mode, testbed, hv, raw_base):
        self.mode = mode
        self.testbed = testbed
        self.hv = hv
        self.device = hv.guest.vmsh_block
        overlay = hv.guest.vmsh_overlay.overlay
        self.vfs = overlay.vfs
        self.fs = overlay.namespace.root_mount().fs
        self.raw_base = raw_base


class VmshBlk(Workload):
    name = "vmsh-blk"
    #: 4 KiB slots in the raw region (4 MiB)
    raw_slots = 1024
    #: raw requests per direction, depth and guest in one round
    requests = 32
    files = 8
    rss_rounds = 50
    file_bytes = 16 * KiB

    def __init__(self, seed: int, **sizes) -> None:
        super().__init__(seed, **sizes)
        rng = random.Random(seed)
        self.testbed_seeds = {mode: rng.getrandbits(32) for mode in MODES}
        self._draws = random.Random(rng.getrandbits(64))
        self.guests = []
        self.models = {mode: BlkModel(self.raw_slots) for mode in MODES}
        self._round = 0

    def setup(self) -> None:
        raw = bytes(self.raw_slots * SLOT_BYTES)
        for mode in MODES:
            tb = Testbed(ioregionfd=(mode == "ioregionfd"),
                         seed=self.testbed_seeds[mode])
            hv = tb.launch_qemu()
            image = build_admin_image(extra_space=8 * MiB) + raw
            tb.vmsh().attach(hv.pid, mmio_mode=mode, image=image)
            guest = _Guest(mode, tb, hv, (len(image) - len(raw)) // SECTOR_SIZE)
            guest.vfs.makedirs("/bench")
            self.guests.append(guest)

    def testbeds(self):
        return [g.testbed for g in self.guests]

    def hypervisors(self):
        return [g.hv for g in self.guests]

    def run_round(self, account) -> None:
        for guest in self.guests:
            iops, vmexits_per_req = self._raw_phase(guest, account)
            self.check(lambda: checks.depth_gain(guest.mode, iops[1], iops[8]))
            if self._round == 0 and guest.mode == "ioregionfd":
                self.virt["virt.iops_qd1"] = iops[1]
                self.virt["virt.iops_qd8"] = iops[8]
                self.virt["virt.vmexits_per_req"] = vmexits_per_req
            self._file_phase(guest, account)
        self._round += 1

    def _sector(self, guest: _Guest, slot: int) -> int:
        return guest.raw_base + slot * (SLOT_BYTES // SECTOR_SIZE)

    def _raw_phase(self, guest: _Guest, account):
        """Writes then reads at each depth; returns virtual IOPS per depth."""
        model = self.models[guest.mode]
        device = guest.device
        clock = guest.testbed.clock
        costs = guest.testbed.costs
        draws = self._draws
        sectors = SLOT_BYTES // SECTOR_SIZE
        iops = {}
        vmexits = costs.count("vmexit")
        for depth in DEPTHS:
            device.set_iodepth(depth)
            start = clock.now
            writes = [(slot, draws.randbytes(SLOT_BYTES))
                      for slot in draws.sample(range(model.size), self.requests)]
            account.run(lambda: device.write_sectors_queued(
                [(self._sector(guest, slot), data) for slot, data in writes]
            ), n=len(writes))
            for slot, data in writes:
                model.write(slot, data)
            slots = draws.sample(range(model.size), self.requests)
            results = account.guard(lambda: device.read_sectors_queued(
                [(self._sector(guest, slot), sectors) for slot in slots]
            ), n=len(slots))
            if results is not None:
                for slot, data in zip(slots, results):
                    account.run(lambda: checks.blk_read(model, slot, data))
            elapsed = clock.now - start
            iops[depth] = (len(writes) + len(slots)) * 1e9 / elapsed
        device.set_iodepth(1)
        requests = len(DEPTHS) * 2 * self.requests
        return iops, (costs.count("vmexit") - vmexits) / requests

    def _file_phase(self, guest: _Guest, account) -> None:
        draws = self._draws
        files = [(f"/bench/f{k}", draws.randbytes(self.file_bytes))
                 for k in range(self.files)]
        for path, data in files:
            account.run(lambda: guest.vfs.write_file(path, data))
        guest.fs.sync_all()
        guest.fs.drop_caches()
        for path, data in files:
            account.run(lambda: checks.file_read(
                path, guest.vfs.read_file(path), data))
        guest.fs.sync_all()
        guest.fs.drop_caches()
