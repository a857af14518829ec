"""attach-cycle: attach, one console command, detach, round-robin over VMs.

A closed loop with one client.  Set-up boots one guest on each of the
five VMMs plus one riscv64 QEMU guest, each with a hostname drawn from
the seed.  A round visits every VM once, then attaches once more to
one of them with a permanent fault armed at a late attach step, so that
attach rolls back.  The VM and step rotate with the round number.

The rolled-back attach always comes after that VM's own cycle in the
same round.  Rolling back an attach to a VM that was attached and
detached before removes the irqfd routes and ioregions the earlier
session left registered, so its state check fails every time, on every
VM and step: one operation in seven fails in every run.
"""

from __future__ import annotations

import random
import statistics

import checks
from harness import Workload

from repro.core import ksymtab as ksymtab_module
from repro.core import vmsh as vmsh_module
from repro.errors import PermanentFaultError
from repro.guestos.kfunctions import REQUIRED_KERNEL_FUNCTIONS
from repro.replay.invariants import state_fingerprint
from repro.sim.faults import PERMANENT, FaultPlan, FaultSpec
from repro.testbed import Testbed

HOSTNAME = "/etc/hostname"

#: (testbed arch, launch method, launch kwargs, attach kwargs): the
#: arguments that make a fault-free attach succeed on each VMM
#: (Firecracker without its seccomp filter, Cloud Hypervisor over PCI).
VMS = (
    ("x86_64", "launch_qemu", {}, {}),
    ("x86_64", "launch_firecracker", {"seccomp": False}, {}),
    ("x86_64", "launch_crosvm", {}, {}),
    ("x86_64", "launch_kvmtool", {}, {}),
    ("x86_64", "launch_cloud_hypervisor", {}, {"transport": "pci"}),
    ("riscv64", "launch_qemu", {}, {}),
)

#: steps late enough that the rollback undoes most of the pipeline
LATE_STEPS = ("load_library", "install_dispatch", "hijack", "drop_privileges")


class _KsymtabCapture:
    """Keeps the symbol table the attach pipeline reconstructed.

    The session does not expose it, so the name the pipeline calls is
    rebound to a pass-through that records the result.  It looks the
    parser up at call time, so a traced run's wrapper still sees it.
    """

    last = None

    @classmethod
    def install(cls) -> None:
        if getattr(vmsh_module.parse_ksymtab, "_perfbench_capture", False):
            return

        def capture(gateway, location):
            cls.last = ksymtab_module.parse_ksymtab(gateway, location)
            return cls.last

        capture._perfbench_capture = True
        vmsh_module.parse_ksymtab = capture


class _Vm:
    def __init__(self, testbed, hv, vmsh, attach_kwargs):
        self.testbed = testbed
        self.hv = hv
        self.vmsh = vmsh
        self.attach_kwargs = attach_kwargs


class AttachCycle(Workload):
    name = "attach-cycle"

    def __init__(self, seed: int, **sizes) -> None:
        super().__init__(seed, **sizes)
        rng = random.Random(seed)
        self.testbed_seeds = {
            "x86_64": rng.getrandbits(32), "riscv64": rng.getrandbits(32)
        }
        self.hostnames = [f"vm{i}-{rng.getrandbits(32):08x}"
                          for i in range(len(VMS))]
        self.vms = []
        self._testbeds = {}
        self._round = 0

    def setup(self) -> None:
        _KsymtabCapture.install()
        vmshes = {}
        for (arch, launch, launch_kwargs, attach_kwargs), hostname in zip(
            VMS, self.hostnames
        ):
            tb = self._testbeds.get(arch)
            if tb is None:
                tb = self._testbeds[arch] = Testbed(
                    arch=arch, seed=self.testbed_seeds[arch]
                )
                vmshes[arch] = tb.vmsh()
            hv = getattr(tb, launch)(
                root_files={HOSTNAME: hostname.encode() + b"\n"},
                **launch_kwargs,
            )
            self.vms.append(_Vm(tb, hv, vmshes[arch], attach_kwargs))

    def testbeds(self):
        return list(self._testbeds.values())

    def hypervisors(self):
        return [vm.hv for vm in self.vms]

    def run_round(self, account) -> None:
        attach_ns = []
        for vm in self.vms:
            account.run(lambda: attach_ns.append(self._cycle(vm)))
        vm = self.vms[self._round % len(self.vms)]
        step = LATE_STEPS[self._round % len(LATE_STEPS)]
        account.run(lambda: self._rolled_back(vm, step))
        if self._round == 0 and attach_ns:
            self.virt["virt.attach_ms"] = statistics.median(attach_ns) / 1e6
        self._round += 1

    def _cycle(self, vm: _Vm) -> int:
        _KsymtabCapture.last = None
        session = vm.vmsh.attach(vm.hv.pid, **vm.attach_kwargs)
        try:
            image = vm.hv.guest.image
            checks.kernel_base(session.report.kernel_vbase, image.vbase)
            resolved = _KsymtabCapture.last
            checks.symbols(resolved.symbols if resolved else {},
                           image.symbols, REQUIRED_KERNEL_FUNCTIONS)
            output = session.console.run_command(
                f"cat /var/lib/vmsh{HOSTNAME}"
            ).output
            checks.console(output, vm.hv.guest.kernel_vfs.read_file(HOSTNAME))
        finally:
            session.detach()
        return session.report.attach_ns

    def _rolled_back(self, vm: _Vm, step: str) -> None:
        tb = vm.testbed
        site = f"attach.{step}"
        before = state_fingerprint(tb, vm.hv, vm.vmsh)
        plan = FaultPlan([FaultSpec(site=site, kind=PERMANENT)],
                         label=f"perfbench:{vm.hv.NAME}:{step}")
        error = None
        with tb.host.faults.plan(plan):
            try:
                session = vm.vmsh.attach(vm.hv.pid, **vm.attach_kwargs)
            except PermanentFaultError as err:
                error = err
            else:
                session.detach()
        checks.rollback(error, site, before,
                        state_fingerprint(tb, vm.hv, vm.vmsh))
