"""Per-layer host self time for a traced benchmark run.

The program is not instrumented for host time, so the traced run wraps
each layer's entry points from here.  A wrapper replaces the function
where callers look it up: on its class for methods, and under every
module name that bound a module-level function (``from x import f``).

Self time of a layer is the inclusive time of its wrapped calls minus
the time spent in wrapped callees, so each host nanosecond of a traced
window lands in exactly one layer (or in no layer, when no wrapped call
is on the stack).  Generator functions (the scheduler's tasks) are
timed per resume, so a task's time lands in its layer and not in the
scheduler that resumes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MIB = 1024 * 1024

#: wrap every public plain function the class itself defines
PUBLIC = None

#: layer -> [(module, class name or None for module functions, names)]
LAYERS: Dict[str, List[Tuple[str, Optional[str], Optional[Sequence[str]]]]] = {
    "core.vmsh": [
        ("repro.core.vmsh", "Vmsh", PUBLIC),
        ("repro.core.vmsh", "VmshSession", PUBLIC),
        ("repro.core.vmsh", "VmshConsole", PUBLIC),
        ("repro.core.gateway", "GuestMemoryGateway", PUBLIC),
    ],
    "core.kaslr": [("repro.core.kaslr", None, ("find_kernel",))],
    "core.ksymtab": [("repro.core.ksymtab", None, ("parse_ksymtab",))],
    "core.libbuild": [
        ("repro.core.libbuild", None, ("plan_library", "build_library")),
    ],
    "core.txn": [("repro.core.txn", "AttachTransaction", PUBLIC)],
    "core.devices": [
        ("repro.core.devices", "VmshDeviceHost", PUBLIC),
        ("repro.core.devices", "IoregionfdDispatch",
         ("install", "uninstall", "_on_message")),
        ("repro.core.devices", "WrapSyscallDispatch",
         ("install", "uninstall", "_hook")),
    ],
    "core.snapshot": [
        ("repro.core.snapshot", "VmSnapshot",
         ("capture", "restore_into", "clone_into")),
    ],
    "host.syscall": [("repro.host.kernel", "HostKernel", PUBLIC)],
    "host.ptrace": [
        ("repro.host.ptrace", "PtraceSession", PUBLIC),
        ("repro.host.ptrace", None, ("attach",)),
    ],
    "mem.pagetable": [
        ("repro.mem.pagetable", "PageTableWalker", PUBLIC),
        ("repro.mem.pagetable", "PageTableBuilder", PUBLIC),
        ("repro.mem.pagetable_riscv", "RiscvPageTableWalker", PUBLIC),
        ("repro.mem.pagetable_riscv", "RiscvPageTableBuilder", PUBLIC),
    ],
    "mem.physmem": [
        ("repro.mem.physmem", "PhysicalMemory", PUBLIC),
        ("repro.kvm.api", "GuestPhysMemory", PUBLIC),
    ],
    "kvm.ioctl": [
        ("repro.kvm.api", "KvmSystem", PUBLIC),
        ("repro.kvm.api", "VmFd", PUBLIC),
        ("repro.kvm.vcpu", "VcpuFd", PUBLIC),
    ],
    "virtio.memio": [
        ("repro.virtio.memio", "InProcessAccessor", PUBLIC),
        ("repro.virtio.memio", "GpaTranslator", PUBLIC),
        ("repro.virtio.memio", "RemoteProcessAccessor", PUBLIC),
        ("repro.virtio.memio", "PerPageRemoteAccessor", PUBLIC),
        ("repro.virtio.memio", "BytewiseRemoteAccessor", PUBLIC),
    ],
    "virtio.vring": [
        ("repro.virtio.vring", "DriverRing", PUBLIC),
        ("repro.virtio.vring", "DeviceRing", PUBLIC),
    ],
    "virtio.core": [
        ("repro.virtio.core", "VirtioDeviceCore", PUBLIC),
        ("repro.virtio.core", "QueuedWindowDriver", PUBLIC),
        ("repro.virtio.core", "VirtioServiceHost", PUBLIC),
        ("repro.virtio.mmio", "VirtioMmioDevice", PUBLIC),
        ("repro.virtio.mmio", "GuestVirtioTransport", PUBLIC),
        ("repro.virtio.pci", "PciVirtioFunction", PUBLIC),
        ("repro.virtio.pci", "GuestPciProbe", PUBLIC),
        ("repro.virtio.console", "Pts", PUBLIC),
        ("repro.virtio.console", "VirtioConsoleDevice", PUBLIC),
        ("repro.virtio.console", "GuestVirtioConsole", PUBLIC),
    ],
    "virtio.blk": [
        ("repro.virtio.blk", "RawDiskBackend", PUBLIC),
        ("repro.virtio.blk", "MappedImageBackend", PUBLIC),
        ("repro.virtio.blk", "VirtioBlkDevice", PUBLIC),
        ("repro.virtio.blk", "GuestVirtioBlkDisk", PUBLIC),
    ],
    "virtio.net": [
        ("repro.virtio.net", "VirtioNetDevice", PUBLIC),
        ("repro.virtio.net", "GuestVirtioNic", PUBLIC),
    ],
    "guestos.fs": [
        ("repro.guestos.fs", "Filesystem", PUBLIC),
        ("repro.guestos.vfs", "Vfs", PUBLIC),
        ("repro.guestos.pagecache", "PageCache", PUBLIC),
        ("repro.image.fsimage", None, ("mount_image",)),
    ],
    "guestos.kernel": [
        ("repro.guestos.kernel", "GuestKernel", PUBLIC),
        ("repro.guestos.console", "GuestTty", PUBLIC),
        ("repro.guestos.console", "GuestShell", PUBLIC),
    ],
    "hypervisors": [("repro.hypervisors.base", "Hypervisor", PUBLIC)],
    "sim.sched": [("repro.sim.sched", "Scheduler", PUBLIC)],
    "sim.netfab": [
        ("repro.sim.netfab", "NetFabric", PUBLIC),
        ("repro.sim.netfab", "NetPort", PUBLIC),
    ],
    "sim.costs": [("repro.sim.costs", "CostModel", PUBLIC)],
    "obs": [
        ("repro.obs", "Observability", PUBLIC),
        ("repro.obs.spans", "SpanRecorder", PUBLIC),
        ("repro.obs.metrics", "MetricsRegistry", PUBLIC),
        ("repro.obs.metrics", "Counter", PUBLIC),
        ("repro.obs.metrics", "Gauge", PUBLIC),
        ("repro.obs.metrics", "Histogram", PUBLIC),
    ],
    "usecases.fleet": [("repro.usecases.fleet", "FleetControlPlane", PUBLIC)],
    "usecases.serverless": [
        ("repro.usecases.serverless", "VHivePlatform", PUBLIC),
        ("repro.usecases.serverless", "ServerlessDebugger", PUBLIC),
        ("repro.usecases.serverless", "DebugSession", PUBLIC),
    ],
    "usecases.traffic": [("repro.usecases.traffic", "TrafficPlane", PUBLIC)],
    "image": [
        ("repro.image.builder", None,
         ("build_admin_image", "build_serverless_debug_image")),
        ("repro.image.fsimage", None, ("build_image",)),
    ],
}


def _count_pagecache(result, extra: Counter) -> None:
    extra["pagecache.hits" if result is not None else "pagecache.misses"] += 1


#: per-call counts taken from a wrapped call's result
RESULT_HOOKS: Dict[str, Callable[[object, Counter], None]] = {
    "repro.core.kaslr.find_kernel":
        lambda loc, extra: extra.update({"kaslr.image_bytes": loc.size}),
    "repro.virtio.vring.DeviceRing.read_chain":
        lambda chain, extra: extra.update({"vring.descs": len(chain)}),
    "repro.guestos.pagecache.PageCache.lookup": _count_pagecache,
}


def _targets(cls: type, names: Optional[Sequence[str]]):
    """(attribute, function, wrap-as) for what ``cls`` itself defines."""
    for name, attr in list(vars(cls).items()):
        if names is None:
            if name.startswith("_"):
                continue
        elif name not in names:
            continue
        if isinstance(attr, classmethod):
            yield name, attr.__func__, classmethod
        elif isinstance(attr, staticmethod):
            yield name, attr.__func__, staticmethod
        elif inspect.isfunction(attr):
            yield name, attr, None


class LayerTracer:
    """Wraps the :data:`LAYERS` entry points and accumulates host time."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.extra: Counter = Counter()
        #: wrapped function key -> its layer
        self.layer_of: Dict[str, str] = {}
        self._stack: List[List[int]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "LayerTracer":
        functions = {}           # id(original) -> (original, wrapper)
        for layer, entries in LAYERS.items():
            for module_name, class_name, names in entries:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names:
                        fn = getattr(module, name)
                        key = f"{module_name}.{name}"
                        functions[id(fn)] = (fn, self._wrap(fn, layer, key))
                    continue
                cls = getattr(module, class_name)
                for name, fn, kind in _targets(cls, names):
                    key = f"{module_name}.{class_name}.{name}"
                    wrapped = self._wrap(fn, layer, key)
                    self._undo.append((cls, name, vars(cls)[name]))
                    setattr(cls, name, kind(wrapped) if kind else wrapped)
        # Rebind module-level functions under every name a module
        # imported them as, so ``from x import f`` callers see the
        # wrapper too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                original, wrapped = functions.get(id(value), (None, None))
                if original is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        self.layer_of[key] = layer
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        inclusive = self.inclusive_ns
        calls = self.calls
        hook = RESULT_HOOKS.get(key)
        extra = self.extra

        def leave(frame, t0):
            elapsed = clock() - t0
            stack.pop()
            self_ns[layer] += elapsed - frame[0]
            inclusive[key] += elapsed
            if stack:
                stack[-1][0] += elapsed

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[key] += 1
                inner = fn(*args, **kwargs)
                value, error = None, None
                while True:
                    frame = [0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        if error is None:
                            out = inner.send(value)
                        else:
                            out = inner.throw(error)
                    except StopIteration as stop:
                        leave(frame, t0)
                        return stop.value
                    except BaseException:
                        leave(frame, t0)
                        raise
                    leave(frame, t0)
                    value, error = None, None
                    try:
                        value = yield out
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # forwarded into the task
                        error = exc

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, t0)
            if hook is not None:
                hook(result, extra)
            return result

        return wrapper

    # -- readout ----------------------------------------------------------------

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.inclusive_ns.clear()
        self.extra.clear()

    def snapshot(self) -> "TraceSnapshot":
        return TraceSnapshot(dict(self.self_ns), Counter(self.calls),
                             dict(self.inclusive_ns), Counter(self.extra),
                             dict(self.layer_of))


class TraceSnapshot:
    """Host time and counts accumulated over one phase of a run."""

    def __init__(self, self_ns, calls, inclusive_ns, extra, layer_of):
        self.self_ns = self_ns
        self.calls = calls
        self.inclusive_ns = inclusive_ns
        self.extra = extra
        self.layer_of = layer_of

    def calls_of(self, *suffixes: str) -> int:
        return sum(n for key, n in self.calls.items() if key.endswith(suffixes))

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items()
                   if self.layer_of.get(key) == layer)

    def mean_ms(self, suffix: str) -> float:
        """Inclusive host ms per call of the functions ending in ``suffix``."""
        calls = self.calls_of(suffix)
        total = sum(ns for key, ns in self.inclusive_ns.items()
                    if key.endswith(suffix))
        return total / 1e6 / calls if calls else 0.0


#: per-operation call counts: metric -> wrapped functions counted
CALL_COUNTS = {
    "host.syscall.calls": ("HostKernel.syscall",),
    "kvm.ioctl.calls": ("KvmSystem.ioctl", "VmFd.ioctl", "VcpuFd.ioctl"),
    "mem.pagetable.walks": ("Walker.translate", "Walker.is_mapped",
                            "Walker.iter_present_range"),
    "virtio.net.frames": ("VirtioNetDevice.deliver", "GuestVirtioNic.send"),
    "core.snapshot.clones": ("VmSnapshot.clone_into",),
}

#: virtual-clock figures; a workload reports those that apply to it
VIRT_METRICS = {
    "virt.attach_ms": "ms",
    "virt.iops_qd1": "1/s",
    "virt.iops_qd8": "1/s",
    "virt.vmexits_per_req": "1/req",
    "virt.request_ms_p50": "ms",
    "virt.coldstart_ms_p50": "ms",
}


def per_layer(untraced, traced) -> Dict[str, dict]:
    """The per-layer metrics of a traced run (``harness.Measurement``)."""
    window, setup = traced.window_trace, traced.setup_trace
    counters = traced.counters
    workload = traced.workload
    ops = max(1, traced.account.completed)
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.ms", window.self_ns.get(layer, 0) / 1e6 / ops, "ms")
    unattributed = traced.elapsed_s * 1e9 - sum(window.self_ns.values())
    put("unattributed.ms", unattributed / 1e6 / ops, "ms")

    kernels = window.calls_of("kaslr.find_kernel")
    put("core.kaslr.image_kib",
        window.extra["kaslr.image_bytes"] / 1024 / kernels if kernels else 0.0,
        "KiB")
    put("core.txn.rollback_ms", window.mean_ms("AttachTransaction.rollback"), "ms")
    put("core.snapshot.clone_ms", window.mean_ms("VmSnapshot.clone_into"), "ms")
    put("core.snapshot.capture_ms", setup.mean_ms("VmSnapshot.capture"), "ms")
    put("core.snapshot.pool_mib", workload.pool_bytes() / MIB, "MiB")
    for name, suffixes in CALL_COUNTS.items():
        put(name, window.calls_of(*suffixes) / ops, "1/op")
    put("virtio.memio.calls", window.layer_calls("virtio.memio") / ops, "1/op")
    moved = sum(n for key, n in counters.items()
                if key.startswith(("attach.", "memio."))
                and key.endswith((".bytes_read", ".bytes_written")))
    put("virtio.memio.mib", moved / MIB / ops, "MiB/op")
    put("virtio.vring.descs", window.extra["vring.descs"] / ops, "1/op")
    put("guestos.pagecache.hits", window.extra["pagecache.hits"] / ops, "1/op")
    put("guestos.pagecache.misses", window.extra["pagecache.misses"] / ops,
        "1/op")
    put("sim.sched.events", counters["sched.events_dispatched"] / ops, "1/op")
    put("sim.netfab.frames", counters["netfab.frames"] / ops, "1/op")
    slots = [len(hv.vm.memslots()) for hv in workload.hypervisors()]
    put("kvm.memslots", sum(slots) / len(slots) if slots else 0.0, "count")
    put("usecases.serverless.boot_ms", setup.mean_ms("Hypervisor.launch"), "ms")
    put("image.build_ms", setup.self_ns.get("image", 0) / 1e6, "ms")
    put("trace.overhead_pct",
        (untraced.ops_per_s / traced.ops_per_s - 1) * 100, "%")
    for name, unit in VIRT_METRICS.items():
        put(name, workload.virt.get(name, 0.0), unit)
    return out
