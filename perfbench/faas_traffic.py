"""faas-traffic: open-loop requests over the net fabric to a serverless fleet.

Round-robin over the canonical eight functions on a two-shard fleet
whose microVMs carry vmsh-net NICs.  Set-up deploys the functions and
cold-boots each one once.  One round sends a fixed number of requests
at a fixed virtual arrival interval, and carries one mid-traffic debug
attach, one rolled-back attach and the noisy-neighbour flood.  Each
completed request is one operation.
"""

from __future__ import annotations

import random
import statistics

import checks
from harness import Workload

from repro.testbed import Testbed
from repro.units import MSEC, SEC
from repro.usecases.fleet import FleetControlPlane
from repro.usecases.traffic import TrafficPlane

FUNCTIONS = 8
SHARDS = 2


def _handler(index: int):
    def handler(payload: dict) -> dict:
        return {"fn": index, "echo": payload["i"]}

    return handler


class FaasTraffic(Workload):
    name = "faas-traffic"
    #: requests per round, one every ``interval_ns`` of virtual time
    requests = 1440
    interval_ns = 2 * MSEC
    rss_rounds = 3

    def __init__(self, seed: int, **sizes) -> None:
        super().__init__(seed, **sizes)
        rng = random.Random(seed)
        self.testbed_seed = rng.getrandbits(32)
        self._draws = random.Random(rng.getrandbits(64))
        self.names = [f"fn-{i}" for i in range(FUNCTIONS)]
        self._round = 0

    def setup(self) -> None:
        tb = self.testbed = Testbed(seed=self.testbed_seed)
        self.fleet = FleetControlPlane(
            tb, shards=SHARDS, log_level="WARN", nic=True, nic_queue_pairs=2
        )
        self.plane = TrafficPlane(tb, self.fleet)
        for index, name in enumerate(self.names):
            self.fleet.deploy(name, _handler(index))
        self.fleet.start_autoscalers(tb.scheduler, period_ns=SEC)
        warmups = [
            (index, -1 - index,
             tb.scheduler.spawn(self.plane.request_task(name, {"i": -1 - index})))
            for index, name in enumerate(self.names)
        ]
        tb.scheduler.run(*[task for _, _, task in warmups])
        for index, value, task in warmups:
            checks.echo(task.result(), index, value)

    def testbeds(self):
        return [self.testbed]

    def hypervisors(self):
        return [i.hypervisor for i in self.fleet.live_instances()]

    def _pacer(self, first: int, values, sent):
        """Fixed-interval arrivals; a slow response holds back nothing."""
        spawn = self.testbed.scheduler.spawn
        for k, value in enumerate(values):
            index = (first + k) % FUNCTIONS
            task = spawn(self.plane.request_task(self.names[index], {"i": value}),
                         label="perfbench:request")
            sent.append((task, index, value))
            yield self.interval_ns

    def run_round(self, account) -> None:
        tb, plane = self.testbed, self.plane
        scheduler = tb.scheduler
        first = self._draws.randrange(FUNCTIONS)
        values = [self._draws.getrandbits(31) for _ in range(self.requests)]
        span = self.requests * self.interval_ns
        start = tb.clock.now
        counts = (plane.timeouts, plane.junk_frames, plane.flood_frames,
                  len(plane.attach_log), len(plane.latencies_ns))
        sent = []
        pacer = scheduler.spawn(self._pacer(first, values, sent),
                                label="perfbench:pacer")
        legs = [
            scheduler.spawn(plane.debug_attach_task(at_ns=start + span // 4),
                            label="perfbench:attach"),
            scheduler.spawn(plane.debug_attach_task(at_ns=start + span // 2,
                                                    rollback=True),
                            label="perfbench:rollback"),
            scheduler.spawn(plane.noisy_neighbor_task(at_ns=start + span // 3,
                                                      gap_ns=span // 8),
                            label="perfbench:flood"),
        ]
        scheduler.run(pacer, *legs)
        scheduler.run(*[task for task, _, _ in sent])
        for task, index, value in sent:
            account.run(lambda: checks.echo(task.result(), index, value))
        timeouts, junk, flood, log_len, lat_len = counts
        self.check(
            lambda: checks.no_timeouts(plane.timeouts - timeouts),
            lambda: checks.flood_is_junk(plane.junk_frames - junk,
                                         plane.flood_frames - flood),
            lambda: checks.attach_legs(plane.attach_log[log_len:]),
        )
        if self._round == 0:
            self.virt["virt.request_ms_p50"] = (
                statistics.median(plane.latencies_ns[lat_len:]) / 1e6
            )
        self._round += 1
