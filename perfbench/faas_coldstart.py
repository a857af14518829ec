"""faas-coldstart: bursts that scale every function up from zero.

A two-shard fleet with the snapshot pool.  Set-up cold-boots every
function once, which bakes one pool snapshot per function.  One round
is an idle gap longer than the scale-down period, after which no
instance is live, then a burst of one invocation per function, each
served by cloning its pool snapshot.  Each invocation is one operation.
"""

from __future__ import annotations

import random
import statistics

import checks
from harness import Workload

from repro.mem.physmem import PhysicalMemory
from repro.testbed import Testbed
from repro.units import SEC
from repro.usecases.fleet import FleetControlPlane
from repro.usecases.serverless import VHivePlatform

SHARDS = 2
#: longer than the idle timeout plus one autoscaler period
IDLE_GAP_NS = VHivePlatform.IDLE_TIMEOUT_NS + 2 * SEC


def _handler(index: int):
    def handler(payload: dict) -> dict:
        return {"fn": index, "value": checks.coldstart_value(index, payload["x"])}

    return handler


class FaasColdstart(Workload):
    name = "faas-coldstart"
    #: sized where pool clones dominate a burst
    functions = 64
    rss_rounds = 8

    def __init__(self, seed: int, **sizes) -> None:
        super().__init__(seed, **sizes)
        rng = random.Random(seed)
        self.testbed_seed = rng.getrandbits(32)
        self._draws = random.Random(rng.getrandbits(64))
        self.names = [f"fn-{i}" for i in range(self.functions)]
        self._round = 0

    def setup(self) -> None:
        tb = self.testbed = Testbed(seed=self.testbed_seed)
        self.fleet = FleetControlPlane(
            tb, shards=SHARDS, snapshot_pool=True, log_level="WARN"
        )
        for index, name in enumerate(self.names):
            self.fleet.deploy(name, _handler(index))
        self.fleet.start_autoscalers(tb.scheduler, period_ns=SEC)
        self._burst(lambda op: op())
        checks.baked(tb.costs.count("faas_pool_miss"), self.functions)

    def testbeds(self):
        return [self.testbed]

    def hypervisors(self):
        return [i.hypervisor for i in self.fleet.live_instances()]

    def pool_bytes(self) -> int:
        """Distinct page bytes the pool's snapshots reference."""
        pages = {}
        for shard in self.fleet.shards:
            for snap in shard.platform._pool.values():
                for _name, _size, mapping in snap.memory:
                    for page in mapping.values():
                        pages[id(page)] = len(page)
                frozen = snap._frozen
                for mapping in frozen.process.address_space._mappings:
                    if isinstance(mapping.backing, PhysicalMemory):
                        for page in mapping.backing._pages.values():
                            pages[id(page)] = len(page)
        return sum(pages.values())

    def _burst(self, run_check) -> list:
        """One invocation per function at the same virtual instant."""
        scheduler = self.testbed.scheduler
        calls = [(index, self._draws.getrandbits(31))
                 for index in range(self.functions)]
        tasks = [scheduler.spawn(self.fleet.invoke_task(self.names[i], {"x": x}),
                                 label="perfbench:invoke")
                 for i, x in calls]
        scheduler.run(*tasks)
        for (index, x), task in zip(calls, tasks):
            run_check(lambda: checks.invocation(task.result(), index, x))
        return tasks

    def run_round(self, account) -> None:
        tb = self.testbed
        tb.scheduler.run_until(tb.clock.now + IDLE_GAP_NS)
        costs = tb.costs
        live = len(self.fleet.live_instances())
        hits, misses = costs.count("faas_pool_hit"), costs.count("faas_pool_miss")
        latencies = len(self.fleet.latencies_ns)
        self._burst(account.run)
        self.check(
            lambda: checks.scaled_to_zero(live),
            lambda: checks.pool_hits(costs.count("faas_pool_hit") - hits,
                                     costs.count("faas_pool_miss") - misses,
                                     self.functions),
        )
        if self._round == 0:
            self.virt["virt.coldstart_ms_p50"] = (
                statistics.median(self.fleet.latencies_ns[latencies:]) / 1e6
            )
        self._round += 1
