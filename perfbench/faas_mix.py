"""faas-mix: a faas-traffic round, then a faas-coldstart round.

Each part keeps its own testbed, fleet and checks (see
``faas_traffic.py`` and ``faas_coldstart.py``); the seed draws one seed
for each part.  A round is 1,440 open-loop requests over vmsh-net with
their three chaos legs, then an idle gap and a burst of 64 pool-clone
invocations.  Each request and each invocation is one operation.  One
workload thus covers the serverless layers of both parts, which lets the
gated set be two workloads with long runs.
"""

from __future__ import annotations

import random

from faas_coldstart import FaasColdstart
from faas_traffic import FaasTraffic
from harness import Workload


class FaasMix(Workload):
    name = "faas-mix"
    requests = FaasTraffic.requests
    functions = FaasColdstart.functions
    rss_rounds = 8

    def __init__(self, seed: int, **sizes) -> None:
        super().__init__(seed, **sizes)
        rng = random.Random(seed)
        self.traffic = FaasTraffic(rng.getrandbits(32), requests=self.requests)
        self.coldstart = FaasColdstart(rng.getrandbits(32),
                                       functions=self.functions)
        self.parts = (self.traffic, self.coldstart)
        for part in self.parts:      # one record of problems and figures
            part.problems = self.problems
            part.virt = self.virt

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def run_round(self, account) -> None:
        for part in self.parts:
            part.run_round(account)

    def testbeds(self):
        return [tb for part in self.parts for tb in part.testbeds()]

    def hypervisors(self):
        return [hv for part in self.parts for hv in part.hypervisors()]

    def pool_bytes(self) -> int:
        return self.coldstart.pool_bytes()
