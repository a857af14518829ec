"""Host-clock benchmark of the VMSH simulator.

    python3 perfbench/run.py --workload attach-cycle --seed 1 --seconds 55 --trace 0

Runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload untraced and then traced, each for half
the seconds, and reports the per-layer metrics.  Without ``--workload``
(or with ``--workload all``) every workload runs, each in its own
process, and every metric is printed by name with its unit.

The program is imported from ``src/`` next to this directory; nothing is
installed or built.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the seed runs use unless told otherwise, and the one held back from
#: tuning for checking a claim on inputs it was not made on
DEFAULT_SEED = 1
HELD_BACK_SEED = 2

#: workload -> (module, class); imported once the program is importable
WORKLOADS = {
    "attach-cycle": ("attach_cycle", "AttachCycle"),
    "vmsh-blk": ("vmsh_blk", "VmshBlk"),
    "faas-traffic": ("faas_traffic", "FaasTraffic"),
    "faas-coldstart": ("faas_coldstart", "FaasColdstart"),
    "faas-mix": ("faas_mix", "FaasMix"),
}


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 **sizes) -> dict:
    """One run of ``name``; returns the result object the runner prints."""
    from harness import SETUP_REPEATS, end_to_end, measure
    from layers import LayerTracer, per_layer

    cls = workload_class(name)

    def make():
        return cls(seed, **sizes)

    if not trace:
        runs = [measure(make, seconds, SETUP_REPEATS)]
        metrics = end_to_end(runs[0])
    else:
        untraced = measure(make, seconds / 2, 1)
        tracer = LayerTracer().install()
        try:
            traced = measure(make, seconds / 2, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        metrics = per_layer(untraced, traced)
        if untraced.workload.virt != traced.workload.virt:
            traced.workload.problem(
                f"virtual figures differ between the untraced run "
                f"{untraced.workload.virt} and the traced run "
                f"{traced.workload.virt}"
            )
    problems = [p for m in runs for p in m.workload.problems]
    return {
        "correct": not problems,
        "attempted": sum(m.account.attempted for m in runs),
        "failed": sum(m.account.failed for m in runs),
        "metrics": metrics,
    }


def _run_all(args) -> int:
    """Every workload, each in its own process; a table, then one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>14.4f} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
