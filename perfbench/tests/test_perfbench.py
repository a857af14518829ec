"""The benchmark's own tests: checks catch planted wrong outputs, and a
tiny-size run of every workload passes.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

run._import_program()

import checks  # noqa: E402
from harness import Account, CheckFailed  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "attach-cycle": {},
    "vmsh-blk": {"raw_slots": 64, "requests": 4, "files": 2},
    "faas-traffic": {"requests": 48},
    "faas-coldstart": {"functions": 4},
    "faas-mix": {"requests": 48, "functions": 4},
}


def _tiny(name):
    workload = run.workload_class(name)(run.DEFAULT_SEED, **TINY[name])
    workload.setup()
    return workload


# -- each check fails on a planted wrong output ------------------------------------

def test_attach_checks_reject_wrong_outputs():
    checks.kernel_base(0xFFFF0000, 0xFFFF0000)
    with pytest.raises(CheckFailed):
        checks.kernel_base(0xFFFF1000, 0xFFFF0000)
    exported = {"filp_open": 0x1000, "printk": 0x2000}
    checks.symbols(dict(exported), exported, exported)
    with pytest.raises(CheckFailed):
        checks.symbols({"filp_open": 0x1000, "printk": 0x2008}, exported,
                       exported)
    checks.console("vm0", b"vm0\n")
    with pytest.raises(CheckFailed):
        checks.console("vm1", b"vm0\n")
    state = {"memslots": (1, 2), "ioregions": 0}
    error = type("Fault", (Exception,), {"site": "attach.hijack"})()
    checks.rollback(error, "attach.hijack", state, dict(state))
    with pytest.raises(CheckFailed):
        checks.rollback(None, "attach.hijack", state, dict(state))
    with pytest.raises(CheckFailed):
        checks.rollback(error, "attach.load_library", state, dict(state))
    with pytest.raises(CheckFailed):
        checks.rollback(error, "attach.hijack", state,
                        {"memslots": (1, 2), "ioregions": 1})


def test_blk_read_rejects_a_flipped_byte_in_the_model():
    model = checks.BlkModel(8)
    data = bytes(range(256)) * 16
    model.write(3, data)
    checks.blk_read(model, 3, data)
    checks.blk_read(model, 4, bytes(checks.SLOT_BYTES))
    flipped = bytearray(data)
    flipped[100] ^= 0x01
    model.write(3, bytes(flipped))
    with pytest.raises(CheckFailed, match="offset 100"):
        checks.blk_read(model, 3, data)
    with pytest.raises(CheckFailed):
        checks.file_read("/bench/f0", data[:-1], data)
    with pytest.raises(CheckFailed):
        checks.depth_gain("ioregionfd", 1000.0, 1000.0)


def test_traffic_and_coldstart_checks_reject_wrong_outputs():
    checks.echo({"fn": 3, "echo": 7}, 3, 7)
    with pytest.raises(CheckFailed):
        checks.echo({"fn": 3, "echo": 8}, 3, 7)
    with pytest.raises(CheckFailed):
        checks.echo(None, 3, 7)
    with pytest.raises(CheckFailed):
        checks.no_timeouts(1)
    with pytest.raises(CheckFailed):
        checks.flood_is_junk(511, 512)
    with pytest.raises(CheckFailed):
        checks.attach_legs(["attached", "detached"])
    checks.invocation({"fn": 2, "value": checks.coldstart_value(2, 9)}, 2, 9)
    with pytest.raises(CheckFailed):
        checks.invocation({"fn": 2, "value": checks.coldstart_value(1, 9)}, 2, 9)
    with pytest.raises(CheckFailed):
        checks.baked(63, 64)
    with pytest.raises(CheckFailed):
        checks.scaled_to_zero(1)
    with pytest.raises(CheckFailed):
        checks.pool_hits(63, 1, 64)


def test_planted_raw_corruption_is_caught_through_the_device():
    workload = _tiny("vmsh-blk")
    account = Account()
    workload.run_round(account)
    assert account.attempted > 0 and account.failed == 0
    guest = workload.guests[0]
    model = workload.models[guest.mode]
    slot, data = next(iter(model.slots.items()))
    read = guest.device.read_sectors(workload._sector(guest, slot), 8)
    checks.blk_read(model, slot, read)
    model.write(slot, bytes([data[0] ^ 0xFF]) + data[1:])
    with pytest.raises(CheckFailed):
        checks.blk_read(model, slot, read)


def test_planted_wrong_echo_fails_exactly_its_requests():
    workload = _tiny("faas-traffic")
    workload.fleet.deploy("fn-0", lambda p: {"fn": 0, "echo": p["i"] + 1})
    account = Account()
    workload.run_round(account)
    assert account.attempted == workload.requests
    assert account.failed == workload.requests // 8


def test_planted_wrong_handler_result_fails_one_invocation_per_burst():
    workload = _tiny("faas-coldstart")
    workload.fleet.deploy("fn-1", lambda p: {"fn": 1, "value": -1})
    account = Account()
    workload.run_round(account)
    assert (account.attempted, account.failed) == (workload.functions, 1)
    assert not workload.problems


def test_mix_round_runs_both_parts_and_keeps_their_failures():
    workload = _tiny("faas-mix")
    workload.coldstart.fleet.deploy("fn-1", lambda p: {"fn": 1, "value": -1})
    account = Account()
    workload.run_round(account)
    assert account.attempted == workload.requests + workload.functions
    assert account.failed == 1
    assert not workload.problems
    assert set(workload.virt) == {"virt.request_ms_p50",
                                  "virt.coldstart_ms_p50"}


def test_planted_wrong_console_output_fails_every_cycle(monkeypatch):
    from repro.core.vmsh import CommandResult, VmshConsole

    workload = _tiny("attach-cycle")
    monkeypatch.setattr(VmshConsole, "run_command",
                        lambda self, line: CommandResult("not-the-file", 0))
    account = Account()
    workload.run_round(account)
    # six cycles with the wrong output plus the rollback that always fails
    assert (account.attempted, account.failed) == (7, 7)


# -- tiny-size runs ------------------------------------------------------------------

def _names(section):
    return {entry["name"] for entry in BENCHMARK[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes(name):
    result = run.run_workload(name, run.HELD_BACK_SEED, 0.01, trace=False,
                              **TINY[name])
    assert result["correct"]
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Rolling back an attach to a VM attached before leaks (see README):
    # exactly that one operation of the seven in a round fails.
    expected_failed = result["attempted"] // 7 if name == "attach-cycle" else 0
    assert result["failed"] == expected_failed


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = run.run_workload("faas-traffic", run.DEFAULT_SEED, 0.02,
                              trace=True, **TINY["faas-traffic"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer")
    metrics = result["metrics"]
    assert metrics["virt.request_ms_p50"]["value"] > 0
    assert metrics["usecases.traffic.ms"]["value"] > 0
    assert metrics["virtio.net.frames"]["value"] > 0


def test_benchmark_json_units_match_the_printed_units():
    result = run.run_workload("vmsh-blk", run.DEFAULT_SEED, 0.02, trace=True,
                              **TINY["vmsh-blk"])
    units = {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["virt.iops_qd8"]["value"] > (
        result["metrics"]["virt.iops_qd1"]["value"])
