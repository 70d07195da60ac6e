"""Tests of the benchmark itself (not of ``repro``).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import campaign  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

SOURCE = """
int main() {
    int a[4];
    int i;
    int s = 0;
    for (i = 0; i < 4; i = i + 1) { a[i] = i; s = s + a[i]; }
    print_int(s);
    return 0;
}
"""


def _traced_bindings():
    return [f"{name}.{attr}" for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for attr, value in list(vars(mod).items())
            if hasattr(value, "__wrapped__")
            and getattr(value, "__qualname__", "").endswith("traced")]


def _run_source():
    from repro.fuzz.oracle import run_program
    return run_program(SOURCE, "subheap")


def test_uninstall_restores_every_entry_point():
    from repro import hostio
    from repro.compiler import compile as compile_mod
    from repro.lang import parser
    from repro.vm.fastpath import FastInterpreter
    from repro.vm.machine import Machine

    before = (parser.parse, compile_mod.parse, compile_mod.compile_program,
              Machine.run, Machine.__init__,
              FastInterpreter._translate_fused, hostio.atomic_write_json)
    sys.modules.pop("repro.serve.store", None)
    tracer = spans.install()
    assert parser.parse is not before[0]
    assert Machine.run is not before[3]
    # a module imported while tracing copies the wrapped binding
    import repro.serve.store as store
    assert store.atomic_write_json is not before[-1]
    traced = _run_source()
    calls = tracer.snapshot()["counts"]["vm.exec.calls"]
    tracer.uninstall()

    assert (parser.parse, compile_mod.parse, compile_mod.compile_program,
            Machine.run, Machine.__init__,
            FastInterpreter._translate_fused, hostio.atomic_write_json
            ) == before
    assert store.atomic_write_json is before[-1]
    assert _traced_bindings() == []
    untraced = _run_source()
    assert tracer.snapshot()["counts"]["vm.exec.calls"] == calls
    assert untraced.output == traced.output


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("lang.lex", lambda: None)
    outer = tracer.wrap("lang.parse", lambda: inner() or inner())
    outer()  # outer: ticks 0..5, two inner spans of one tick each
    snap = tracer.snapshot()
    assert snap["self_s"]["lang.lex"] == 2.0
    assert snap["self_s"]["lang.parse"] == 3.0
    metrics = spans.layer_metrics(snap, base_s=8.0)
    assert metrics["trace.other_s"] == 3.0


def test_self_times_plus_other_equal_traced_wall():
    import time
    tracer = spans.install()
    try:
        start = time.perf_counter()
        for config in ("baseline", "wrapped"):
            from repro.fuzz.oracle import run_program
            run_program(SOURCE, config)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.snapshot(), wall)
    selfs = [metrics[layer + "_s"] for layer in spans.LAYERS]
    assert all(value >= 0 for value in selfs)
    assert metrics["trace.other_s"] >= 0
    assert math.isclose(sum(selfs) + metrics["trace.other_s"], wall,
                        rel_tol=1e-9)
    shares = [metrics["share." + layer] for layer in spans.LAYERS]
    assert math.isclose(sum(shares) + metrics["share.other"], 1.0,
                        rel_tol=1e-9)
    assert metrics["vm.machines"] == 2
    assert metrics["lang.parses"] == 2
    assert metrics["lang.unique_source_ratio"] == 0.5


def _stats():
    from repro.ifp.unit import IFPUnitStats
    from repro.vm.stats import RunStats
    return RunStats(cycles=100, base_instructions=50,
                    ifp=IFPUnitStats(promotes_total=7,
                                     promote_cache_hits=3))


def _digest(stats):
    return campaign.sweep_digest({("treeadd", "subheap"): stats})


def test_runstats_digest_ignores_host_cache_counters():
    from repro.ifp.unit import _CACHE_COUNTER_FIELDS
    reference = _digest(_stats())
    for field in sorted(_CACHE_COUNTER_FIELDS):
        stats = _stats()
        setattr(stats.ifp, field, getattr(stats.ifp, field) + 1)
        assert _digest(stats) == reference, field


def test_runstats_digest_changes_with_paper_model_fields():
    reference = _digest(_stats())
    stats = _stats()
    stats.cycles += 1
    assert _digest(stats) != reference
    stats = _stats()
    stats.ifp.promotes_total += 1
    assert _digest(stats) != reference
    stats = _stats()
    stats.l1d_misses += 1
    assert _digest(stats) != reference


def test_normalize_scales_by_the_samples_around_each_unit():
    ref = hostspeed.REFERENCE_S
    # a unit at reference speed keeps its time; one where the loop ran
    # twice as slow is halved; samples far from a unit do not count
    samples = [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref),
               (30.0, 4 * ref)]
    scaled = hostspeed.normalize([(0.0, 1.0), (10.0, 11.0)], samples,
                                 window=1.5)
    assert scaled == [1.0, 0.5]
    # with no sample in the window, the nearest one on each side counts
    assert hostspeed.normalize([(20.0, 21.0)], samples, window=1.5) == [
        1.0 / 3.0]


def test_clock_excludes_calibration_from_unit_times():
    clock = campaign.Clock(calibrated=True)
    clock.begin()
    units = [clock.end(), clock.end()]
    result = clock.result(units, [], {})
    assert len(clock.calibrator.samples) == 3
    assert result["wall_s"] == sum(result["units"])
    assert result["wall_s"] < clock.calibrator.samples[-1][0] - units[0][0]
    assert len(result["units_norm"]) == 2


def test_server_calibration_hooks_are_removed():
    import bench_server
    from repro.serve.service import CampaignService
    from repro.vm.machine import Machine

    before = (CampaignService.__dict__["_run_job"], Machine.__dict__["run"])
    hook = bench_server.JobCalibration()
    assert CampaignService.__dict__["_run_job"] is not before[0]
    assert Machine.__dict__["run"] is not before[1]
    hook.uninstall()
    assert (CampaignService.__dict__["_run_job"],
            Machine.__dict__["run"]) == before
    assert hook.snapshot() == {}
