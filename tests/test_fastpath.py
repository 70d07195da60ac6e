"""Differential tests: the closure-compiled fastpath vs the reference
interpreter.

The fastpath's contract is *byte-identical observables*: for every
program, the two engines must agree on guest output, exit code, trap
class and message, and every field of ``RunStats`` (including the IFP
unit's counters and the host-side cache counters, which are structural
— the promote-result cache lives in the shared IFP unit and fires
identically under both engines).  These tests replay generated fuzz programs, injected
attacks, and real workloads under both engines and compare the full
stats dataclass, making them the in-repo mirror of the CI differential
gate (``benchmarks/bench_host_throughput.py --verify-only``).
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import ReproError, WorkloadTimeout
from repro.eval.configs import build_machine_config, build_options
from repro.fuzz.attacks import attacks_for
from repro.fuzz.generator import generate_program, render
from repro.vm import Machine, MachineConfig
from repro.vm.fastpath import FastInterpreter
from repro.workloads import WORKLOADS


def _observables(program, config: MachineConfig, engine: str):
    """Run one compiled program under one engine; returns every
    observable the equivalence contract covers, as plain data."""
    from dataclasses import replace
    machine = Machine(program, replace(config, engine=engine))
    result = machine.run()
    trap = result.trap
    return {
        "exit_code": result.exit_code,
        "output": result.output,
        "trap": (type(trap).__name__, str(trap),
                 getattr(trap, "executed", None),
                 getattr(trap, "pc", None))
        if trap else None,
        "stats": dataclasses.asdict(result.stats),
    }


def _assert_engines_agree(source: str, config_name: str,
                          max_instructions: int = 5_000_000):
    program = compile_source(source, build_options(config_name))
    config = build_machine_config(config_name, max_instructions)
    reference = _observables(program, config, "reference")
    assert _observables(program, config, "fastpath") == reference, (
        f"fastpath diverged under {config_name!r}")
    return reference


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------

SMALL = "int main(void) { int x = 3; return x + 4; }"


class TestEngineSelection:
    def test_auto_uses_fastpath_when_uninstrumented(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="auto"))
        assert isinstance(machine.select_interp(), FastInterpreter)

    def test_auto_uses_instrumented_fastpath_with_observer(self):
        # The big behavior change of the instrumented translation: an
        # armed observer no longer forfeits the fastpath.
        from repro.obs import attach_observer
        program = compile_source(SMALL, CompilerOptions.wrapped())
        machine = Machine(program, MachineConfig(engine="auto"))
        attach_observer(machine, profile=True, forensics=True)
        assert machine.fastpath_reasons() == []
        assert isinstance(machine.select_interp(), FastInterpreter)

    def test_auto_uses_instrumented_fastpath_with_tracer(self):
        from repro.debug.trace import attach_tracer
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="auto"))
        attach_tracer(machine, capacity=64)
        assert machine.fastpath_reasons() == []
        assert isinstance(machine.select_interp(), FastInterpreter)

    def test_forced_fastpath_runs_instrumented(self):
        from repro.obs import attach_observer
        program = compile_source(SMALL, CompilerOptions.wrapped())
        machine = Machine(program, MachineConfig(engine="fastpath"))
        attach_observer(machine, profile=True, forensics=True)
        result = machine.run()
        assert result.exit_code == 7
        assert machine.engine_used == "fastpath"

    def test_alien_tracer_falls_back_with_reason(self):
        # An armed instrument that doesn't speak the record() protocol
        # can't be compiled in; auto degrades to the reference and
        # fastpath_reasons says why.
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="auto"))
        machine.tracer = object()
        assert machine.fastpath_reasons()
        assert machine.select_interp() is machine.interp

    def test_forced_fastpath_rejects_alien_instruments(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="fastpath"))
        machine.tracer = object()
        with pytest.raises(ReproError, match="record"):
            machine.select_interp()

    def test_engine_used_is_reported(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="reference"))
        machine.run()
        assert machine.engine_used == "reference"

    def test_unknown_engine_rejected(self):
        # a removed engine name gets the same typed error as a made-up one
        program = compile_source(SMALL, CompilerOptions.baseline())
        for engine in ("turbo", "superblock"):
            machine = Machine(program, MachineConfig(engine=engine))
            with pytest.raises(ReproError, match="unknown engine"):
                machine.select_interp()

    def test_reference_forces_reference(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="reference"))
        assert machine.select_interp() is machine.interp


# ---------------------------------------------------------------------------
# trap-for-trap equivalence on hand-written programs
# ---------------------------------------------------------------------------

OVERFLOW = """
int main(void) {
    int *p = (int *)malloc(4 * sizeof(int));
    int i;
    for (i = 0; i <= 4; i++) p[i] = i;   /* one past the end */
    return p[0];
}
"""

DIV_ZERO = """
int main(void) {
    int a = 7;
    int b = 0;
    return a / b;
}
"""

SPIN = """
int main(void) {
    int i = 0;
    while (1) i = i + 1;
    return i;
}
"""

RECURSE = """
int add(int n) { if (n == 0) return 0; return n + add(n - 1); }
int main(void) { return add(40); }
"""

LOOPY = """
int main(void) {
    int i;
    int sum = 0;
    for (i = 0; i < 100; i++) sum = sum + i;
    return sum & 0xFF;
}
"""

DOUBLE_FREE = """
int main(void) {
    int *p = (int *)malloc(4 * sizeof(int));
    int i;
    for (i = 0; i < 4; i++) p[i] = i;
    free(p);
    free(p);
    return 0;
}
"""


class TestTrapEquivalence:
    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_heap_overflow_trap_identical(self, config):
        run = _assert_engines_agree(OVERFLOW, config)
        assert run["trap"] is not None
        assert run["trap"][0] in ("PoisonTrap", "BoundsTrap")

    @pytest.mark.parametrize("config", ["baseline", "subheap"])
    def test_division_by_zero_identical(self, config):
        run = _assert_engines_agree(DIV_ZERO, config)
        assert run["trap"][:2] == ("SimTrap", "division by zero")

    def test_step_budget_message_and_counts_identical(self):
        # The budget trap must fire at the exact same instruction with
        # the same message, executed count, and pc under both engines —
        # this pins the fastpath's segment-exact accounting.
        run = _assert_engines_agree(SPIN, "baseline",
                                    max_instructions=10_000)
        assert run["trap"][0] == "StepBudgetExceeded"
        assert run["trap"][2] == 10_001  # executed counts the raiser

    def test_budget_trap_identical_inside_loop(self):
        # The budget must fire at the reference's exact instruction when
        # it lands inside a fused loop block (the single-step fallback).
        run = _assert_engines_agree(LOOPY, "baseline",
                                    max_instructions=150)
        assert run["trap"][0] == "StepBudgetExceeded"
        assert run["trap"][2] == 151

    @pytest.mark.parametrize("temporal", ["check", "quarantine"])
    def test_temporal_modes_identical(self, temporal):
        # Lock-and-key probes sit inline in compiled deref sites; they
        # must stay byte-identical in both temporal modes, including a
        # trapping double free.
        from dataclasses import replace
        for source in (SELF_MODIFY_METADATA, DOUBLE_FREE):
            program = compile_source(source, build_options("subheap"))
            config = replace(build_machine_config("subheap"),
                             temporal=temporal)
            reference = _observables(program, config, "reference")
            assert _observables(program, config, "fastpath") \
                == reference, f"fastpath diverged ({temporal})"

    def test_call_heavy_program_identical(self):
        _assert_engines_agree(RECURSE, "wrapped")

    def test_fastpath_wall_clock_watchdog_fires(self):
        program = compile_source(SPIN, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(
            engine="fastpath", max_instructions=2_000_000_000))
        with pytest.raises(WorkloadTimeout):
            machine.run(timeout_seconds=0.05)


# ---------------------------------------------------------------------------
# generated fuzz programs, clean and attacked
# ---------------------------------------------------------------------------

FUZZ_SEEDS = [0, 1, 2, 3, 7, 11, 23, 42]
FUZZ_CONFIGS = ["baseline", "subheap", "wrapped", "wrapped-np"]


class TestFuzzCorpusDifferential:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_clean_programs_identical(self, seed):
        program = generate_program(seed)
        for config in FUZZ_CONFIGS:
            _assert_engines_agree(program.source, config)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:4])
    def test_attacked_programs_identical(self, seed):
        # Attacked variants exercise the trap paths: the engines must
        # agree on whether each attack traps and with which trap.
        program = generate_program(seed)
        budget = 4
        for site in program.sites:
            for attack in attacks_for(site)[:2]:
                source = render(program.spec, (attack.sid, attack.index))
                for config in ("subheap", "wrapped"):
                    _assert_engines_agree(source, config)
                budget -= 1
                if budget == 0:
                    return


# ---------------------------------------------------------------------------
# real workloads
# ---------------------------------------------------------------------------

WORKLOAD_MATRIX = [
    ("treeadd", "baseline"), ("treeadd", "subheap"),
    ("bisort", "wrapped"), ("em3d", "subheap"),
    ("mst", "subheap-np"), ("anagram", "wrapped"),
    ("ft", "baseline"), ("coremark", "subheap"),
]


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name,config", WORKLOAD_MATRIX,
                             ids=[f"{w}-{c}" for w, c in WORKLOAD_MATRIX])
    def test_workload_identical(self, name, config):
        source = WORKLOADS[name].source(1)
        run = _assert_engines_agree(source, config,
                                    max_instructions=200_000_000)
        assert run["trap"] is None
        # The IFP cache counters travel inside stats.ifp: their equality
        # above proves the promote-result cache behaves structurally
        # identically under both engines.
        assert "promote_cache_hits" in run["stats"]["ifp"]


# ---------------------------------------------------------------------------
# instrumented translation: event streams, forensics, traces, faults
# ---------------------------------------------------------------------------


def _instrumented_observables(program, config: MachineConfig,
                              engine: str, fault_plan=None):
    """Run one program with the full observer stack armed (profiler,
    forensics, event tail, auto-tracer) plus an event-capturing sink;
    returns every instrumented observable as plain data."""
    from dataclasses import replace

    from repro.obs import attach_observer

    machine = Machine(program, replace(config, engine=engine))
    if fault_plan is not None:
        from repro.resil.faults import FaultInjector
        FaultInjector(fault_plan).arm(machine)
    events = []
    obs = attach_observer(machine, profile=True, forensics=True)
    obs.bus.subscribe(lambda event: events.append(event.to_dict()))
    result = machine.run()
    trap = result.trap
    return {
        "engine_used": machine.engine_used,
        "exit_code": result.exit_code,
        "output": result.output,
        "trap": (type(trap).__name__, str(trap),
                 getattr(trap, "pc", None)) if trap else None,
        "stats": dataclasses.asdict(result.stats),
        "events": events,
        "trace": machine.tracer.snapshot(),
        "trace_recorded": machine.tracer.recorded,
        "forensics": [report.to_dict() for report in obs.reports],
        "profile": obs.profiler.to_dict(),
    }


def _assert_instrumented_engines_agree(source: str, config_name: str,
                                       max_instructions: int = 5_000_000,
                                       fault_plan=None):
    program = compile_source(source, build_options(config_name))
    config = build_machine_config(config_name, max_instructions)
    reference = _instrumented_observables(program, config, "reference",
                                          fault_plan)
    fastpath = _instrumented_observables(program, config, "fastpath",
                                         fault_plan)
    assert reference["engine_used"] == "reference"
    assert fastpath["engine_used"] == "fastpath"
    del reference["engine_used"], fastpath["engine_used"]
    assert fastpath == reference, (
        f"instrumented engines diverged under {config_name!r}")
    return reference


class TestInstrumentedDifferential:
    """The instrumented fastpath variant must reproduce the reference's
    event stream, tracer ring, forensics, and RunStats byte-for-byte —
    the equivalence contract extended to observability itself."""

    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_trapping_program_full_obs_identical(self, config):
        run = _assert_instrumented_engines_agree(OVERFLOW, config)
        assert run["trap"] is not None
        assert run["events"], "observer saw no events"
        assert run["forensics"], "trap produced no forensics report"
        assert run["trace_recorded"] > 0

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_corpus_event_streams_identical(self, seed):
        program = generate_program(seed)
        for config in FUZZ_CONFIGS:
            _assert_instrumented_engines_agree(program.source, config)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:3])
    def test_attacked_programs_obs_identical(self, seed):
        program = generate_program(seed)
        budget = 3
        for site in program.sites:
            for attack in attacks_for(site)[:1]:
                source = render(program.spec, (attack.sid, attack.index))
                _assert_instrumented_engines_agree(source, "wrapped")
                budget -= 1
                if budget == 0:
                    return

    @pytest.mark.parametrize("name,config", WORKLOAD_MATRIX[:4],
                             ids=[f"{w}-{c}"
                                  for w, c in WORKLOAD_MATRIX[:4]])
    def test_workload_event_streams_identical(self, name, config):
        source = WORKLOADS[name].source(1)
        run = _assert_instrumented_engines_agree(
            source, config, max_instructions=200_000_000)
        assert run["trap"] is None

    @pytest.mark.parametrize("fault", ["tag_bit_flip",
                                       "metadata_corrupt",
                                       "mac_corrupt"])
    def test_fault_injection_outcomes_identical(self, fault):
        # Injectors hook the shared IFP unit, so the same seeded plan
        # must perturb both engines identically — including the
        # FaultEvents it emits and any trap it provokes.
        from repro.resil.faults import FaultPlan
        plan = FaultPlan.single(fault, seed=7, period=3, start=2)
        run = _assert_instrumented_engines_agree(
            WORKLOADS["treeadd"].source(1), "wrapped",
            max_instructions=200_000_000, fault_plan=plan)
        assert any(e["kind"] == "fault" for e in run["events"])

    def test_tracer_only_run_identical(self):
        # A tracer without an observer exercises the SIG_TRACE-only
        # variant of the translation cache.
        from dataclasses import replace

        from repro.debug.trace import attach_tracer

        program = compile_source(WORKLOADS["anagram"].source(1),
                                 build_options("wrapped"))
        config = build_machine_config("wrapped", 200_000_000)
        rings = {}
        for engine in ("reference", "fastpath"):
            machine = Machine(program, replace(config, engine=engine))
            tracer = attach_tracer(machine, capacity=512)
            result = machine.run()
            assert result.trap is None
            rings[engine] = (tracer.recorded, tracer.snapshot())
        assert rings["reference"] == rings["fastpath"]

    def test_signature_keys_coexist_in_cache(self):
        # One FastInterpreter must hold disarmed and instrumented
        # translations side by side without cross-talk.
        from dataclasses import replace

        from repro.obs import attach_observer

        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("wrapped"))
        config = replace(build_machine_config("wrapped", 200_000_000),
                         engine="fastpath")
        machine = Machine(program, config)
        plain = machine.run()
        assert machine.engine_used == "fastpath"
        sigs = {key[1] for key in machine._fast._fused}
        assert sigs == {0}
        machine2 = Machine(program, config)
        obs = attach_observer(machine2, profile=True, forensics=True)
        observed = machine2.run()
        assert machine2.engine_used == "fastpath"
        assert observed.exit_code == plain.exit_code
        assert observed.output == plain.output
        assert obs.bus.emitted > 0
        sigs = {key[1] for key in machine2._fast._fused}
        assert sigs <= {0, 3} and 3 in sigs


# ---------------------------------------------------------------------------
# shared-cache invalidation (the fastpath's enabling caches)
# ---------------------------------------------------------------------------

SELF_MODIFY_METADATA = """
struct pair { int a; int b; };
int main(void) {
    struct pair *p = (struct pair *)malloc(sizeof(struct pair));
    int i;
    int sum = 0;
    for (i = 0; i < 64; i++) {
        p->a = i;
        sum = sum + p->a;
    }
    free(p);
    p = (struct pair *)malloc(sizeof(struct pair));
    p->b = sum;
    return p->b & 0xFF;
}
"""


#: a global pointer table reloaded from memory (so every dereference
#: promotes) while its objects are freed and reallocated: store snoops
#: invalidate cached promotes between rounds
REUSED_SLOTS = """
struct pair { int a; int b; };
struct pair *slots[16];
int main(void) {
    int i;
    int round;
    int sum = 0;
    for (round = 0; round < 4; round++) {
        for (i = 0; i < 16; i++) {
            slots[i] = (struct pair *)malloc(sizeof(struct pair));
            slots[i]->a = i + round;
        }
        for (i = 0; i < 16; i++) {
            sum = sum + slots[i]->a;
            free(slots[i]);
        }
    }
    return sum & 0xFF;
}
"""


def _paper_observables(source: str, config_name: str, engine: str):
    """Observables with the IFP unit's host-cache counters projected
    out of ``stats.ifp`` (as perfbench's sweep digest does); returns
    them with the run's promote-cache miss count."""
    from repro.ifp.unit import _CACHE_COUNTER_FIELDS
    program = compile_source(source, build_options(config_name))
    config = build_machine_config(config_name, 200_000_000)
    run = _observables(program, config, engine)
    ifp = run["stats"]["ifp"]
    misses = ifp["promote_cache_misses"]
    run["stats"]["ifp"] = {key: value for key, value in ifp.items()
                           if key not in _CACHE_COUNTER_FIELDS}
    return run, misses


class TestCacheCoherence:
    def test_alloc_free_realloc_identical(self):
        # free() + realloc rewrites object metadata in place; the
        # promote cache must observe the store snoop and miss, under
        # both engines, or stats/cycles would diverge here.
        for config in ("subheap", "wrapped"):
            _assert_engines_agree(SELF_MODIFY_METADATA, config)

    def test_cache_coherence_under_fastpath(self):
        from dataclasses import replace
        program = compile_source(SELF_MODIFY_METADATA,
                                 build_options("subheap"))
        config = replace(build_machine_config("subheap"),
                         engine="fastpath")
        machine = Machine(program, config)
        result = machine.run()
        assert result.trap is None
        assert machine.engine_used == "fastpath"

    def test_promote_cache_counters_populate(self):
        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("subheap"))
        machine = Machine(program, MachineConfig(engine="fastpath"))
        result = machine.run()
        ifp = result.stats.ifp
        assert ifp.promote_cache_hits + ifp.promote_cache_misses > 0
        assert ifp.promote_cache_hits > 0

    def test_elision_counters_engine_identical(self):
        # promote_elisions blends dynamic memo hits with statically
        # proven sites; the static pass must only elide where the
        # reference's memo would have hit, keeping the counter equal.
        run = _assert_engines_agree(WORKLOADS["treeadd"].source(1),
                                    "subheap",
                                    max_instructions=200_000_000)
        assert run["stats"]["ifp"]["promote_elisions"] > 0

    def test_capacity_overflow_clear_keeps_paper_model(self, monkeypatch):
        # A capacity of 8 forces the promote cache's clear-on-full path
        # many times per run; the paper-model observables must not move.
        # SELF_MODIFY_METADATA makes no promotes, so it can only check
        # the equality, not the extra misses.
        from repro.ifp import unit
        cells = [(WORKLOADS["treeadd"].source(1), "subheap", True),
                 (REUSED_SLOTS, "subheap", True),
                 (SELF_MODIFY_METADATA, "subheap", False),
                 (SELF_MODIFY_METADATA, "wrapped", False)]
        for source, config_name, overflows in cells:
            for engine in ("fastpath", "reference"):
                monkeypatch.setattr(unit, "_PROMOTE_CACHE_CAPACITY",
                                    1 << 16)
                default, default_misses = _paper_observables(
                    source, config_name, engine)
                monkeypatch.setattr(unit, "_PROMOTE_CACHE_CAPACITY", 8)
                small, small_misses = _paper_observables(
                    source, config_name, engine)
                assert small == default, (config_name, engine)
                if overflows:
                    # more misses than at default capacity: the clear ran
                    assert small_misses > default_misses, \
                        (config_name, engine)


# ---------------------------------------------------------------------------
# process-wide code-object cache
# ---------------------------------------------------------------------------

#: a loop over a heap object, then a read through the freed pointer: a
#: clean run with temporal off, a TemporalViolation with it on
LOOP_THEN_UAF = """
int main(void) {
    int *p = (int *)malloc(8 * sizeof(int));
    int i;
    int sum = 0;
    for (i = 0; i < 8; i++) {
        p[i] = i * 3;
        sum = sum + p[i];
    }
    free(p);
    return (sum + p[2]) & 0xFF;
}
"""


@pytest.fixture
def code_cache(monkeypatch):
    """A fresh, empty code cache for the test, with every ``compile``
    call of the fastpath module counted in the returned list."""
    from collections import OrderedDict

    from repro.vm import fastpath

    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(fastpath, "_code_cache", OrderedDict())
    monkeypatch.setattr(fastpath, "compile", counting_compile,
                        raising=False)
    return calls


class TestCodeCache:
    def test_second_machine_compiles_nothing(self, code_cache):
        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("subheap"))
        config = build_machine_config("subheap")
        first = _observables(program, config, "fastpath")
        compiled = len(code_cache)
        assert compiled > 0
        assert _observables(program, config, "fastpath") == first
        assert len(code_cache) == compiled, "second machine recompiled"
        assert first == _observables(program, config, "reference")

    def test_cached_code_binds_each_machines_state(self, code_cache):
        # A, B and C run the same program back to back and share every
        # block whose text coincides; each must still report its own
        # machine's output, trap, stats and events.
        program = compile_source(LOOP_THEN_UAF, build_options("wrapped"))
        plain = build_machine_config("wrapped", 5_000_000)
        checked = build_machine_config("wrapped", 5_000_000,
                                       temporal="check")
        expected = [_observables(program, plain, "reference"),
                    _observables(program, checked, "reference"),
                    _instrumented_observables(program, plain,
                                              "reference")]
        assert expected[0]["trap"] is None
        assert expected[1]["trap"][0] == "TemporalViolation"
        assert _observables(program, plain, "fastpath") == expected[0]
        compiled_a = len(code_cache)
        assert _observables(program, checked, "fastpath") == expected[1]
        compiled_b = len(code_cache) - compiled_a
        # B reused the blocks that temporal checking leaves unchanged
        assert 0 < compiled_b < compiled_a
        armed = _instrumented_observables(program, plain, "fastpath")
        assert armed["engine_used"] == "fastpath"
        del armed["engine_used"], expected[2]["engine_used"]
        assert armed == expected[2]
        assert armed["events"] and armed["trace_recorded"] > 0

    def test_capacity_one_keeps_results(self, code_cache, monkeypatch):
        # Each run starts from an empty cache; at capacity 1 every
        # block but the last translated one is evicted as it goes.
        from collections import OrderedDict

        from repro.vm import fastpath
        cells = [(WORKLOADS["treeadd"].source(1), "subheap"),
                 (SELF_MODIFY_METADATA, "subheap"),
                 (SELF_MODIFY_METADATA, "wrapped")]
        for source, config_name in cells:
            program = compile_source(source, build_options(config_name))
            config = build_machine_config(config_name, 200_000_000)
            runs = {}
            for capacity in (256, 1):
                monkeypatch.setattr(fastpath, "_CODE_CAPACITY", capacity)
                monkeypatch.setattr(fastpath, "_code_cache", OrderedDict())
                runs[capacity] = _observables(program, config, "fastpath")
                assert len(fastpath._code_cache) == min(
                    capacity, len(set(code_cache)))
                code_cache.clear()
            assert runs[1] == runs[256]
            assert runs[256] == _observables(program, config, "reference")

    def test_concurrent_translation_under_eviction(self, code_cache,
                                                   monkeypatch):
        # repro.serve runs jobs in threads that translate concurrently;
        # a capacity of 4 makes them evict each other's code all along.
        from concurrent.futures import ThreadPoolExecutor

        from repro.vm import fastpath
        monkeypatch.setattr(fastpath, "_CODE_CAPACITY", 4)
        cells = [(WORKLOADS["treeadd"].source(1), "subheap", "off"),
                 (WORKLOADS["anagram"].source(1), "wrapped", "off"),
                 (REUSED_SLOTS, "subheap-np", "check"),
                 (LOOP_THEN_UAF, "wrapped", "quarantine")]
        jobs = []
        for source, config_name, temporal in cells:
            program = compile_source(source, build_options(config_name))
            config = build_machine_config(config_name, 200_000_000,
                                          temporal=temporal)
            jobs.append((program, config))
        expected = [_observables(program, config, "reference")
                    for program, config in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(
                    lambda job: _observables(job[0], job[1], "fastpath"),
                    jobs, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        # a lost update would leave the cache over capacity or a text
        # filed under code compiled from another text
        assert len(fastpath._code_cache) <= 4
        for src, code in list(fastpath._code_cache.items()):
            module = compile(src, "<string>", "exec")
            assert code in module.co_consts
