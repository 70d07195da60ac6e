"""High-level entry points: plan, execute, merge — one call per
campaign kind.  This is what the ``--jobs N`` flags on
``python -m repro.fuzz`` / ``python -m repro.resil`` and the
``python -m repro.par`` CLI delegate to.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EventBus, TraceContext
from repro.par.campaigns import bench_cells, runner_for
from repro.par.checkpoint import Checkpoint
from repro.par.merge import (
    merge_bench, merge_campaign, merge_fuzz_stats, merge_juliet,
)
from repro.par.plan import (
    ShardPlan, default_shard_count, plan_indices, plan_range,
)
from repro.par.pool import PlanResult, run_plan


def _events_sink(path: str) -> Tuple[Callable, Callable]:
    """An obs-bus sink appending one JSON line per shard/steal event;
    returns ``(sink, close)``."""
    handle = open(path, "a")

    def sink(event) -> None:
        handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        handle.flush()
    return sink, handle.close


def execute_plan(plan: ShardPlan, *, jobs: int,
                 checkpoint_dir: Optional[str] = None,
                 shard_timeout: Optional[float] = None,
                 shard_retries: int = 2, backoff_base: float = 0.05,
                 log=None, events_out: Optional[str] = None,
                 bus: Optional[EventBus] = None,
                 stop=None,
                 context: Optional[TraceContext] = None,
                 quarantine: bool = False, chaos=None) -> PlanResult:
    """Run one plan through the pool with checkpoint + event plumbing.

    ``bus`` (when given) receives the shard/steal event stream in
    addition to the on-disk ``events.jsonl`` — the campaign service
    subscribes live progress counters this way.  ``stop`` requests a
    graceful drain; ``quarantine``/``chaos`` configure poison-shard
    dead-lettering and host-fault injection (see
    :func:`repro.par.pool.run_plan`).
    """
    checkpoint = Checkpoint(checkpoint_dir) if checkpoint_dir else None
    bus = bus if bus is not None else EventBus()
    events_path = events_out or (checkpoint.events_path
                                 if checkpoint else None)
    close = None
    if events_path:
        os.makedirs(os.path.dirname(events_path) or ".", exist_ok=True)
        sink, close = _events_sink(events_path)
        bus.subscribe(sink)
    try:
        return run_plan(plan, runner_for(plan.kind), jobs=jobs,
                        shard_timeout=shard_timeout,
                        retries=shard_retries,
                        backoff_base=backoff_base,
                        checkpoint=checkpoint, bus=bus, log=log,
                        stop=stop, context=context,
                        quarantine=quarantine, chaos=chaos)
    finally:
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def plan_fuzz(iterations: int, seed: int, *, configs: Sequence[str],
              start: int = 0, clean: bool = True, inject: bool = True,
              corpus_dir: str = "corpus", minimize: bool = True,
              max_attacks: int = 2, plant_bug: bool = False,
              timeout_seconds: Optional[float] = None, retries: int = 2,
              backoff_base: float = 0.1, jobs: int = 1,
              shard_size: int = 0, engine: str = "auto",
              temporal: str = "off") -> ShardPlan:
    """Plan a fuzzing campaign as contiguous iteration-range shards.

    The shards partition ``range(start, start + iterations)``; the
    planner resolves ``plant_bug`` down to the one shard containing the
    campaign's first iteration so the sharded run plants exactly where
    the sequential driver would.
    """
    params = {
        "seed": seed, "configs": list(configs), "clean": clean,
        "inject": inject, "corpus_dir": corpus_dir,
        "minimize": minimize, "max_attacks": max_attacks,
        "plant_bug": False, "timeout_seconds": timeout_seconds,
        "retries": retries, "backoff_base": backoff_base,
        "engine": engine, "temporal": temporal,
    }
    shards = default_shard_count(iterations, jobs, shard_size)
    plan = plan_range("fuzz", seed, iterations, params=params,
                      shards=shards,
                      shard_params=[{"plant_bug": plant_bug}])
    # plan_range items are relative to 0; shift to the campaign start
    for shard in plan.shards:
        shard.items[0] += start
    plan.params["start"] = start
    plan.params["iterations"] = iterations
    return plan


def parallel_fuzz(plan: ShardPlan, *, jobs: int,
                  checkpoint_dir: Optional[str] = None,
                  shard_timeout: Optional[float] = None,
                  shard_retries: int = 2, backoff_base: float = 0.05,
                  log=None, events_out: Optional[str] = None,
                  bus: Optional[EventBus] = None, stop=None,
                  context: Optional[TraceContext] = None,
                  quarantine: bool = False, chaos=None
                  ) -> Tuple["FuzzStats", PlanResult]:
    """Execute a fuzz plan; returns the merged
    :class:`~repro.fuzz.driver.FuzzStats` plus the pool's
    :class:`~repro.par.pool.PlanResult`."""
    outcome = execute_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
        shard_timeout=shard_timeout, shard_retries=shard_retries,
        backoff_base=backoff_base, log=log, events_out=events_out,
        bus=bus, stop=stop, context=context,
        quarantine=quarantine, chaos=chaos)
    stats = merge_fuzz_stats(outcome.ordered_results(plan),
                             seed=plan.seed,
                             configs=plan.params["configs"],
                             temporal=plan.params["temporal"])
    stats.elapsed = outcome.wall_seconds
    return stats, outcome


# ---------------------------------------------------------------------------
# resil
# ---------------------------------------------------------------------------

def plan_resil(*, workloads: Sequence[str], schemes: Sequence[str],
               faults: Sequence[str], seed: int = 0, scale: int = 1,
               timeout_seconds: Optional[float] = 120.0,
               strict: bool = False, jobs: int = 1,
               shard_size: int = 0, engine: str = "auto") -> ShardPlan:
    """Plan a resilience campaign as contiguous slices of the global
    cell order (:func:`repro.resil.matrix.enumerate_cells`)."""
    total = len(workloads) * len(schemes) * len(faults)
    params = {
        "workloads": list(workloads), "schemes": list(schemes),
        "faults": list(faults), "seed": seed, "scale": scale,
        "timeout_seconds": timeout_seconds, "strict": strict,
        "engine": engine,
    }
    shards = default_shard_count(total, jobs, shard_size)
    return plan_indices("resil", seed, list(range(total)),
                        params=params, shards=shards)


def parallel_resil(plan: ShardPlan, *, jobs: int,
                   checkpoint_dir: Optional[str] = None,
                   shard_timeout: Optional[float] = None,
                   shard_retries: int = 2, backoff_base: float = 0.05,
                   log=None, events_out: Optional[str] = None,
                   bus: Optional[EventBus] = None, stop=None,
                   context: Optional[TraceContext] = None,
                   quarantine: bool = False, chaos=None
                   ) -> Tuple["CampaignResult", PlanResult]:
    """Execute a resil plan; returns the merged
    :class:`~repro.resil.matrix.CampaignResult` plus the pool
    result."""
    from repro.resil.policy import DEFAULT_POLICY, STRICT_POLICY
    outcome = execute_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
        shard_timeout=shard_timeout, shard_retries=shard_retries,
        backoff_base=backoff_base, log=log, events_out=events_out,
        bus=bus, stop=stop, context=context,
        quarantine=quarantine, chaos=chaos)
    policy = STRICT_POLICY if plan.params["strict"] else DEFAULT_POLICY
    campaign = merge_campaign(
        outcome.ordered_results(plan), seed=plan.seed,
        policy_name=policy.name, workloads=plan.params["workloads"],
        schemes=plan.params["schemes"], faults=plan.params["faults"])
    return campaign, outcome


# ---------------------------------------------------------------------------
# juliet
# ---------------------------------------------------------------------------

def plan_juliet(*, seed: int = 0, allocator: str = "wrapped",
                jobs: int = 1, shard_size: int = 0,
                temporal: str = "off") -> ShardPlan:
    """Plan the Juliet-style suite as contiguous case-index slices.

    With ``temporal`` armed the case list additionally includes the
    CWE-415/CWE-416 lifetime families
    (:func:`repro.juliet.cases.generate_temporal_cases`) and every
    machine runs with the lock-and-key policy.
    """
    from repro.juliet.cases import generate_cases, generate_temporal_cases
    total = len(generate_cases())
    if temporal != "off":
        total += len(generate_temporal_cases())
    params = {"allocator": allocator, "temporal": temporal}
    shards = default_shard_count(total, jobs, shard_size)
    return plan_indices("juliet", seed, list(range(total)),
                        params=params, shards=shards)


def parallel_juliet(plan: ShardPlan, *, jobs: int,
                    checkpoint_dir: Optional[str] = None,
                    shard_timeout: Optional[float] = None,
                    shard_retries: int = 2, backoff_base: float = 0.05,
                    log=None, events_out: Optional[str] = None,
                    bus: Optional[EventBus] = None, stop=None,
                    context: Optional[TraceContext] = None,
                    quarantine: bool = False, chaos=None
                    ) -> Tuple["JulietReport", PlanResult]:
    outcome = execute_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
        shard_timeout=shard_timeout, shard_retries=shard_retries,
        backoff_base=backoff_base, log=log, events_out=events_out,
        bus=bus, stop=stop, context=context,
        quarantine=quarantine, chaos=chaos)
    return merge_juliet(outcome.ordered_results(plan),
                        temporal=plan.params["temporal"]), \
        outcome


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def plan_bench(*, workloads: Sequence[str], configs: Sequence[str],
               scale: int = 1, timeout_seconds: Optional[float] = None,
               seed: int = 0, jobs: int = 1,
               shard_size: int = 0, engine: str = "auto") -> ShardPlan:
    """Plan an ad-hoc ``(workload, config)`` sweep as contiguous slices
    of :func:`repro.par.campaigns.bench_cells` order."""
    total = len(bench_cells(tuple(workloads), tuple(configs)))
    params = {
        "workloads": list(workloads), "configs": list(configs),
        "scale": scale, "timeout_seconds": timeout_seconds,
        "engine": engine,
    }
    shards = default_shard_count(total, jobs, shard_size)
    return plan_indices("bench", seed, list(range(total)),
                        params=params, shards=shards)


def parallel_bench(plan: ShardPlan, *, jobs: int,
                   checkpoint_dir: Optional[str] = None,
                   shard_timeout: Optional[float] = None,
                   shard_retries: int = 2, backoff_base: float = 0.05,
                   log=None, events_out: Optional[str] = None,
                   bus: Optional[EventBus] = None, stop=None,
                   context: Optional[TraceContext] = None,
                   quarantine: bool = False, chaos=None
                   ) -> Tuple[Dict[str, Any], PlanResult]:
    outcome = execute_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
        shard_timeout=shard_timeout, shard_retries=shard_retries,
        backoff_base=backoff_base, log=log, events_out=events_out,
        bus=bus, stop=stop, context=context,
        quarantine=quarantine, chaos=chaos)
    return merge_bench(outcome.ordered_results(plan)), outcome


# ---------------------------------------------------------------------------
# selftest (deterministic toy campaign; used by tests and the service
# latency benchmark)
# ---------------------------------------------------------------------------

def parallel_selftest(plan: ShardPlan, *, jobs: int,
                      checkpoint_dir: Optional[str] = None,
                      shard_timeout: Optional[float] = None,
                      shard_retries: int = 2, backoff_base: float = 0.05,
                      log=None, events_out: Optional[str] = None,
                      bus: Optional[EventBus] = None, stop=None,
                      context: Optional[TraceContext] = None,
                      quarantine: bool = False, chaos=None
                      ) -> Tuple[List[Optional[Dict[str, Any]]],
                                 PlanResult]:
    """Execute a selftest plan; the 'merged' result is simply the
    shard payloads in shard order."""
    outcome = execute_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
        shard_timeout=shard_timeout, shard_retries=shard_retries,
        backoff_base=backoff_base, log=log, events_out=events_out,
        bus=bus, stop=stop, context=context,
        quarantine=quarantine, chaos=chaos)
    return outcome.ordered_results(plan), outcome


#: kind -> (merge-and-render helper) used by ``python -m repro.par
#: resume`` and the campaign service to finish any campaign generically
_PARALLEL_BY_KIND = {
    "fuzz": parallel_fuzz,
    "resil": parallel_resil,
    "juliet": parallel_juliet,
    "bench": parallel_bench,
    "selftest": parallel_selftest,
}


def run_campaign_plan(plan: ShardPlan, *, jobs: int = 1,
                      checkpoint_dir: Optional[str] = None,
                      shard_timeout: Optional[float] = None,
                      shard_retries: int = 2,
                      backoff_base: float = 0.05, log=None,
                      events_out: Optional[str] = None,
                      bus: Optional[EventBus] = None, stop=None,
                      context: Optional[TraceContext] = None,
                      quarantine: bool = False, chaos=None
                      ) -> Tuple[Any, PlanResult]:
    """Execute-and-merge any campaign plan by kind.

    The generic entry point the campaign service (:mod:`repro.serve`)
    drives: the merged result's type depends on ``plan.kind`` exactly
    as in the per-kind ``parallel_*`` helpers.
    """
    runner = _PARALLEL_BY_KIND.get(plan.kind)
    if runner is None:
        raise ValueError(f"cannot execute campaign kind {plan.kind!r}")
    return runner(plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
                  shard_timeout=shard_timeout,
                  shard_retries=shard_retries,
                  backoff_base=backoff_base, log=log,
                  events_out=events_out, bus=bus, stop=stop,
                  context=context, quarantine=quarantine, chaos=chaos)


def resume_checkpoint(checkpoint_dir: str, *, jobs: int,
                      shard_timeout: Optional[float] = None,
                      shard_retries: int = 2,
                      backoff_base: float = 0.05, log=None,
                      bus: Optional[EventBus] = None, stop=None,
                      context: Optional[TraceContext] = None,
                      quarantine: bool = False, chaos=None
                      ) -> Tuple[str, Any, PlanResult]:
    """Resume any checkpointed campaign from its manifest.

    Returns ``(kind, merged_result, plan_result)`` where the merged
    result's type depends on the campaign kind.  Completed shards are
    restored from disk; pending/failed ones re-run.
    """
    checkpoint = Checkpoint(checkpoint_dir)
    if not checkpoint.exists():
        raise FileNotFoundError(
            f"no checkpoint manifest in {checkpoint_dir}")
    plan = checkpoint.load_plan()
    merged, outcome = run_campaign_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir,
        shard_timeout=shard_timeout, shard_retries=shard_retries,
        backoff_base=backoff_base, log=log, bus=bus, stop=stop,
        context=context, quarantine=quarantine, chaos=chaos)
    return plan.kind, merged, outcome
