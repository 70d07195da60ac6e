"""One benchmark repetition, run in a fresh interpreter.

    python perfbench/campaign.py --workload fuzz|sweep --seed N [--trace]
    python perfbench/campaign.py --workload fuzz|sweep --seed N --setup-only
    python perfbench/campaign.py --workload serve-batch --specs IN --results OUT

The process imports ``repro`` and builds the workload's inputs, prints
``ready`` (the parent times set-up up to that line), runs the fixed
campaign, and prints one JSON line with its timings, counts and
correctness evidence.  Between units it takes host-speed samples
(:mod:`hostspeed`) and reports each time scaled to reference speed as
well as raw.  ``--trace`` instead wraps the layer entry points
(:mod:`spans`) after set-up and reports the trace snapshot.

``serve-batch`` runs each job spec of a ``serve`` campaign through the
batch entry points (``repro.serve.jobs.build_plan`` +
``repro.par.engine.run_campaign_plan`` at one worker) and diffs the
result against what the service returned for the same spec.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from typing import Dict, List, Optional

import hostspeed

#: fuzz: iterations of the fixed campaign
FUZZ_ITERATIONS = 30
#: sweep: Figure-10 scale
SWEEP_SCALE = 1
#: where failing fuzz programs would be saved (inside the checkout)
CORPUS_DIR = ".perfbench_work/corpus"


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                          ).hexdigest()


def paper_stats(stats) -> dict:
    """The paper-model fields of one ``RunStats``: everything except the
    IFP unit's host-cache counters, which measure host work only."""
    from dataclasses import asdict

    from repro.ifp import unit
    host_only = getattr(unit, "_CACHE_COUNTER_FIELDS", frozenset())
    fields = asdict(stats)
    if fields.get("ifp") is not None:
        fields["ifp"] = {key: value for key, value in fields["ifp"].items()
                         if key not in host_only}
    return fields


def sweep_digest(cells: Dict[tuple, object]) -> str:
    """Digest of the paper-model ``RunStats`` of every (workload, config)
    cell, independent of the order the cells ran in."""
    return digest([[workload, config, paper_stats(stats)]
                   for (workload, config), stats in sorted(cells.items())])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Clock:
    """Times a campaign's units.  Calibrated, it takes a host-speed
    sample (:mod:`hostspeed`) before each unit and after the last, and
    reports every time scaled to reference speed next to the raw one;
    traced, it only reads the clock."""

    def __init__(self, calibrated: bool):
        self.calibrator = hostspeed.Calibrator() if calibrated else None
        self.started = 0.0

    def begin(self) -> None:
        self.started = (self.calibrator.sample() if self.calibrator
                        else time.perf_counter())

    def end(self) -> tuple:
        """Close the open unit, open the next; return the closed span."""
        span = (self.started, time.perf_counter())
        self.begin()
        return span

    def result(self, units: List[tuple], other: List[tuple],
               fields: dict) -> dict:
        """``fields`` plus the units' times and the campaign's wall time
        (units plus ``other`` spans; calibration excluded)."""
        spans = units + other
        fields["units"] = [end - start for start, end in units]
        fields["wall_s"] = sum(end - start for start, end in spans)
        if self.calibrator:
            scaled = hostspeed.normalize(spans, self.calibrator.samples)
            fields["units_norm"] = scaled[:len(units)]
            fields["wall_norm_s"] = sum(scaled)
            fields["calibration_samples"] = len(self.calibrator.samples)
        return fields


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def setup_fuzz(seed: int):
    from repro.fuzz.driver import run_fuzz
    from repro.par.merge import canonical_metrics

    def campaign(clock: "Clock") -> dict:
        units: List[tuple] = []

        def log(message: str) -> None:
            # progress_every=1: one line per finished iteration but the last
            if " iterations, " in message:
                units.append(clock.end())

        clock.begin()
        stats = run_fuzz(FUZZ_ITERATIONS, seed=seed, corpus_dir=CORPUS_DIR,
                         log=log, progress_every=1, engine="auto")
        units.append(clock.end())
        failed = {record.entry.iteration for record in stats.failures}
        return clock.result(units, [], {
            "attempted": FUZZ_ITERATIONS,
            "failed": min(FUZZ_ITERATIONS, len(failed) + stats.timeouts),
            "ok": stats.ok and len(units) == FUZZ_ITERATIONS,
            "digest": digest(canonical_metrics(stats.to_dict())),
            "executions": stats.executions,
        })
    return campaign


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def setup_sweep(seed: int):
    from repro.errors import ReproError
    from repro.eval.configs import CONFIG_NAMES
    from repro.eval.figures import figure10_series, geomean
    from repro.eval.harness import Sweep

    sweep = Sweep(scale=SWEEP_SCALE)
    cells = [(workload, config) for workload in sweep.workloads
             for config in CONFIG_NAMES]
    # the seed only orders the cells; every order computes the same runs
    random.Random(seed).shuffle(cells)

    def campaign(clock: "Clock") -> dict:
        times: Dict[tuple, float] = {}
        errors: List[str] = []
        units: List[tuple] = []
        clock.begin()
        for workload, config in cells:
            try:
                sweep.run(workload, config)
            except ReproError as exc:  # trap, wrong output, timeout
                errors.append(f"{workload.name}/{config}: {exc}")
            units.append(clock.end())
            times[(workload.name, config)] = units[-1][1] - units[-1][0]
        try:
            sweep.verify_outputs_agree(CONFIG_NAMES)
        except ReproError as exc:
            errors.append(f"outputs disagree: {exc}")
        verify = clock.end()
        result = clock.result(units, [verify], {
            "cell_s": {f"{w}/{c}": t for (w, c), t in times.items()},
            "attempted": len(cells),
            "failed": len(errors),
            "errors": errors[:5],
            "ok": not errors,
        })
        if not errors:
            series = figure10_series(sweep)
            result["digest"] = sweep_digest({
                (w.name, c): sweep.run(w, c).stats for w, c in cells})
            for config in ("subheap", "wrapped"):
                result[f"sim_overhead_{config}_pct"] = 100 * geomean(
                    [value for _, value in series[config]])
        return result
    return campaign


# ---------------------------------------------------------------------------
# serve: batch reference
# ---------------------------------------------------------------------------

def _batch_result(job: str) -> dict:
    """Run one ``[kind, params]`` job through the batch entry points."""
    from repro.par.engine import run_campaign_plan
    from repro.serve.jobs import build_plan, validate_spec
    from repro.serve.service import _render_result

    kind, params = json.loads(job)
    _, kind, _, params = validate_spec(
        {"tenant": "batch", "kind": kind, "params": params})
    merged, outcome = run_campaign_plan(build_plan(kind, params, 1))
    result = _render_result(kind, params, merged, outcome)
    return {"ok": result["ok"],
            "metrics_document": result["metrics_document"]}


def serve_batch(specs_path: str, results_path: str) -> dict:
    """Diff each served job result against the same job run in batch
    (each distinct job once, two at a time: the measured repetitions
    are over)."""
    import multiprocessing

    from repro.par.merge import diff_documents

    with open(specs_path) as handle:
        specs = json.load(handle)
    with open(results_path) as handle:
        served = json.load(handle)
    jobs = [json.dumps([spec["kind"], spec["params"]], sort_keys=True)
            for spec in specs]
    distinct = list(dict.fromkeys(jobs))
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        batch = dict(zip(distinct, pool.map(_batch_result, distinct,
                                            chunksize=1)))
    mismatches = []
    for rep, results in enumerate(served):
        for index, (job, got) in enumerate(zip(jobs, results)):
            if got is None:
                continue  # counted as failed by the client already
            differences = diff_documents(batch[job], got)
            if differences:
                mismatches.append(f"rep {rep} job {index}: "
                                  + "; ".join(differences[:3]))
    return {"mismatches": mismatches, "jobs": len(distinct)}


SETUPS = {"fuzz": setup_fuzz, "sweep": setup_sweep}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUPS) + ["serve-batch"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--specs")
    parser.add_argument("--results")
    args = parser.parse_args(argv)

    if args.workload == "serve-batch":
        print("ready", flush=True)
        print(json.dumps(serve_batch(args.specs, args.results)), flush=True)
        return 0
    campaign = SETUPS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()
    try:
        result = campaign(Clock(calibrated=tracer is None))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
