"""The repository benchmark: fuzz, Figure-10 sweep and serve campaigns.

    python3 perfbench/run.py --workload fuzz|sweep|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout (``src/repro`` must exist).  Every
repetition runs in a fresh interpreter, so set-up (interpreter start,
``import repro``, building the inputs, and for ``serve`` booting the
server until ``/healthz`` answers) is timed apart from the campaign.

``--trace 0`` repeats the fixed campaign for about ``--seconds`` (at
least :data:`MIN_REPS` times) and reports the end-to-end metrics as
medians.  Campaign and unit times are scaled to reference host speed by
calibration samples taken between units (:mod:`hostspeed`); the table
prints the raw times beside them.  ``--trace 1`` runs the campaign once untraced and once with
the layer entry points wrapped (:mod:`spans`) and reports the per-layer
metrics plus the tracing overhead.  Both check the outputs; a
correctness failure prints ``"correct": false`` and exits 1.  The last
stdout line is the JSON result; the lines before it are a readable
table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import servebench
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
#: campaign repetitions per measured run, whatever ``--seconds`` says:
#: fuzz runs both of its campaigns, serve needs two mixes for enough
#: units behind its percentiles, one sweep already has 90 cells
MIN_REPS = {"fuzz": 2, "sweep": 1, "serve": 2}
#: campaign seeds of the ``fuzz`` workload; a run covers all of them
FUZZ_CAMPAIGNS = (0, 1)
#: repetitions that go together: a ``fuzz`` run repeats whole rounds
#: of :data:`FUZZ_CAMPAIGNS`, a ``serve`` run pairs of mixes (so the
#: unit percentiles fall on the same jobs of the mix whatever the count)
ROUND = {"fuzz": len(FUZZ_CAMPAIGNS), "sweep": 1, "serve": 2}
#: set-up samples per measured run (extra set-up-only processes fill up)
SETUP_SAMPLES = 5
#: seconds one child process may take
CHILD_TIMEOUT_S = 170.0
#: where the benchmark keeps run files, inside the checkout
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    """The benchmark could not run (not a correctness failure)."""


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def child_env(work: str) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.abspath(work)
    return env


def _read_line(proc, timeout: float) -> bytes:
    """One line from the child's stdout, read unbuffered so that
    ``communicate`` afterwards sees everything that follows it."""
    line = b""
    fd = proc.stdout.fileno()
    while not line.endswith(b"\n"):
        if not select.select([fd], [], [], timeout)[0]:
            break
        chunk = os.read(fd, 1)
        if not chunk:
            break
        line += chunk
    return line


def run_child(args: List[str], env: dict) -> dict:
    """Run ``campaign.py`` once; time set-up to its ``ready`` line."""
    cmd = [sys.executable, os.path.join(HERE, "campaign.py")] + args
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        ready = _read_line(proc, CHILD_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or ready.strip() != b"ready":
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = setup_s
    return result


# ---------------------------------------------------------------------------
# one repetition of each workload
# ---------------------------------------------------------------------------

def repetition(workload: str, seed: int, work: str, env: dict,
               trace: bool = False) -> dict:
    if workload == "serve":
        trace_out = os.path.join(work, "server-trace.json") if trace else None
        rep_dir = os.path.join(work, f"serve-{time.monotonic_ns()}")
        result = servebench.run_campaign(
            seed, rep_dir, env, os.path.join(work, "corpus"), trace_out)
        if trace_out:
            with open(trace_out) as handle:
                result["trace"] = json.load(handle)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return result
    args = ["--workload", workload, "--seed", str(seed)]
    result = run_child(args + (["--trace"] if trace else []), env)
    result["seed"] = seed
    return result


def setup_probe(workload: str, seed: int, work: str, env: dict) -> float:
    if workload == "serve":
        rep_dir = os.path.join(work, f"probe-{time.monotonic_ns()}")
        os.makedirs(rep_dir)
        server = servebench.Server(rep_dir, env, None)
        server.stop()
        shutil.rmtree(rep_dir, ignore_errors=True)
        return server.setup_s
    return run_child(["--workload", workload, "--seed", str(seed),
                      "--setup-only"], env)["setup_s"]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check(workload: str, reps: List[dict], work: str,
          env: dict) -> List[str]:
    """Correctness failures across a run's repetitions (empty = ok)."""
    problems = [error for rep in reps for error in rep.get("errors", [])]
    if any(rep["failed"] for rep in reps) and not problems:
        problems.append("failed units")
    if workload == "fuzz":
        if not all(rep["ok"] for rep in reps):
            problems.append("fuzz oracle reported failures")
        want = load_reference()["fuzz_metrics_digests"]
        for rep in reps:
            if rep["digest"] != want[str(rep["seed"])]:
                problems.append(f"fuzz campaign {rep['seed']} metrics "
                                f"digest {rep['digest']} != recorded "
                                f"{want[str(rep['seed'])]}")
    elif workload == "sweep":
        want = load_reference()["sweep_runstats_digest"]
        for rep in reps:
            if rep.get("digest") != want:
                problems.append(f"sweep RunStats digest {rep.get('digest')}"
                                f" != recorded {want}")
        for key in ("sim_overhead_subheap_pct", "sim_overhead_wrapped_pct"):
            if len({rep.get(key) for rep in reps}) != 1:
                problems.append(f"{key} differs between repetitions")
    else:
        specs = os.path.join(work, "specs.json")
        results = os.path.join(work, "results.json")
        with open(specs, "w") as handle:
            json.dump(reps[0]["specs"], handle)
        with open(results, "w") as handle:
            json.dump([[job["result"] for job in rep["jobs"]]
                       for rep in reps], handle)
        batch = run_child(["--workload", "serve-batch", "--specs", specs,
                           "--results", results], env)
        problems.extend(batch["mismatches"])
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: List[dict], setups: List[float],
               suffix: str = "_norm") -> Dict[str, float]:
    """The end-to-end metrics of a run's repetitions and set-up samples.
    Campaign and unit times are the ones scaled to reference host speed
    (:mod:`hostspeed`), ``suffix=""`` gives the raw ones; set-up time is
    raw."""
    units = [u for rep in reps for u in rep["units" + suffix]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep[f"wall{suffix}_s"] for rep in reps),
        "unit_p50_s": statistics.median(units),
        "unit_p75_s": statistics.quantiles(units, n=4)[2],
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def _geomean(values: List[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def per_layer(workload: str, untraced: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced repetition; ratios carry their
    bases.  Metrics of a layer the workload does not exercise are 0."""
    jobs = traced.get("jobs", [])
    if workload == "serve":
        # layers run on the server's job threads: shares are of their
        # summed busy time, not of the client's wall time
        base_s = sum(job["job_run_s"] for job in jobs)
    else:
        base_s = traced["wall_s"]
    out = spans.layer_metrics(traced["trace"], base_s)
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.untraced_wall_s"] = untraced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]

    out["fuzz.executions"] = traced.get("executions", 0) + sum(
        job["result"]["metrics_document"]["metrics"]["executions"]
        for job in jobs if job["result"]
        and job["result"]["metrics_document"]["name"] == "fuzz")

    # sweep only: host time of each workload's subheap cell against its
    # baseline cell, and the modelled design's cycle overheads
    cells = untraced.get("cell_s", {})
    names = sorted({key.split("/")[0] for key in cells})
    subheap = [cells[f"{name}/subheap"] for name in names]
    baseline = [cells[f"{name}/baseline"] for name in names]
    out["eval.subheap_host_ratio"] = _geomean(
        [s / b for s, b in zip(subheap, baseline)]) if names else 0.0
    out["eval.subheap_host_s"] = sum(subheap)
    out["eval.baseline_host_s"] = sum(baseline)
    for config in ("subheap", "wrapped"):
        out[f"sim.overhead_{config}_pct"] = untraced.get(
            f"sim_overhead_{config}_pct", 0.0)

    def median_of(key: str) -> float:
        values = [job[key] for job in jobs if key in job]
        return statistics.median(values) if values else 0.0

    out["serve.jobs"] = len(jobs)
    out["serve.submit_s"] = median_of("submit_s")
    out["serve.queue_wait_s"] = median_of("queue_wait_s")
    out["serve.job_run_s"] = median_of("job_run_s")
    out["serve.polls"] = sum(job["polls"] for job in jobs)
    out["serve.rejections"] = sum(job["rejected"] for job in jobs)
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def campaign_seed(workload: str, seed: int, index: int = 0) -> int:
    """Seed of a run's ``index``-th campaign.  A ``fuzz`` run goes
    through the fixed :data:`FUZZ_CAMPAIGNS` in the order the seed
    picks: the work of a 30-iteration campaign moves by up to a fifth
    with its campaign seed, more than the bounds allow, so every run
    does the same work.  ``sweep`` and ``serve`` get the seed itself,
    which orders their cells and jobs."""
    if workload != "fuzz":
        return seed
    order = list(FUZZ_CAMPAIGNS)
    random.Random(seed).shuffle(order)
    return order[index % len(order)]


def measured_pass(workload: str, seed: int, seconds: float, work: str,
                  env: dict) -> tuple:
    started = time.perf_counter()
    reps: List[dict] = []
    while (len(reps) < MIN_REPS[workload]
           or len(reps) % ROUND[workload]
           or time.perf_counter() - started + ROUND[workload] * (
               reps[-1]["wall_s"] + reps[-1]["setup_s"]) <= seconds):
        reps.append(repetition(workload, campaign_seed(
            workload, seed, len(reps)), work, env))
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(workload, seed, work, env))
    metrics = end_to_end(reps, setups)
    info = {"reps": len(reps), "units": sum(len(r["units"]) for r in reps),
            "setup_samples": len(setups),
            "raw": end_to_end(reps, setups, suffix="")}
    return reps, metrics, info


def traced_pass(workload: str, seed: int, work: str, env: dict) -> tuple:
    seed = campaign_seed(workload, seed)
    untraced = repetition(workload, seed, work, env)
    traced = repetition(workload, seed, work, env, trace=True)
    return [untraced, traced], per_layer(workload, untraced, traced), {}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def render_table(workload: str, metrics: Dict[str, float], info: dict,
                 reps: List[dict], units: Dict[str, str], attempted: int,
                 failed: int) -> str:
    """The readable table: every metric with its unit, the raw times
    behind the scaled ones, the error rate and, on ``sweep``, the
    modelled design's cycle overheads."""
    raw = info.pop("raw", {})
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rows += [(f"raw {name}", raw[name], units[name])
             for name in ("wall_s", "unit_p50_s", "unit_p75_s") if raw]
    rows.append(("error_rate", failed / attempted, "ratio"))
    for key in ("sim_overhead_subheap_pct", "sim_overhead_wrapped_pct"):
        if key in reps[0]:
            rows.append((key, reps[0][key], "%"))
    lines = [f"perfbench {workload}: "
             + ", ".join(f"{k}={v}" for k, v in info.items())]
    lines += [f"  {name:34s} {value:16.6g} {unit}"
              for name, value, unit in rows]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_REPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root (no src/repro here)",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_env(work)
    try:
        if args.trace:
            reps, metrics, info = traced_pass(args.workload, args.seed,
                                              work, env)
        else:
            reps, metrics, info = measured_pass(args.workload, args.seed,
                                                args.seconds, work, env)
        problems = check(args.workload, reps, work, env)
    except (BenchError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    attempted = sum(rep["attempted"] for rep in reps)
    # a failed check fails at least one unit (a serve job per mismatch)
    failed = min(attempted, max(sum(rep["failed"] for rep in reps),
                                len(problems)))
    print(render_table(args.workload, metrics, info, reps, units,
                       attempted, failed))
    for problem in problems:
        print(f"  CORRECTNESS: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
