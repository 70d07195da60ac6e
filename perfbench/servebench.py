"""The ``serve`` workload: a closed loop against ``python -m repro.serve``.

One client submits the fixed job mix of two tenants, each job only
after the previous one is ``done``, over one connection at a time.
Jobs therefore run one after another, so a job's latency is its own
work through admission, scheduling, execution, checkpointing and merge,
not the scheduler's interleaving of two CPU-bound threads on a few
shared cores.  The server runs in a child process with its default
worker and concurrency settings (:mod:`bench_server`), which takes
host-speed samples on each job's thread.  One repetition boots a fresh
server on a fresh store, runs the mix, reads the server's peak RSS and
stops it with SIGTERM.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import hostspeed

HOST = "127.0.0.1"
#: seconds between job-status polls
POLL_S = 0.05
#: seconds a job or the server boot may take before it counts as failed
JOB_TIMEOUT_S = 120.0
BOOT_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


BENCH = {"workloads": ["treeadd", "anagram"]}
RESIL = {"workloads": ["treeadd", "anagram"], "schemes": ["subheap"],
         "faults": ["tag_bit_flip", "metadata_corrupt"], "seed": 1}

#: the fixed job mix, ``(tenant, spec)``; :func:`job_mix` orders it.
#: Ranked by latency, the 13 jobs are four fuzz jobs, the ``workers: 2``
#: bench job, three plain bench jobs, three resil jobs and two Juliet
#: jobs.  Over two mixes p50 is the 7th job, the middle one of the three
#: bench jobs, and p75 the 10th, the middle one of the three resil jobs:
#: the same job whatever order they ran in.
MIX: List[Tuple[str, dict]] = [
    ("alice", {"kind": "fuzz", "params": {"iterations": 1, "seed": 1}}),
    ("bob", {"kind": "fuzz", "params": {"iterations": 1, "seed": 2}}),
    ("alice", {"kind": "fuzz", "params": {"iterations": 1, "seed": 3}}),
    ("bob", {"kind": "fuzz", "params": {"iterations": 1, "seed": 4}}),
    ("alice", {"kind": "bench", "params": BENCH, "workers": 2}),
    ("bob", {"kind": "bench", "params": BENCH}),
    ("alice", {"kind": "bench", "params": BENCH}),
    ("bob", {"kind": "bench", "params": BENCH}),
    ("alice", {"kind": "resil", "params": RESIL}),
    ("bob", {"kind": "resil", "params": RESIL}),
    ("alice", {"kind": "resil", "params": RESIL}),
    ("bob", {"kind": "juliet", "params": {"temporal": "check"}}),
    ("alice", {"kind": "juliet", "params": {"allocator": "subheap"}}),
]


def job_mix(seed: int, corpus_dir: str) -> List[Tuple[str, dict]]:
    """The fixed mix in the order the seed picks.

    Short fuzz jobs, middling bench jobs (one of them with
    ``workers: 2``, so the process pool's dispatch, pickling and
    checkpoint path runs), resil slices, and long Juliet jobs (one with
    ``temporal: check``, one with ``allocator: subheap``); every job
    but one runs at the default ``workers: 1``, inline in the server.
    As for ``sweep``, the seed only orders the jobs: every order does
    the same work, so the unit percentiles do not hang on which fuzz
    programs one seed happened to draw.
    """
    mix = [(tenant, json.loads(json.dumps(spec))) for tenant, spec in MIX]
    for _, spec in mix:
        if spec["kind"] == "fuzz":
            spec["params"]["corpus_dir"] = corpus_dir
    random.Random(seed).shuffle(mix)
    return mix


def _request(port: int, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection(HOST, port, timeout=JOB_TIMEOUT_S)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else {}
    finally:
        conn.close()


class Server:
    """One server child process, booted until ``/healthz`` answers 200."""

    def __init__(self, work: str, env: dict, trace_out: Optional[str]):
        self.log_path = os.path.join(work, "server.log")
        store = os.path.join(work, "store")
        serve_args = ["--port", "0", "--store", store]
        here = os.path.dirname(os.path.abspath(__file__))
        #: the server's calibration samples or trace snapshot
        self.out_path = trace_out or os.path.join(work, "calibration.json")
        mode = "trace" if trace_out else "calibrate"
        cmd = [sys.executable, os.path.join(here, "bench_server.py"),
               mode, self.out_path] + serve_args
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                env=dict(env, PYTHONUNBUFFERED="1"))
        try:
            self.port = self._wait_listening(started)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_listening(self, started: float) -> int:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            with open(self.log_path) as log:
                match = _LISTENING.search(log.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            try:
                if _request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz with 200")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the service drains) and wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _run_job(port: int, tenant: str, spec: dict) -> dict:
    """Submit one job and poll it until it is no longer running."""
    unit = {"ok": False, "result": None, "polls": 0, "rejected": 0}
    began = time.perf_counter()
    try:
        status, record = _request(port, "POST", "/jobs",
                                  dict(spec, tenant=tenant))
        unit["submit_s"] = time.perf_counter() - began
        if status != 201:
            unit["rejected"] = int(status in (429, 503))
            unit["error"] = f"POST /jobs -> {status}: {record}"
            return unit
        path = f"/jobs/{record['job_id']}"
        while record.get("status") not in ("done", "failed", "cancelled"):
            if time.perf_counter() - began > JOB_TIMEOUT_S:
                unit["error"] = f"{path} still {record['status']}"
                return unit
            time.sleep(POLL_S)
            status, record = _request(port, "GET", path)
            unit["polls"] += 1
            if status != 200:
                unit["error"] = f"GET {path} -> {status}"
                return unit
    except (OSError, ValueError) as exc:
        unit["error"] = f"{type(exc).__name__}: {exc}"
        return unit
    result = record.get("result") or {}
    unit["ok"] = record["status"] == "done" and bool(result.get("ok"))
    if not unit["ok"]:
        unit["error"] = f"{path} ended {record['status']}"
    unit["job_id"] = record["job_id"]
    unit["result"] = {"ok": result.get("ok"),
                      "metrics_document": result.get("metrics_document")}
    unit["queue_wait_s"] = record["started"] - record["created"]
    unit["job_run_s"] = record["finished"] - record["started"]
    # POST to done as the job record has it, so the poll interval
    # does not show
    unit["latency_s"] = record["finished"] - record["created"]
    return unit


def _scale(jobs: List[dict], calibration: Dict[str, dict]) -> None:
    """Take each job's calibration time out of its latency and scale
    the rest to reference speed by the job's samples."""
    for job in jobs:
        samples = calibration.get(job.get("job_id"))
        if samples is None or "latency_s" not in job:
            continue
        job["latency_s"] -= samples["inside_s"]
        job["latency_norm_s"] = job["latency_s"] * hostspeed.speed_factor(
            [duration for _, duration in samples["samples"]])


def run_campaign(seed: int, work: str, env: dict, corpus_dir: str,
                 trace_out: Optional[str] = None) -> dict:
    """Boot a server, run the mix through one client, stop it."""
    os.makedirs(work, exist_ok=True)
    mix = job_mix(seed, corpus_dir)
    server = Server(work, env, trace_out)
    try:
        start = time.perf_counter()
        jobs = [_run_job(server.port, tenant, spec) for tenant, spec in mix]
        wall_s = time.perf_counter() - start
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    result = {
        "setup_s": server.setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "specs": [dict(spec, tenant=tenant) for tenant, spec in mix],
        "jobs": jobs,
        "units": [job["latency_s"] for job in jobs if "latency_s" in job],
        "attempted": len(jobs),
        "failed": sum(not job["ok"] for job in jobs),
        "errors": [job["error"] for job in jobs if "error" in job][:5],
    }
    if trace_out is None:
        with open(server.out_path) as handle:
            calibration = json.load(handle)
        _scale(jobs, calibration)
        raw = sum(job["latency_s"] for job in jobs)
        scaled = [job.get("latency_norm_s") for job in jobs]
        if None not in scaled and raw > 0:
            # the wall time less the samples taken inside jobs, at the
            # jobs' overall speed
            inside_s = sum(job["inside_s"] for job in calibration.values())
            result["units_norm"] = scaled
            result["wall_norm_s"] = (wall_s - inside_s) * sum(scaled) / raw
    return result
