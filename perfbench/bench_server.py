"""``python -m repro.serve``, calibrated or traced, for the ``serve`` workload.

    python perfbench/bench_server.py calibrate OUT [repro.serve args...]
    python perfbench/bench_server.py trace OUT [repro.serve args...]

``calibrate`` takes host-speed samples (:mod:`hostspeed`) on each job's
thread: one as the job starts, one before a guest run when half a
second has passed since the last, and one after the job is finished.
``trace`` wraps the layer entry points (:mod:`spans`).  Either way the
service runs until SIGTERM drains it, and then the samples or the trace
snapshot are written to ``OUT`` as JSON.  Shard workers of a
multi-worker job run in other processes: they take no samples and run
untraced.
"""

import json
import sys
import threading
import time

import hostspeed
import spans

#: seconds between a job's calibration samples while it runs guests
PERIOD_S = 0.5


class JobCalibration:
    """Wraps ``CampaignService._run_job`` and ``Machine.run`` so that the
    running job's thread takes calibration samples."""

    def __init__(self) -> None:
        from repro.serve.service import CampaignService
        from repro.vm.machine import Machine

        self.jobs = {}
        self._local = threading.local()
        self._patches = [(CampaignService, "_run_job"), (Machine, "run")]
        self._originals = [owner.__dict__[name]
                           for owner, name in self._patches]
        run_job, machine_run = self._originals
        calibration = self

        def calibrated_run_job(service, record, granted):
            calibrator = hostspeed.Calibrator()
            calibrator.sample()
            calibration._local.calibrator = calibrator
            try:
                return run_job(service, record, granted)
            finally:
                calibration._local.calibrator = None
                # everything so far ran before the record was finished
                inside_s = calibrator.total_s
                calibrator.sample()
                calibration.jobs[record.job_id] = {
                    "samples": calibrator.samples, "inside_s": inside_s}

        def calibrated_run(machine, *args, **kwargs):
            calibrator = getattr(calibration._local, "calibrator", None)
            if (calibrator is not None
                    and time.perf_counter() - calibrator.last >= PERIOD_S):
                calibrator.sample()
            return machine_run(machine, *args, **kwargs)

        for (owner, name), wrapper in zip(
                self._patches, (calibrated_run_job, calibrated_run)):
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for (owner, name), original in zip(self._patches, self._originals):
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        return dict(self.jobs)


def main(argv) -> int:
    mode, out, serve_args = argv[0], argv[1], argv[2:]
    import repro.serve.__main__ as serve_main
    hook = spans.install() if mode == "trace" else JobCalibration()
    try:
        return serve_main.main(serve_args)
    finally:
        hook.uninstall()
        with open(out, "w") as handle:
            json.dump(hook.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
