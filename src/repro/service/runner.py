"""Child-process job executor: ``python -m repro.service.runner <jobdir>``.

The worker pool never runs a simplification in the server process --
each attempt is a child process executing this module against one job
directory (see :mod:`repro.service.jobs` for the layout).  That
isolation is what makes the crash-recovery contract simple: a worker
that dies (OOM, SIGKILL, power cut) leaves a readable checkpoint
prefix and *nothing else* -- no half-updated server state -- and the
supervisor just re-queues the job.  The next attempt lands back here,
``circuit_simplify`` finds the checkpoint journal and resumes from the
last committed iteration, bit-identical to an uninterrupted run.

Exit protocol (what the supervisor reads):

* ``outcome.json`` exists -> success (written atomically, so its
  presence implies it is complete);
* ``error.json`` exists -> typed failure, do not retry (the input is
  bad; re-running cannot fix it);
* neither -> the process crashed mid-run; re-queue and resume.

Forensics (DESIGN.md §15): every runner arms a
:class:`~repro.obs.flight.FlightRecorder` -- the run's event stream is
teed into its ring buffer, an excepthook flushes a ``crash/`` bundle
on any unexpected death, and ``SIGUSR1`` is registered with
``faulthandler`` so the pool's hang watchdog can extract an all-thread
stack dump (``stacks.txt``) from a wedged process before killing it.
``REPRO_FLIGHT_STALL_S`` (set by the pool from its hang deadline) arms
the in-process :class:`~repro.obs.flight.StallWatchdog` as well, so a
stall is self-reported with full context before the external kill.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time

from ..circuit import loads_bench
from ..core.api import SimplifyOutcome, SimplifyRequest, simplify
from ..core.errors import CompileError, ReproError, error_body
from ..fileio import atomic_write_text
from ..obs.flight import BUNDLE_DIRNAME, STACKS_FILENAME, FlightRecorder, StallWatchdog
from ..obs.progress import ProgressReporter

__all__ = ["run_job", "main"]

logger = logging.getLogger("repro.service.runner")


class _Fanout:
    """One journal sink fanning events to several (progress reporter,
    flight recorder, test fault injector)."""

    def __init__(self, sinks) -> None:
        self.sinks = list(sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)


class _FaultInjector:
    """Test-only fault hooks, armed by ``REPRO_TEST_*`` env vars.

    The forensics tests and the CI forensics-smoke job need a runner
    that wedges or dies *deterministically*; these hooks are the
    sleep-forever/raise "netlist" the suite injects.  Inert unless the
    env vars are set (never by the production server).

    * ``REPRO_TEST_HANG_AFTER_ITERS=N`` -- after the N-th committed
      iteration event, sleep forever (once per job: a ``fault.sentinel``
      in the job dir marks the hang as spent, so the post-kill resume
      attempt runs clean and the bit-identity contract is testable);
    * ``REPRO_TEST_CRASH_AFTER_ITERS=N`` -- raise at the N-th iteration
      on *every* attempt (no sentinel: the job burns its retry budget,
      the shape ``/v1/errors`` clusters);
    * ``REPRO_TEST_CRASH_KIND=runtime|value`` -- the exception type,
      so two injected failure modes yield two fingerprints.
    """

    def __init__(self, job_dir: str, hang_after: int, crash_after: int,
                 crash_kind: str) -> None:
        self.hang_after = hang_after
        self.crash_after = crash_after
        self.crash_kind = crash_kind
        self.sentinel = os.path.join(job_dir, "fault.sentinel")
        self.iterations = 0

    @classmethod
    def from_env(cls, job_dir: str):
        try:
            hang = int(os.environ.get("REPRO_TEST_HANG_AFTER_ITERS") or 0)
            crash = int(os.environ.get("REPRO_TEST_CRASH_AFTER_ITERS") or 0)
        except ValueError:
            return None
        if hang <= 0 and crash <= 0:
            return None
        kind = os.environ.get("REPRO_TEST_CRASH_KIND", "runtime")
        return cls(job_dir, hang, crash, kind)

    def emit(self, event: dict) -> None:
        if event.get("event") != "iteration":
            return
        self.iterations += 1
        if (
            self.hang_after
            and self.iterations >= self.hang_after
            and not os.path.exists(self.sentinel)
        ):
            with open(self.sentinel, "w", encoding="utf-8") as fh:
                fh.write("hang\n")
            logger.warning("injected hang after %d iterations", self.iterations)
            while True:
                time.sleep(60.0)
        if self.crash_after and self.iterations >= self.crash_after:
            if self.crash_kind == "value":
                raise ValueError(
                    f"injected value fault at iteration {self.iterations}"
                )
            raise RuntimeError(
                f"injected runtime fault at iteration {self.iterations}"
            )


def _atomic_write(path: str, text: str) -> None:
    atomic_write_text(path, text if text.endswith("\n") else text + "\n")


def run_job(job_dir: str, flight: FlightRecorder = None) -> SimplifyOutcome:
    """Execute the job stored in ``job_dir`` and persist its outcome.

    The stored request's durability fields are overridden with the
    job-local paths -- the service owns placement, not the submitter --
    and a :class:`ProgressReporter` feeds ``progress.json`` so the
    server can answer status polls with live numbers.  The request's
    ``trace_id`` (stamped by the server at submit) flows through
    ``simplify`` into the journal header and telemetry events: the
    runner-side half of the correlation story.  ``flight`` (when armed
    by :func:`main`) rides the same event stream, so a crash bundle
    carries the run's last moments.
    """
    with open(os.path.join(job_dir, "request.json"), "r", encoding="utf-8") as fh:
        request = SimplifyRequest.from_json(fh.read())
    if request.trace_id:
        logger.info("job %s trace_id=%s", job_dir, request.trace_id)
    if flight is not None:
        flight.trace_id = request.trace_id
    with open(os.path.join(job_dir, "netlist.bench"), "r", encoding="utf-8") as fh:
        bench_text = fh.read()
    name = _bench_name(bench_text)
    try:
        circuit = loads_bench(bench_text, name=name)
    except ValueError as exc:
        raise CompileError(f"netlist does not parse: {exc}") from exc

    request = request.replace(
        checkpoint=os.path.join(job_dir, "checkpoint.jsonl"),
        journal=os.path.join(job_dir, "journal.jsonl"),
    )
    progress = ProgressReporter(
        json_path=os.path.join(job_dir, "progress.json"),
        interval_s=0.2,
    )
    sinks = [progress]
    if flight is not None:
        sinks.append(flight)
    injector = _FaultInjector.from_env(job_dir)
    if injector is not None:
        # Last in the fan-out: the journal/checkpoint sinks have
        # committed the event before an injected fault fires, so a
        # killed attempt leaves a resumable prefix.
        sinks.append(injector)
    sink = progress if len(sinks) == 1 else _Fanout(sinks)
    try:
        outcome = simplify(circuit, request, progress=sink)
    finally:
        progress.close()
    _atomic_write(os.path.join(job_dir, "outcome.json"), outcome.to_json())
    return outcome


def _bench_name(text: str) -> str:
    """The circuit name from the conventional ``# name`` header line."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            token = line.lstrip("#").strip().split()
            if token:
                return token[0]
        break
    return "submitted"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.service.runner <jobdir>", file=sys.stderr)
        return 2
    job_dir = argv[0]
    flight = FlightRecorder()
    flight.install(
        bundle_dir=os.path.join(job_dir, BUNDLE_DIRNAME),
        stacks_path=os.path.join(job_dir, STACKS_FILENAME),
        progress_path=os.path.join(job_dir, "progress.json"),
    )
    watchdog = None
    try:
        stall_s = float(os.environ.get("REPRO_FLIGHT_STALL_S") or 0.0)
    except ValueError:
        stall_s = 0.0
    if stall_s > 0:
        watchdog = StallWatchdog(flight, deadline_s=stall_s)
        watchdog.start()
    try:
        run_job(job_dir, flight=flight)
        return 0
    except ReproError as exc:
        # Deterministic failure: record the typed body so the server
        # can replay it to the client, and tell the supervisor (via
        # error.json existing) not to burn retries on bad input.  No
        # crash bundle: error.json is the (fingerprintable) record.
        _atomic_write(
            os.path.join(job_dir, "error.json"),
            json.dumps(error_body(exc), indent=2, sort_keys=True),
        )
        logger.error("job %s failed: %s", job_dir, exc)
        return 1
    finally:
        # Anything *unexpected* propagates past this frame into the
        # installed excepthook, which flushes the crash bundle.
        if watchdog is not None:
            watchdog.stop()


if __name__ == "__main__":
    sys.exit(main())
