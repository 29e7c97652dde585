"""The ``service_mix`` workload: a closed loop against ``repro serve``.

``SERVICE_CLIENTS`` client threads each submit one job and wait for it
before submitting the next.  A job is either *cold* (a ripple-adder
request with a fresh seed, so the server spawns a runner for it) or a
*hit* (a resubmission of a request that already completed, answered
from the result cache); each client alternates the two, so the mix is
the same on every run.  The loop runs until both ``--seconds`` have
passed and ``SERVICE_MIN_COLD`` cold jobs are done.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import spec
import workloads
from procs import TimedChild, child_env

_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")
#: The closed loop stops here even short of its cold-job count.
_LOOP_DEADLINE_S = 120.0


class Server:
    """One ``python3 -m repro serve`` process on an ephemeral port."""

    def __init__(self, root: str, data_dir: str) -> None:
        self.data_dir = data_dir
        self.log_path = data_dir + ".log"
        os.makedirs(data_dir, exist_ok=True)
        t0 = time.perf_counter()
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workloads.SERVICE_WORKERS), "--data-dir", data_dir],
            cwd=root,
            env=child_env(root),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            # repro serve shuts down cleanly on SIGINT only, and a shell
            # that starts the benchmark in the background ignores it.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        from repro.core.errors import ReproError
        from repro.service import ServiceClient

        self.url = None
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}")
            if time.perf_counter() - t0 > 60.0:
                self.stop()
                raise RuntimeError("repro serve did not come up")
            if self.url is None:
                with open(self.log_path, "r", encoding="utf-8") as fh:
                    m = _LISTEN_RE.search(fh.read())
                if m:
                    self.url = f"http://{m.group(1)}:{m.group(2)}"
            if self.url is not None:
                try:
                    ServiceClient(self.url, timeout=2.0).healthz()
                    break
                except ReproError:
                    pass
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """The server process's high-water RSS (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        try:
            os.remove(self.log_path)
        except FileNotFoundError:
            pass


def _adder_netlist() -> Tuple[str, str]:
    from repro import dumps_bench
    from repro.benchlib import build_adder_circuit

    circuit = build_adder_circuit(workloads.SERVICE_ADDER_BITS)
    return circuit.name, dumps_bench(circuit)


class _Loop:
    """Shared state of the closed loop's client threads."""

    def __init__(self, url: str, seed: int, seconds: float, netlist_sha256: str,
                 name: str) -> None:
        self.url = url
        self.seed = seed
        self.seconds = seconds
        self.netlist_sha256 = netlist_sha256
        self.name = name
        self.lock = threading.Lock()
        self.next_cold = 0
        self.cold_done = 0
        self.completed: List[int] = []  # request seeds of finished cold jobs
        self.jobs: List[Dict] = []
        self.t0 = 0.0

    def _finished(self) -> bool:
        elapsed = time.perf_counter() - self.t0
        if elapsed >= _LOOP_DEADLINE_S:  # a broken server must not hang the run
            return True
        return elapsed >= self.seconds and self.cold_done >= workloads.SERVICE_MIN_COLD

    def client(self, index: int, tracer) -> None:
        from repro import SimplifyRequest
        from repro.service import ServiceClient

        client = ServiceClient(self.url, timeout=60.0)
        rng = random.Random(self.seed * 1_000 + index)
        n = 0
        while True:
            with self.lock:
                if self._finished():
                    return
                if n % 2 == 1 and self.completed:
                    kind, request_seed = "hit", rng.choice(self.completed)
                else:
                    kind = "cold"
                    request_seed = workloads.service_request_seed(self.seed, self.next_cold)
                    self.next_cold += 1
            request = SimplifyRequest(seed=request_seed, **workloads.SERVICE_BASE)
            job = {"kind": kind, "seed": request_seed, "state": None}
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    snap = self._submit_wait(client, request)
                else:
                    with tracer.request(f"client{index}-{n}", name="job"):
                        snap = self._submit_wait(client, request)
                job.update(latency_s=time.perf_counter() - t0, state=snap["state"],
                           job_id=snap["job_id"], cached=bool(snap.get("cached")),
                           attempts=int(snap.get("attempts") or 0))
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                job["error"] = repr(exc)
            n += 1
            with self.lock:
                self.jobs.append(job)
                if kind == "cold" and job["state"] == "done":
                    self.cold_done += 1
                    self.completed.append(request_seed)

    def _submit_wait(self, client, request) -> Dict:
        snap = client.submit(request, netlist_sha256=self.netlist_sha256, name=self.name)
        if snap["state"] in ("done", "failed", "cancelled"):
            return snap
        return client.wait(snap["job_id"], timeout=120.0, poll_interval=0.01)


def run(root: str, workdir: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One ``service_mix`` run; returns metrics and the failure list."""
    from repro.service import ServiceClient

    name, netlist = _adder_netlist()
    # The first start and runner import are untimed: they fill the
    # run's bytecode cache with the standard-library modules they use.
    TimedChild(["import-runner"], root, 60.0)
    setup = []
    server: Optional[Server] = None
    for k in range(1 + workloads.SETUP_SAMPLES):
        if server is not None:
            server.stop()
        server = Server(root, os.path.join(workdir, f"svc-{k}"))
        if k:
            setup.append(server.setup_s)

    tracer = restore = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    # The netlist is uploaded once and jobs name it by digest.  Inline
    # netlists race in the server: concurrent first submissions of one
    # netlist share the temp file <sha>.bench.tmp.<pid> in
    # SimplifyService.store_netlist, and the loser fails with ENOENT.
    sha = ServiceClient(server.url, timeout=60.0).upload_netlist(netlist)
    loop = _Loop(server.url, seed, seconds, sha, name)
    try:
        loop.t0 = time.perf_counter()
        threads = [threading.Thread(target=loop.client, args=(i, tracer))
                   for i in range(workloads.SERVICE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loop_s = time.perf_counter() - loop.t0

        client = ServiceClient(server.url, timeout=60.0)
        failures, outcomes = _collect(client, loop.jobs)
        layer = _service_layer(client, loop.jobs, outcomes) if trace else {}
        peak_rss = server.peak_rss_mb()
    finally:
        if restore is not None:
            restore()
        server.stop()

    cold = [j for j in loop.jobs if j["kind"] == "cold" and j["state"] == "done"]
    hits = [j for j in loop.jobs if j["kind"] == "hit" and j["state"] == "done"]
    # wall_s and the area come from a fixed request list, the first
    # SERVICE_MIN_COLD cold seeds, however many jobs the loop finished;
    # the outcomes of later cold jobs are only compared.
    timed = [workloads.service_request_seed(seed, k) for k in range(workloads.SERVICE_MIN_COLD)]
    extra = sorted({j["seed"] for j in cold} - set(timed))
    payload = json.dumps({
        "name": name, "netlist": netlist,
        "timed": [dict(workloads.SERVICE_BASE, seed=s) for s in timed],
        "extra": [dict(workloads.SERVICE_BASE, seed=s) for s in extra],
    })
    refs = [TimedChild(["reference", "0"], root, 120.0, stdin_text=payload).report]
    if trace:
        refs.append(TimedChild(["reference", "1"], root, 120.0, stdin_text=payload).report)
    for j in cold:
        want = refs[0]["digests"].get(str(j["seed"]))
        if outcomes.get(j["job_id"], {}).get("digest") != want:
            failures.append(f"{j['job_id']}: service outcome differs from in-process run")

    cold_lat = [j["latency_s"] for j in cold]
    hit_lat = [j["latency_s"] for j in hits]
    result = {
        "attempted": len(loop.jobs),
        "failed": len(failures),
        "failures": failures,
        "samples": {"cold": len(cold_lat), "hit": len(hit_lat)},
        "metrics": {
            "wall_s": statistics.median(refs[0]["walls_s"]),
            "area_reduction_pct": statistics.fmean(refs[0]["areas"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss,
            "cold_p50_s": statistics.median(cold_lat) if cold_lat else 0.0,
            "cold_p90_s": spec.quantile(cold_lat, 0.9) if cold_lat else 0.0,
            "jobs_per_s": (len(cold) + len(hits)) / loop_s,
        },
    }
    if trace:
        layer["service.hit_p50_s"] = statistics.median(hit_lat) if hit_lat else 0.0
        result["layer"] = layer
        result["reference_spans"] = refs[1]["spans"]
        result["client_spans"] = tracer.spans
        result["untraced_wall_s"] = result["metrics"]["wall_s"]
        result["traced_wall_s"] = refs[1]["walls_s"][0]
    return result


def _collect(client, jobs: List[Dict]) -> Tuple[List[str], Dict[str, Dict]]:
    """Check every job; fetch each cold job's outcome once.

    A job that raised or did not end ``done`` is a failure; a hit must
    return the very outcome document of the cold job it repeats."""
    from checks import outcome_digest

    failures: List[str] = []
    outcomes: Dict[str, Dict] = {}
    text_by_seed: Dict[int, str] = {}
    for j in jobs:
        if j.get("error") or j["state"] != "done":
            failures.append(f"{j['kind']} job seed {j['seed']}: "
                            f"{j.get('error') or j['state']}")
            continue
        text = client.result_json(j["job_id"])
        if j["kind"] == "cold":
            doc = json.loads(text)
            outcomes[j["job_id"]] = {"digest": outcome_digest(doc),
                                     "elapsed_s": float(doc["elapsed_s"])}
            text_by_seed[j["seed"]] = text
    for j in jobs:
        if j["kind"] == "hit" and j["state"] == "done":
            if not j["cached"]:
                failures.append(f"{j['job_id']}: resubmission was not a cache hit")
            elif client.result_json(j["job_id"]) != text_by_seed.get(j["seed"]):
                failures.append(f"{j['job_id']}: cache hit returned another outcome")
    return failures, outcomes


def _service_layer(client, jobs: List[Dict], outcomes: Dict[str, Dict]) -> Dict[str, float]:
    """Service-layer metrics: server histograms, per-attempt overhead."""
    from repro.obs.slo import parse_openmetrics_histograms, quantile_from_buckets

    hist = parse_openmetrics_histograms(client.metrics())

    def p50(family: str) -> float:
        for key, h in hist.items():
            if key.endswith(family):
                return quantile_from_buckets(h["buckets"], 0.5) or 0.0
        return 0.0

    overhead, compute = [], []
    cold = [j for j in jobs if j["kind"] == "cold" and j.get("job_id") in outcomes]
    for j in cold:
        trace = client.trace(j["job_id"])
        attempts = [e for e in trace.get("traceEvents", [])
                    if str(e.get("name", "")).startswith("attempt")
                    and e.get("ph") == "X"]
        if attempts:
            attempt_s = sum(e["dur"] for e in attempts) / 1e6
            elapsed = outcomes[j["job_id"]]["elapsed_s"]
            overhead.append(attempt_s - elapsed)
            compute.append(elapsed)
    done = [j for j in jobs if j["state"] == "done"]
    return {
        "service.overhead_p50_s": statistics.median(overhead) if overhead else 0.0,
        "service.queue_wait_p50_s": p50("queue_wait_seconds"),
        "service.attempt_p50_s": p50("attempt_seconds"),
        "service.compute_p50_s": statistics.median(compute) if compute else 0.0,
        "service.cache_hit_ratio": (sum(1 for j in done if j["cached"]) / len(done)
                                    if done else 0.0),
        "service.attempts_per_job": (sum(j["attempts"] for j in cold) / len(cold)
                                     if cold else 0.0),
    }
