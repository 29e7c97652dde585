"""Concurrent atomic writers: many threads replacing one target file.

The job server stores netlists and cache entries from the threads of a
``ThreadingHTTPServer`` (and from its worker pool), so several threads
routinely write the same content-addressed path at once.  Each writer
must use its own temp file: none may raise, the target must hold the
complete text, and no temp file may be left behind.
"""

import os
import sys
import threading

from repro import dumps_bench
from repro.benchlib import ISCAS85_SUITE
from repro.service.cache import ResultCache
from repro.service.server import SimplifyService

THREADS = 8
ROUNDS = 20


def _race(write, rounds=ROUNDS):
    """Run ``write(round)`` on every thread at once, round after round,
    with a short switch interval to interleave the writers; return the
    exceptions raised."""
    errors = []
    barrier = threading.Barrier(THREADS, timeout=60)

    def worker():
        for r in range(rounds):
            barrier.wait()
            try:
                write(r)
            except Exception as exc:  # collected, asserted empty below
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def _temp_files(directory):
    return [name for name in os.listdir(directory) if ".tmp" in name]


def test_concurrent_store_netlist(tmp_path):
    service = SimplifyService(str(tmp_path / "data"), workers=1)
    base = dumps_bench(ISCAS85_SUITE["c7552"].builder())
    # a fresh text per round, so every round races on a first write
    texts = [f"{base}# round {r}\n" for r in range(ROUNDS)]
    try:
        errors = _race(lambda r: service.store_netlist(texts[r]))
        assert errors == []
        assert _temp_files(service.netlists_dir) == []
        assert len(os.listdir(service.netlists_dir)) == ROUNDS
        for text in texts:
            sha = service.store_netlist(text)
            assert service.netlist_text(sha) == text
    finally:
        service.stop()


def test_concurrent_result_cache_put(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    doc = '{"outcome": "' + "x" * 500_000 + '"}'
    errors = _race(lambda r: cache.put("k", doc))
    assert errors == []
    assert _temp_files(cache.root) == []
    assert os.listdir(cache.root) == ["k.json"]
    assert cache.get("k") == doc + "\n"
