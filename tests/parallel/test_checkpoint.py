"""Checkpoint/resume: a killed run continues bit-identically.

The contract under test: for any prefix of a checkpointed run, resuming
from that prefix produces the same fault sequence, the same final
netlist, and the same final metrics as the uninterrupted run -- the
journal carries everything the greedy loop's state depends on
(committed faults, rejected faults, config, exact threshold).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import GreedyConfig, circuit_simplify, dumps_bench
from repro.obs import Instrumentation
from repro.parallel import (
    CheckpointError,
    load_checkpoint,
    maybe_load_checkpoint,
    resume_from,
)
from tests.conftest import build_c17, build_ripple_adder

_CFG = GreedyConfig(num_vectors=900, seed=4, candidate_limit=60)


def _run(circuit, checkpoint=None, config=_CFG, obs=None):
    return circuit_simplify(
        circuit,
        rs_pct_threshold=6.0,
        config=config,
        checkpoint=checkpoint,
        obs=obs,
    )


def _truncate_after_iterations(path, keep):
    """Rewrite the journal keeping everything up to the keep-th
    iteration event (simulating a death at that point)."""
    kept, seen = [], 0
    with open(path) as fh:
        for line in fh:
            ev = json.loads(line)
            if ev["event"] == "summary":
                break
            kept.append(line)
            if ev["event"] == "iteration":
                seen += 1
                if seen >= keep:
                    break
    assert seen >= keep, f"run had only {seen} iterations"
    with open(path, "w") as fh:
        fh.writelines(kept)


@pytest.fixture(scope="module")
def adder():
    return build_ripple_adder(5)


@pytest.fixture(scope="module")
def reference(adder):
    """The uninterrupted run every resumed variant must reproduce."""
    return _run(adder)


def _assert_identical(resumed, reference):
    assert [str(f) for f in resumed.faults] == [str(f) for f in reference.faults]
    assert dumps_bench(resumed.simplified) == dumps_bench(reference.simplified)
    assert resumed.final_metrics.rs == reference.final_metrics.rs
    assert len(resumed.iterations) == len(reference.iterations)


def test_fresh_run_with_checkpoint_matches_plain(adder, reference, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    res = _run(adder, checkpoint=str(ckpt))
    _assert_identical(res, reference)
    state = load_checkpoint(ckpt)
    assert state.complete
    assert len(state.iteration_events) == len(reference.iterations)


@pytest.mark.parametrize("keep", [1, 2])
def test_truncated_checkpoint_resumes_identically(adder, reference, tmp_path, keep):
    if len(reference.iterations) <= keep:
        pytest.skip("reference run too short to truncate there")
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, keep)
    obs = Instrumentation()
    resumed = _run(adder, checkpoint=str(ckpt), obs=obs)
    _assert_identical(resumed, reference)
    counters = obs.snapshot()["counters"]
    assert counters["checkpoint.resumes"] == 1
    assert counters["checkpoint.replayed_iterations"] == keep
    # the resumed file is a complete, loadable checkpoint again
    state = load_checkpoint(ckpt)
    assert state.complete
    assert state.resumes == 1


def test_torn_final_line_is_tolerated(adder, reference, tmp_path):
    if len(reference.iterations) < 2:
        pytest.skip("reference run too short")
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with open(ckpt, "a") as fh:
        fh.write('{"event": "iteration", "index": 99, "ar')  # torn write
    resumed = _run(adder, checkpoint=str(ckpt))
    _assert_identical(resumed, reference)
    # the torn fragment was cut before appending: every line parses
    with open(ckpt) as fh:
        for line in fh:
            json.loads(line)


def test_complete_checkpoint_short_circuits(adder, reference, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    before = os.path.getsize(ckpt)
    obs = Instrumentation()
    res = _run(adder, checkpoint=str(ckpt), obs=obs)
    _assert_identical(res, reference)
    assert os.path.getsize(ckpt) == before  # nothing re-ran, nothing appended
    assert obs.snapshot()["counters"]["checkpoint.already_complete"] == 1


def test_resume_from_adopts_checkpoint_config(adder, reference, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    if len(reference.iterations) > 1:
        _truncate_after_iterations(ckpt, 1)
    res = resume_from(adder, ckpt)  # no config given: header's is used
    _assert_identical(res, reference)
    assert res.config == _CFG


@pytest.mark.parametrize("with_config", [False, True])
def test_legacy_engine_header_resumes_identically(
    adder, reference, tmp_path, with_config
):
    """Checkpoints from builds with a simulation-engine switch journal
    ``"engine"`` in the header config; they still resume, with or
    without an explicit config, to the uninterrupted result."""
    ckpt = tmp_path / "legacy.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with open(ckpt) as fh:
        lines = fh.readlines()
    header = json.loads(lines[0])
    assert header["event"] == "run_start" and "engine" not in header["config"]
    header["config"]["engine"] = "python"
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    with open(ckpt, "w") as fh:
        fh.writelines(lines)
    if with_config:
        res = _run(adder, checkpoint=str(ckpt))
    else:
        res = resume_from(adder, ckpt)
    _assert_identical(res, reference)
    assert res.config == _CFG


def test_resume_with_prepass_checkpoint(tmp_path):
    """A run killed after the redundancy prepass resumes identically
    (the prepass is not re-run; its netlist is the structural
    reference)."""
    from repro.benchlib import ISCAS85_SUITE

    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(
        num_vectors=600, seed=0, candidate_limit=30, max_iterations=2,
        atpg_node_limit=400, redundancy_prepass=True,
        prepass_backtrack_limit=200,
    )
    ref = circuit_simplify(circuit, rs_pct_threshold=1.0, config=cfg)
    prepass_count = sum(1 for r in ref.iterations if r.phase == "prepass")
    assert prepass_count, "expected the c880 prepass to remove redundancies"
    ckpt = tmp_path / "run.jsonl"
    circuit_simplify(circuit, rs_pct_threshold=1.0, config=cfg, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, prepass_count)
    resumed = circuit_simplify(
        circuit, rs_pct_threshold=1.0, config=cfg, checkpoint=str(ckpt)
    )
    _assert_identical(resumed, ref)


# ----------------------------------------------------------------------
# validation and error paths
# ----------------------------------------------------------------------
def test_maybe_load_missing_and_empty(tmp_path):
    assert maybe_load_checkpoint(tmp_path / "nope.jsonl") is None
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    assert maybe_load_checkpoint(empty) is None


def test_maybe_load_only_torn_first_line(tmp_path):
    """Death inside the very first write: nothing committed, start fresh."""
    p = tmp_path / "torn.jsonl"
    p.write_text('{"event": "run_st')
    assert maybe_load_checkpoint(p) is None


def test_load_rejects_headerless_file(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"event": "rejection", "index": 0, "fault": "x SA0", '
        '"reason": "rs_exceeded"}\n'
    )
    with pytest.raises(CheckpointError, match="run_start"):
        load_checkpoint(p)


def test_resume_tolerates_renamed_circuit(adder, reference, tmp_path):
    """A .bench round-trip renames the circuit (load_bench uses the
    file stem); resume must still work on the structurally identical
    netlist, warning about the cosmetic name change."""
    import logging

    from repro.circuit import dump_bench, load_bench

    if len(reference.iterations) < 2:
        pytest.skip("reference run too short")
    bench = tmp_path / "other_name.bench"
    dump_bench(adder, bench)
    reloaded = load_bench(bench)
    assert reloaded.name != adder.name
    # .bench carries no weights; restore them (signal names survive)
    reloaded.output_weights = dict(adder.output_weights)
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    # capture on the module logger directly: the CLI may have switched
    # the repro logging tree to propagate=False, which blinds caplog
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    ckpt_logger = logging.getLogger("repro.parallel.checkpoint")
    ckpt_logger.addHandler(handler)
    try:
        resumed = resume_from(reloaded, ckpt)
    finally:
        ckpt_logger.removeHandler(handler)
    assert [str(f) for f in resumed.faults] == [
        str(f) for f in reference.faults
    ]
    # same netlist up to the name line and topological tie-breaking
    # (the .bench round-trip reorders insertion order)
    assert sorted(dumps_bench(resumed.simplified).splitlines()[1:]) == sorted(
        dumps_bench(reference.simplified).splitlines()[1:]
    )
    assert resumed.final_metrics.rs == reference.final_metrics.rs
    assert any("circuit name" in r.getMessage() for r in records)


def test_resume_rejects_wrong_circuit(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with pytest.raises(CheckpointError, match="does not match this circuit"):
        resume_from(build_c17(), ckpt)


def test_resume_rejects_mismatched_config(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    other = GreedyConfig(num_vectors=901, seed=4, candidate_limit=60)
    with pytest.raises(CheckpointError, match="config does not match"):
        _run(adder, checkpoint=str(ckpt), config=other)


def test_resume_rejects_mismatched_threshold(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with pytest.raises(CheckpointError, match="threshold"):
        circuit_simplify(
            adder, rs_pct_threshold=3.0, config=_CFG, checkpoint=str(ckpt)
        )


def test_replay_rejects_tampered_trajectory(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, checkpoint=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    lines = ckpt.read_text().splitlines(True)
    events = [json.loads(l) for l in lines]
    for i, ev in enumerate(events):
        if ev["event"] == "iteration":
            ev["area_after"] -= 1  # journal no longer matches the engine
            lines[i] = json.dumps(ev) + "\n"
            break
    ckpt.write_text("".join(lines))
    with pytest.raises(CheckpointError, match="diverged"):
        resume_from(adder, ckpt)


# ----------------------------------------------------------------------
# the real thing: SIGKILL mid-run, then resume
# ----------------------------------------------------------------------
_CHILD = textwrap.dedent(
    """
    import sys
    from repro import GreedyConfig, circuit_simplify
    from repro.benchlib import ISCAS85_SUITE

    ckpt = sys.argv[1]
    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(num_vectors=1000, seed=0, candidate_limit=40,
                       max_iterations=6, atpg_node_limit=400)
    circuit_simplify(circuit, rs_pct_threshold=2.0, config=cfg,
                     checkpoint=ckpt)
    """
)


def _iteration_events(path):
    count = 0
    try:
        with open(path) as fh:
            for line in fh:
                try:
                    if json.loads(line).get("event") == "iteration":
                        count += 1
                except ValueError:
                    pass  # torn tail mid-write
    except FileNotFoundError:
        pass
    return count


def test_sigkill_and_resume_matches_uninterrupted(tmp_path):
    from repro.benchlib import ISCAS85_SUITE

    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(
        num_vectors=1000, seed=0, candidate_limit=40,
        max_iterations=6, atpg_node_limit=400,
    )
    reference = circuit_simplify(circuit, rs_pct_threshold=2.0, config=cfg)
    assert len(reference.iterations) >= 2, "need a multi-commit run to kill"

    ckpt = tmp_path / "killed.jsonl"
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, str(script), str(ckpt)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = False
    try:
        deadline = time.time() + 300
        while time.time() < deadline:
            if child.poll() is not None:
                break  # finished before we could kill it -- still valid
            if _iteration_events(ckpt) >= 2:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
                killed = True
                break
            time.sleep(0.05)
        else:
            pytest.fail("child neither progressed nor finished in time")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    resumed = circuit_simplify(
        circuit, rs_pct_threshold=2.0, config=cfg, checkpoint=str(ckpt)
    )
    _assert_identical(resumed, reference)
    state = load_checkpoint(ckpt)
    assert state.complete
    if killed:
        assert state.resumes == 1


def test_sigkill_run_resumes_from_journaled_config(tmp_path):
    """SIGKILL a run after its first commit, then resume with no config:
    the config journaled in the header must carry the run on to the
    uninterrupted fault sequence."""
    from repro.benchlib import ISCAS85_SUITE

    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(
        num_vectors=1000, seed=0, candidate_limit=40,
        max_iterations=6, atpg_node_limit=400,
    )
    reference = circuit_simplify(circuit, rs_pct_threshold=2.0, config=cfg)
    assert len(reference.iterations) >= 2, "need a multi-commit run to kill"

    ckpt = tmp_path / "killed.jsonl"
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, str(script), str(ckpt)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 300
        while time.time() < deadline:
            if child.poll() is not None:
                break  # finished before we could kill it -- still valid
            if _iteration_events(ckpt) >= 1:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
                break
            time.sleep(0.05)
        else:
            pytest.fail("child neither progressed nor finished in time")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    resumed = resume_from(circuit, ckpt)
    assert resumed.config == cfg
    _assert_identical(resumed, reference)
    state = load_checkpoint(ckpt)
    assert state.complete
