"""Run journal: schema, durability (readable prefix), golden run, CLI parity."""

import json
import os

import pytest

from repro.obs import (
    JOURNAL_VERSION,
    REQUIRED_KEYS,
    JournalError,
    RunJournal,
    load_journal,
    read_journal,
    render_report,
    validate_event,
)
from repro.simplify import GreedyConfig, circuit_simplify

from tests.conftest import build_c17

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_c17_journal.json")

#: Keys whose values depend on wall-clock or environment, stripped
#: before comparing a journal against the golden run.
VOLATILE_KEYS = frozenset({"phase_times", "counters", "elapsed_s", "timers", "gauges"})


def _header(circuit="x", **over):
    ev = {
        "event": "run_start",
        "version": JOURNAL_VERSION,
        "circuit": circuit,
        "num_inputs": 2,
        "num_outputs": 1,
        "area": 3,
        "rs_threshold": 0.5,
        "rs_max": 2.0,
        "seed": 0,
        "num_vectors": 4,
        "config": {},
    }
    ev.update(over)
    return ev


def _iteration(index=0, **over):
    ev = {
        "event": "iteration",
        "index": index,
        "phase": "greedy",
        "fault": "G1 s-a-0",
        "area_before": 3,
        "area_after": 2,
        "er": 0.25,
        "es": 1,
        "observed_es": 1,
        "rs": 0.25,
        "delta_er": 0.25,
        "delta_es": 1,
        "delta_rs": 0.25,
        "fom": 4.0,
        "candidates_evaluated": 7,
    }
    ev.update(over)
    return ev


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def test_validate_accepts_complete_events():
    for ev in (_header(), _iteration()):
        assert validate_event(ev) is ev


@pytest.mark.parametrize("etype", sorted(REQUIRED_KEYS))
def test_validate_rejects_each_missing_required_key(etype):
    complete = {k: 0 for k in REQUIRED_KEYS[etype]}
    complete["event"] = etype
    validate_event(complete)
    for key in REQUIRED_KEYS[etype]:
        if key == "event":
            continue
        broken = dict(complete)
        del broken[key]
        with pytest.raises(JournalError, match=key):
            validate_event(broken)


def test_validate_rejects_newer_schema_version():
    """A journal written by a newer build fails with a clear error in
    every reader (load, report, compare, resume) -- never a KeyError."""
    with pytest.raises(
        JournalError,
        match=f"unsupported journal schema version {JOURNAL_VERSION + 1}",
    ):
        validate_event(_header(version=JOURNAL_VERSION + 1))
    with pytest.raises(JournalError, match="upgrade repro"):
        validate_event({"event": "resume", "version": 99,
                        "replayed_iterations": 0, "area": 1, "rs": 0.0})
    # older versions still load (forward-reading is fine)
    assert validate_event(_header(version=1))


@pytest.mark.parametrize("version", ["2", 2.0, None, True])
def test_validate_rejects_non_integer_version(version):
    with pytest.raises(JournalError, match="non-integer schema version"):
        validate_event(_header(version=version))


def test_newer_version_rejected_by_file_readers(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(json.dumps(_header(version=JOURNAL_VERSION + 5)) + "\n")
    with pytest.raises(JournalError, match="unsupported journal schema version"):
        load_journal(path)
    from repro.obs import compare_files, report_from_file

    with pytest.raises(JournalError, match="unsupported journal schema version"):
        report_from_file(path)
    with pytest.raises(JournalError, match="unsupported journal schema version"):
        compare_files(path, path)


def test_validate_rejects_unknown_type_and_non_dict():
    with pytest.raises(JournalError, match="unknown"):
        validate_event({"event": "wat"})
    with pytest.raises(JournalError, match="object"):
        validate_event(["not", "a", "dict"])


def test_emit_read_roundtrip(tmp_path):
    path = tmp_path / "run.jsonl"
    events = [_header(), _iteration(0), _iteration(1, fault="G3 s-a-1", area_after=1)]
    with RunJournal(path) as j:
        for ev in events:
            j.emit(ev)
        assert j.events_written == 3
    assert j.closed
    assert load_journal(path, strict=True) == events


def test_emit_rejects_bad_event_and_closed_journal(tmp_path):
    j = RunJournal(tmp_path / "run.jsonl")
    with pytest.raises(JournalError):
        j.emit({"event": "iteration"})  # missing keys: nothing written
    j.emit(_header())
    j.close()
    with pytest.raises(JournalError, match="closed"):
        j.emit(_header())
    assert load_journal(tmp_path / "run.jsonl") == [_header()]


# ----------------------------------------------------------------------
# durability: interrupted runs keep a readable prefix
# ----------------------------------------------------------------------
def test_torn_final_line_tolerated_non_strict_only(tmp_path):
    path = tmp_path / "run.jsonl"
    events = [_header(), _iteration(0)]
    with RunJournal(path) as j:
        for ev in events:
            j.emit(ev)
    # Simulate a kill mid-write: a partial line with no trailing newline.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"event":"iteration","index":1,"ar')
    assert load_journal(path) == events
    with pytest.raises(JournalError, match="line 3"):
        load_journal(path, strict=True)


def test_midfile_garbage_raises_even_non_strict(tmp_path):
    path = tmp_path / "run.jsonl"
    lines = [json.dumps(_header()), "{{{not json", json.dumps(_iteration(0))]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="line 2"):
        load_journal(path)


def test_complete_final_line_with_newline_is_never_torn(tmp_path):
    # A schema-invalid but *complete* (newline-terminated) final line is
    # corruption, not an interrupt artifact: non-strict must still raise.
    path = tmp_path / "run.jsonl"
    path.write_text(json.dumps(_header()) + "\n" + '{"event":"wat"}' + "\n")
    with pytest.raises(JournalError, match="line 2"):
        load_journal(path)


def test_read_journal_is_lazy_and_skips_blank_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(json.dumps(_header()) + "\n\n" + json.dumps(_iteration(0)) + "\n")
    it = read_journal(path)
    assert next(it)["event"] == "run_start"
    assert next(it)["event"] == "iteration"
    with pytest.raises(StopIteration):
        next(it)


# ----------------------------------------------------------------------
# end to end: circuit_simplify --journal
# ----------------------------------------------------------------------
def _run_c17(tmp_path):
    path = tmp_path / "c17.jsonl"
    cfg = GreedyConfig(
        exhaustive=True,
        seed=0,
        candidate_limit=None,
        datapath_only=False,
        redundancy_prepass=True,
    )
    result = circuit_simplify(
        build_c17(), rs_pct_threshold=10.0, config=cfg, journal=path
    )
    return path, result


def _normalized(events):
    return [
        {k: v for k, v in ev.items() if k not in VOLATILE_KEYS} for ev in events
    ]


def test_c17_journal_matches_golden(tmp_path):
    """Fixed-seed exhaustive c17 run reproduces the checked-in journal.

    Volatile keys (wall times, counter snapshots) are stripped; every
    deterministic field -- the run header, each committed fault with its
    exact ER/ES/RS trajectory, and the summary totals -- must match
    byte-for-byte.  Regenerate with
    ``python tests/obs/regen_golden.py`` after an intentional change.
    """
    path, _result = _run_c17(tmp_path)
    got = _normalized(load_journal(path, strict=True))
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        want = json.load(fh)
    assert got == want


def test_journal_agrees_with_greedy_result(tmp_path):
    """Every journal iteration mirrors the in-memory IterationRecord."""
    path, result = _run_c17(tmp_path)
    events = load_journal(path, strict=True)
    iters = [e for e in events if e["event"] == "iteration"]
    assert len(iters) == len(result.iterations)
    for ev, rec in zip(iters, result.iterations):
        assert ev["fault"] == str(rec.fault)
        assert ev["phase"] == rec.phase
        assert ev["area_before"] == rec.area_before
        assert ev["area_after"] == rec.area_after
        assert ev["er"] == rec.metrics.er
        assert ev["es"] == rec.metrics.es
        assert ev["rs"] == rec.metrics.rs
    summary = events[-1]
    assert summary["event"] == "summary"
    assert summary["iterations"] == len(result.iterations)
    assert summary["area_after"] == result.simplified.area()
    assert summary["area_reduction_pct"] == result.area_reduction_pct
    assert summary["final_rs"] == result.final_metrics.rs
    # deltas telescope back to the final metrics
    assert sum(e["delta_rs"] for e in iters) == pytest.approx(iters[-1]["rs"])
    # the report renders a real phase-time breakdown from this journal
    report = render_report(events)
    assert "=== phase times ===" in report
    assert "greedy" in report


def test_c880_journal_matches_result_and_report_renders(tmp_path):
    """Acceptance: fixed-seed c880 journal mirrors the GreedyResult
    exactly (per-iteration RS and area) and the report renders a
    phase-time breakdown from it."""
    from repro.benchlib import ISCAS85_SUITE

    path = tmp_path / "c880.jsonl"
    cfg = GreedyConfig(
        num_vectors=500,
        seed=0,
        candidate_limit=20,
        max_iterations=12,
        atpg_node_limit=200,
    )
    result = circuit_simplify(
        ISCAS85_SUITE["c880"].builder(),
        rs_pct_threshold=0.5,
        config=cfg,
        journal=path,
    )
    events = load_journal(path, strict=True)
    iters = [e for e in events if e["event"] == "iteration"]
    assert result.iterations, "expected the greedy loop to commit on c880"
    assert len(iters) == len(result.iterations)
    for ev, rec in zip(iters, result.iterations):
        assert ev["rs"] == rec.metrics.rs
        assert ev["area_before"] == rec.area_before
        assert ev["area_after"] == rec.area_after
        assert ev["fault"] == str(rec.fault)
    report = render_report(events)
    assert "=== phase times ===" in report
    assert "status: complete" in report
    for phase in ("greedy", "greedy/rank", "greedy/commit"):
        assert phase in report


def test_journal_accepts_open_runjournal_and_leaves_it_open(tmp_path):
    path = tmp_path / "managed.jsonl"
    journal = RunJournal(path)
    circuit_simplify(
        build_c17(),
        rs_pct_threshold=5.0,
        config=GreedyConfig(exhaustive=True, seed=0, datapath_only=False),
        journal=journal,
    )
    assert not journal.closed  # caller-owned handle stays open
    journal.close()
    events = load_journal(path, strict=True)
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "summary"


# ----------------------------------------------------------------------
# forward compatibility: unknown event types are skipped, not fatal
# ----------------------------------------------------------------------
def _mixed_journal(tmp_path):
    """A valid run journal with two future-typed events interleaved."""
    path = tmp_path / "mixed.jsonl"
    events = [
        _header(circuit="c17"),
        {"event": "future_marker", "payload": {"anything": True}},
        _iteration(0),
        {"event": "gpu_telemetry", "sm_util": 0.93},
        _iteration(1, fault="G3 s-a-1", area_after=1),
        {
            "event": "summary",
            "iterations": 2,
            "faults_injected": 2,
            "area_before": 3,
            "area_after": 1,
            "area_reduction_pct": 66.7,
            "final_er": 0.25,
            "final_es": 1,
            "final_rs": 0.25,
            "elapsed_s": 0.5,
            "timers": {"greedy": {"total_s": 0.5, "count": 1}},
            "counters": {},
            "gauges": {},
        },
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")
    return path


def test_skip_unknown_drops_future_events_only(tmp_path):
    path = _mixed_journal(tmp_path)
    with pytest.raises(JournalError, match="unknown"):
        load_journal(path)
    events = load_journal(path, skip_unknown=True)
    assert [e["event"] for e in events] == [
        "run_start", "iteration", "iteration", "summary",
    ]


def test_report_compare_audit_tolerate_unknown_events(tmp_path, capsys):
    """Satellite regression: every journal consumer must read a
    mixed-event journal written by a newer build of the same schema
    version instead of erroring."""
    from repro.cli import main
    from repro.obs import compare_files, report_from_file
    from repro.obs.quality import audit_file

    path = _mixed_journal(tmp_path)
    report = report_from_file(path)
    assert "status: complete" in report
    cmp_result = compare_files(path, path)
    assert cmp_result["first_divergence"] is None
    audit = audit_file(path)
    assert audit["iterations"]
    assert main(["report", str(path)]) == 0
    assert main(["profile", str(path)]) == 0
    capsys.readouterr()


def test_skip_unknown_does_not_mask_malformed_events(tmp_path):
    """Only *well-formed dicts with an unknown type* are skipped; a
    known type with missing keys still fails validation."""
    path = tmp_path / "broken.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header()) + "\n")
        fh.write(json.dumps({"event": "telemetry", "t_s": 0.1}) + "\n")
    with pytest.raises(JournalError, match="missing required keys"):
        load_journal(path, skip_unknown=True)
