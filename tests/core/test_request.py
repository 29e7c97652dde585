"""SimplifyRequest: construction, serialization, config derivation."""

import argparse
import json

import pytest

from repro import (
    SCHEMA_VERSION,
    GreedyConfig,
    InvalidRequestError,
    SimplifyRequest,
    UnsupportedSchemaVersionError,
)


def test_json_round_trip():
    req = SimplifyRequest(
        rs_pct_threshold=2.5,
        fom="area",
        num_vectors=4096,
        seed=7,
        candidate_limit=None,
        pow2_es=True,
        redundancy_prepass=True,
        weights="binary",
        workers=4,
        checkpoint="run.ckpt.jsonl",
        journal="run.journal.jsonl",
    )
    text = req.to_json()
    assert SimplifyRequest.from_json(text) == req
    # the JSON is a flat object a shell script can inspect
    data = json.loads(text)
    assert data["rs_pct_threshold"] == 2.5
    assert data["workers"] == 4
    assert data["checkpoint"] == "run.ckpt.jsonl"


def test_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown request field"):
        SimplifyRequest.from_json('{"rs_threshold": 1.0, "turbo": true}')
    with pytest.raises(ValueError):
        SimplifyRequest.from_json("[1, 2]")


def test_from_json_validates():
    with pytest.raises(ValueError):
        SimplifyRequest.from_json('{"fom": "best"}')  # no threshold


def test_greedy_config_mirror():
    req = SimplifyRequest(
        rs_threshold=3.0,
        fom="best",
        num_vectors=1234,
        seed=9,
        es_mode="simulated",
        candidate_limit=17,
        use_batch_ranking=False,
        datapath_only=False,
        include_branches=False,
        max_iterations=55,
        atpg_node_limit=999,
        exhaustive=True,
        pow2_es=True,
        redundancy_prepass=True,
        prepass_backtrack_limit=77,
    )
    cfg = req.greedy_config("area")
    assert cfg == GreedyConfig(
        fom="area",
        num_vectors=1234,
        seed=9,
        es_mode="simulated",
        candidate_limit=17,
        use_batch_ranking=False,
        datapath_only=False,
        include_branches=False,
        max_iterations=55,
        atpg_node_limit=999,
        exhaustive=True,
        pow2_es=True,
        redundancy_prepass=True,
        prepass_backtrack_limit=77,
    )
    # "best" is a policy, not a greedy FOM: it resolves to a real one
    assert req.greedy_config().fom == "area_per_rs"


def test_from_config_round_trip():
    cfg = GreedyConfig(fom="area", num_vectors=2000, seed=5, pow2_es=True)
    req = SimplifyRequest.from_config(cfg, rs_threshold=1.5)
    assert req.fom == "area"
    assert req.greedy_config() == cfg
    # overrides win
    assert SimplifyRequest.from_config(cfg, rs_threshold=1.5, fom="best").fom == "best"


def test_from_cli_args():
    ns = argparse.Namespace(
        rs=None,
        rs_pct=1.0,
        fom="best",
        vectors=2048,
        seed=3,
        candidate_limit=50,
        no_prepass=True,
        pow2_es=True,
        weights="binary",
        workers=2,
        checkpoint="ck.jsonl",
        journal=None,
    )
    req = SimplifyRequest.from_cli_args(ns)
    assert req.rs_pct_threshold == 1.0
    assert req.rs_threshold is None
    assert req.fom == "best"
    assert req.num_vectors == 2048
    assert req.redundancy_prepass is False  # --no-prepass
    assert req.workers == 2
    assert req.checkpoint == "ck.jsonl"


def test_schema_version_in_wire_form():
    req = SimplifyRequest(rs_threshold=1.0)
    data = req.to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    assert SimplifyRequest.from_dict(data) == req


def test_schema_version_accepts_older_and_absent():
    data = SimplifyRequest(rs_threshold=1.0).to_dict()
    # a pre-versioned writer (no marker) is read as v1
    unversioned = dict(data)
    del unversioned["schema_version"]
    assert SimplifyRequest.from_dict(unversioned) == SimplifyRequest.from_dict(data)
    # v1 is the oldest version; anything <= current must load
    for version in range(1, SCHEMA_VERSION + 1):
        assert SimplifyRequest.from_dict({**data, "schema_version": version})


def test_schema_version_rejects_newer():
    data = SimplifyRequest(rs_threshold=1.0).to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(UnsupportedSchemaVersionError, match="upgrade repro"):
        SimplifyRequest.from_dict(data)
    # the rejection names both versions, so the operator knows the gap
    with pytest.raises(UnsupportedSchemaVersionError, match=str(SCHEMA_VERSION)):
        SimplifyRequest.from_dict(data)


def test_schema_version_rejects_garbage():
    data = SimplifyRequest(rs_threshold=1.0).to_dict()
    for bad in ("2", 2.0, True, 0, -1):
        with pytest.raises(ValueError):
            SimplifyRequest.from_dict({**data, "schema_version": bad})


def test_fingerprint_ignores_non_semantic_fields():
    base = SimplifyRequest(rs_pct_threshold=2.0, seed=3)
    same = base.replace(
        workers=8, checkpoint="ck.jsonl", journal="j.jsonl", telemetry_interval=1.0
    )
    assert base.fingerprint() == same.fingerprint()
    # semantic fields do move the digest
    assert base.fingerprint() != base.replace(seed=4).fingerprint()
    assert base.fingerprint() != base.replace(fom="area").fingerprint()


def test_replace_revalidates():
    req = SimplifyRequest(rs_threshold=1.0)
    assert req.replace(seed=42).seed == 42
    with pytest.raises(ValueError):
        req.replace(fom="bogus")


@pytest.mark.parametrize("engine", ["auto", "compiled", "python", None])
def test_legacy_engine_field_is_dropped(engine):
    """Stored requests from builds with a simulation-engine switch still
    load: a once-valid ``engine`` is dropped and does not move the
    fingerprint (the compiled kernel was bit-identical to every
    engine it replaced)."""
    data = SimplifyRequest(rs_pct_threshold=2.0, seed=3).to_dict()
    legacy = SimplifyRequest.from_json(json.dumps({**data, "engine": engine}))
    assert legacy == SimplifyRequest.from_dict(data)
    assert legacy.fingerprint() == SimplifyRequest.from_dict(data).fingerprint()
    assert "engine" not in legacy.to_dict()


def test_legacy_engine_field_still_validated():
    data = SimplifyRequest(rs_pct_threshold=2.0).to_dict()
    with pytest.raises(InvalidRequestError, match="engine"):
        SimplifyRequest.from_dict({**data, "engine": "turbo"})
