"""Top-level orchestration API.

The one-call entry point is a :class:`SimplifyRequest` -- a frozen,
JSON-serializable description of *everything* a simplification run
needs (budget, estimator knobs, FOM policy, parallelism, durability) --
whose :meth:`~SimplifyRequest.run` method returns a
:class:`SimplifyOutcome` wrapping the winning
:class:`~repro.simplify.greedy.GreedyResult` with report / verify /
save helpers::

    outcome = SimplifyRequest(rs_pct_threshold=1.0).run(circuit)
    print(outcome.report())
    outcome.save("approx.bench")

``fom="best"`` (the default) reproduces the paper's experimental
methodology: both figures of merit are tried and the better result is
kept ("we use FOM as (area reduction/RS) or (area reduction) and
report better result").  When the first FOM run exhausts the RS budget
exactly, the second run is skipped (counter
``api.fom_runs_skipped``): no further commit could be accepted, so
re-running cannot find a larger reduction.

Both payloads carry a ``schema_version`` field in their JSON forms
(:data:`SCHEMA_VERSION`).  Readers accept the current version and
older ones and reject payloads written by a *newer* schema with a
clear upgrade error -- the same policy the run journal uses -- so a
stored request/outcome is always either readable or loudly
unreadable, never silently misread.  Validation failures raise
:class:`~repro.core.errors.InvalidRequestError` (a
:class:`ValueError` subclass) from the typed error taxonomy
(:mod:`repro.core.errors`).

The pre-1.0 keyword API (``simplify_for_error_tolerance``, deprecated
since 1.0) has been removed; see README.md for the migration table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..circuit import Circuit, dump_bench, dumps_bench, loads_bench
from ..metrics.errors import ErrorMetrics, rs_max
from ..metrics.estimate import MetricsEstimator
from ..obs.core import get_active
from ..simplify.greedy import (
    GreedyConfig,
    GreedyResult,
    IterationRecord,
    circuit_simplify,
)
from .errors import InvalidRequestError, UnsupportedSchemaVersionError

__all__ = [
    "SCHEMA_VERSION",
    "SimplifyRequest",
    "SimplifyOutcome",
    "simplify",
    "verify_simplification",
    "format_report",
]

#: Version of the JSON wire schema shared by :class:`SimplifyRequest`
#: and :class:`SimplifyOutcome`.  Bump it when a round-trip field is
#: added or its meaning changes; readers accept <= this and reject >.
#: v2 added the optional ``trace_id`` correlation field.
SCHEMA_VERSION = 2

#: Request fields that do not change the mathematical outcome of a run
#: -- durability paths, parallelism/sampling knobs (parallel runs are
#: bit-identical to serial ones) and the correlation id.  They are
#: excluded from :meth:`SimplifyRequest.fingerprint`, so two
#: submissions differing only here share one result-cache entry.
_NON_SEMANTIC_FIELDS = (
    "workers",
    "checkpoint",
    "journal",
    "telemetry_interval",
    "trace_id",
)

#: Correlation-id charset: URL- and filename-safe, boundable in logs.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._\-]{1,128}$")


def _check_schema_version(what: str, version: Any) -> None:
    """Enforce the shared accept-current-and-older version policy.

    ``None`` (a payload written before the field existed) is treated
    as version 1 -- the wire shape is unchanged, only the marker is
    new -- so pre-1.1 stored requests stay loadable.
    """
    if version is None:
        return
    if not isinstance(version, int) or isinstance(version, bool):
        raise InvalidRequestError(
            f"{what} has a non-integer schema_version {version!r}"
        )
    if version < 1:
        raise InvalidRequestError(
            f"{what} has an invalid schema_version {version}"
        )
    if version > SCHEMA_VERSION:
        raise UnsupportedSchemaVersionError(
            f"unsupported {what} schema_version {version} "
            f"(this build reads up to v{SCHEMA_VERSION}); "
            f"upgrade repro to read this {what}"
        )


def _circuit_to_dict(circuit: Circuit) -> Dict[str, Any]:
    """JSON form of a circuit: bench text plus the annotations the
    ``.bench`` format cannot carry (weights, data flags)."""
    return {
        "name": circuit.name,
        "bench": dumps_bench(circuit),
        "output_weights": {o: int(w) for o, w in circuit.output_weights.items()},
        "data_outputs": list(circuit.data_outputs),
    }


def _circuit_from_dict(data: Dict[str, Any]) -> Circuit:
    try:
        circuit = loads_bench(data["bench"], name=data.get("name", "bench_circuit"))
        for o, w in (data.get("output_weights") or {}).items():
            circuit.output_weights[o] = int(w)
        data_outputs = data.get("data_outputs")
        if data_outputs is not None:
            circuit.data_outputs = [o for o in circuit.outputs if o in set(data_outputs)]
        return circuit
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad circuit payload: {exc}") from exc


def _metrics_to_dict(metrics: Optional[ErrorMetrics]) -> Optional[Dict[str, Any]]:
    if metrics is None:
        return None
    return {
        "er": metrics.er,
        "es": metrics.es,
        "observed_es": metrics.observed_es,
        "rs_maximum": metrics.rs_maximum,
        "num_vectors": metrics.num_vectors,
        "es_mode": metrics.es_mode,
        "es_bound": metrics.es_bound,
    }


def _metrics_from_dict(data: Optional[Dict[str, Any]]) -> Optional[ErrorMetrics]:
    if data is None:
        return None
    try:
        return ErrorMetrics(
            er=float(data["er"]),
            es=int(data["es"]),
            observed_es=int(data["observed_es"]),
            rs_maximum=int(data["rs_maximum"]),
            num_vectors=int(data["num_vectors"]),
            es_mode=str(data["es_mode"]),
            es_bound=None if data.get("es_bound") is None else int(data["es_bound"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad metrics payload: {exc}") from exc


def _iteration_to_dict(rec: IterationRecord) -> Dict[str, Any]:
    from ..parallel.checkpoint import fault_detail

    return {
        "index": rec.index,
        "fault": fault_detail(rec.fault),
        "area_before": rec.area_before,
        "area_after": rec.area_after,
        "metrics": _metrics_to_dict(rec.metrics),
        # JSON has no Infinity literal; the journal uses null for the
        # prepass "free commit" FOM and so does this payload.
        "fom_value": None if math.isinf(rec.fom_value) else rec.fom_value,
        "candidates_evaluated": rec.candidates_evaluated,
        "phase": rec.phase,
    }


def _iteration_from_dict(data: Dict[str, Any]) -> IterationRecord:
    from ..parallel.checkpoint import fault_from_detail

    try:
        return IterationRecord(
            index=int(data["index"]),
            fault=fault_from_detail(data["fault"]),
            area_before=int(data["area_before"]),
            area_after=int(data["area_after"]),
            metrics=_metrics_from_dict(data["metrics"]),
            fom_value=(
                float("inf") if data.get("fom_value") is None
                else float(data["fom_value"])
            ),
            candidates_evaluated=int(data["candidates_evaluated"]),
            phase=str(data.get("phase", "greedy")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad iteration payload: {exc}") from exc

logger = logging.getLogger("repro.core")

_FOMS = ("best", "area", "area_per_rs")
_ES_MODES = ("hybrid", "atpg", "simulated")
_WEIGHTS = ("netlist", "unit", "binary")
#: Values the retired ``engine`` field once accepted.  Stored requests
#: and older clients still send it: a once-valid value is dropped on
#: input, anything else is rejected as before.
_RETIRED_ENGINES = ("auto", "compiled", "python", None)

# GreedyConfig fields that SimplifyRequest mirrors one-to-one.
_GREEDY_FIELDS = (
    "num_vectors",
    "seed",
    "es_mode",
    "candidate_limit",
    "use_batch_ranking",
    "datapath_only",
    "include_branches",
    "max_iterations",
    "atpg_node_limit",
    "exhaustive",
    "pow2_es",
    "redundancy_prepass",
    "prepass_backtrack_limit",
)


@dataclass(frozen=True)
class SimplifyRequest:
    """A complete, immutable description of one simplification run.

    Exactly one of ``rs_threshold`` (absolute) or ``rs_pct_threshold``
    (percent of the circuit's RS_max, as in Table II) must be set.

    ``fom="best"`` runs both paper FOMs and keeps the better result;
    ``"area"`` / ``"area_per_rs"`` pin a single FOM.  The estimator
    knobs mirror :class:`~repro.simplify.greedy.GreedyConfig`
    one-to-one.  ``weights`` controls output weighting applied to a
    *copy* of the circuit before the run: ``"netlist"`` uses the
    circuit as given, ``"unit"`` forces every data output to weight 1,
    ``"binary"`` weighs output bit *i* as ``2**i``.

    ``workers`` shards phase-2 candidate scoring across processes
    (``None`` consults ``REPRO_WORKERS``; see
    :func:`repro.parallel.resolve_workers`); ``checkpoint`` journals
    every committed step so a killed run resumes bit-identically
    (:mod:`repro.parallel.checkpoint`); ``journal`` streams the same
    events to a separate observability file; ``telemetry_interval``
    switches on the background RSS/CPU/throughput sampler
    (:mod:`repro.obs.telemetry`) at that many seconds per sample.

    ``trace_id`` is an opaque correlation id stamped into the run's
    journal header and telemetry events so a service submission can be
    traced into the runner subprocess that executed it.  Like the
    durability fields it is non-semantic: two requests differing only
    in ``trace_id`` share one result-cache entry.

    The request serializes to JSON (:meth:`to_json` /
    :meth:`from_json`) so a run's full configuration can be stored
    next to its outputs and replayed later.
    """

    rs_threshold: Optional[float] = None
    rs_pct_threshold: Optional[float] = None
    fom: str = "best"
    num_vectors: int = 10_000
    seed: int = 0
    es_mode: str = "hybrid"
    candidate_limit: Optional[int] = 200
    use_batch_ranking: bool = True
    datapath_only: bool = True
    include_branches: bool = True
    max_iterations: int = 10_000
    atpg_node_limit: int = 4_000
    exhaustive: bool = False
    pow2_es: bool = False
    redundancy_prepass: bool = False
    prepass_backtrack_limit: int = 500
    weights: str = "netlist"
    workers: Optional[int] = None
    checkpoint: Optional[str] = None
    journal: Optional[str] = None
    telemetry_interval: Optional[float] = None
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.rs_threshold is None) == (self.rs_pct_threshold is None):
            raise InvalidRequestError(
                "give exactly one of rs_threshold / rs_pct_threshold"
            )
        if self.fom not in _FOMS:
            raise InvalidRequestError(
                f"fom must be one of {_FOMS}, got {self.fom!r}"
            )
        if self.es_mode not in _ES_MODES:
            raise InvalidRequestError(
                f"es_mode must be one of {_ES_MODES}, got {self.es_mode!r}"
            )
        if self.weights not in _WEIGHTS:
            raise InvalidRequestError(
                f"weights must be one of {_WEIGHTS}, got {self.weights!r}"
            )
        if self.num_vectors <= 0:
            raise InvalidRequestError("num_vectors must be positive")
        if self.telemetry_interval is not None and self.telemetry_interval <= 0:
            raise InvalidRequestError("telemetry_interval must be positive seconds")
        if self.trace_id is not None and (
            not isinstance(self.trace_id, str)
            or not _TRACE_ID_RE.match(self.trace_id)
        ):
            raise InvalidRequestError(
                f"trace_id must be 1-128 chars of [A-Za-z0-9._-], "
                f"got {self.trace_id!r}"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls, config: GreedyConfig, **overrides: Any
    ) -> "SimplifyRequest":
        """Lift a legacy :class:`GreedyConfig` into a request.

        The config's ``fom`` is kept verbatim (a single-FOM request);
        pass ``fom="best"`` in ``overrides`` for the both-FOMs policy.
        """
        fields: Dict[str, Any] = {k: getattr(config, k) for k in _GREEDY_FIELDS}
        fields["fom"] = config.fom
        fields.update(overrides)
        return cls(**fields)

    @classmethod
    def from_cli_args(cls, args: Any) -> "SimplifyRequest":
        """Build a request from the ``repro simplify`` argparse namespace."""
        return cls(
            rs_threshold=getattr(args, "rs", None),
            rs_pct_threshold=getattr(args, "rs_pct", None),
            fom=getattr(args, "fom", "best"),
            num_vectors=getattr(args, "vectors", 10_000),
            seed=getattr(args, "seed", 0),
            candidate_limit=getattr(args, "candidate_limit", 200),
            exhaustive=getattr(args, "exhaustive", False),
            redundancy_prepass=not getattr(args, "no_prepass", False),
            pow2_es=getattr(args, "pow2_es", False),
            weights=getattr(args, "weights", "netlist"),
            workers=getattr(args, "workers", None),
            checkpoint=getattr(args, "checkpoint", None),
            journal=getattr(args, "journal", None),
            telemetry_interval=getattr(args, "telemetry_interval", None),
            trace_id=getattr(args, "trace_id", None),
        )

    @classmethod
    def from_json(cls, text: str) -> "SimplifyRequest":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(f"request is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Any) -> "SimplifyRequest":
        """Build a request from an already-parsed JSON object.

        ``schema_version`` follows the journal-version policy: absent
        (pre-versioned writers) and <= :data:`SCHEMA_VERSION` are
        accepted, newer versions are rejected with an upgrade hint.
        Unknown keys are rejected -- a field this build has never heard
        of means the payload is newer or wrong, and either way it must
        not be silently dropped.  The retired ``engine`` field is
        dropped when its value was once valid.
        """
        if not isinstance(data, dict):
            raise InvalidRequestError("request JSON must be an object")
        data = dict(data)
        _check_schema_version("request", data.pop("schema_version", None))
        engine = data.pop("engine", None)
        if engine not in _RETIRED_ENGINES:
            raise InvalidRequestError(
                f"engine must be one of {_RETIRED_ENGINES[:-1]}, got {engine!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidRequestError(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidRequestError(f"bad request payload: {exc}") from exc

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "SimplifyRequest":
        """A copy of this request with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def greedy_config(self, fom: Optional[str] = None) -> GreedyConfig:
        """The :class:`GreedyConfig` for one constituent greedy run.

        ``fom="best"`` is a run *policy*, not a greedy FOM; resolving
        it here picks ``"area_per_rs"`` (callers that run both FOMs
        pass each one explicitly).
        """
        resolved = fom if fom is not None else self.fom
        if resolved == "best":
            resolved = "area_per_rs"
        return GreedyConfig(
            fom=resolved, **{k: getattr(self, k) for k in _GREEDY_FIELDS}
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form of this request (versioned)."""
        data = dataclasses.asdict(self)
        for key in ("checkpoint", "journal"):
            if data[key] is not None:
                data[key] = os.fspath(data[key])
        data["schema_version"] = SCHEMA_VERSION
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def fingerprint(self) -> str:
        """Content digest of the *semantic* request fields.

        Durability paths and parallelism knobs
        (:data:`_NON_SEMANTIC_FIELDS`) are excluded: parallel scoring
        is bit-identical to serial scoring and journal paths do not
        change the result, so requests differing only there share one
        result-cache entry.  ``schema_version`` is excluded too -- the
        digest covers run semantics, not wire framing.
        """
        data = dataclasses.asdict(self)
        for key in _NON_SEMANTIC_FIELDS:
            data.pop(key, None)
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def weighted_circuit(self, circuit: Circuit) -> Circuit:
        """The circuit this request actually optimizes.

        ``weights="netlist"`` returns the caller's circuit untouched;
        the other policies re-weight a *copy* (the caller's object is
        never mutated).
        """
        if self.weights == "netlist":
            return circuit
        weighted = circuit.copy()
        for i, o in enumerate(weighted.outputs):
            weighted.output_weights[o] = (1 << i) if self.weights == "binary" else 1
        return weighted

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, obs=None, progress=None) -> "SimplifyOutcome":
        """Execute this request against ``circuit``.

        ``progress`` attaches a live heartbeat sink (usually a
        :class:`~repro.obs.progress.ProgressReporter`); with
        ``fom="best"`` the one reporter spans both constituent runs.
        The caller owns (and closes) the reporter.
        """
        return simplify(circuit, self, obs=obs, progress=progress)


@dataclass
class SimplifyOutcome:
    """The result of running a :class:`SimplifyRequest`.

    Wraps the winning :class:`GreedyResult` (``result``) together with
    the request that produced it, every constituent single-FOM run
    (``runs``, one entry per FOM actually executed) and the wall time.
    Delegation properties expose the common fields directly.
    """

    result: GreedyResult
    request: SimplifyRequest
    elapsed_s: float
    runs: Tuple[Tuple[str, GreedyResult], ...] = ()

    # -- delegation -----------------------------------------------------
    @property
    def original(self) -> Circuit:
        return self.result.original

    @property
    def simplified(self) -> Circuit:
        return self.result.simplified

    @property
    def faults(self):
        return self.result.faults

    @property
    def iterations(self):
        return self.result.iterations

    @property
    def final_metrics(self):
        return self.result.final_metrics

    @property
    def area_reduction(self) -> int:
        return self.result.area_reduction

    @property
    def area_reduction_pct(self) -> float:
        return self.result.area_reduction_pct

    @property
    def winning_fom(self) -> str:
        """The FOM of the constituent run that won."""
        for fom, res in self.runs:
            if res is self.result:
                return fom
        return self.result.config.fom

    # -- helpers --------------------------------------------------------
    def report(self) -> str:
        """Human-readable summary (see :func:`format_report`)."""
        return format_report(self.result)

    def verify(
        self,
        num_vectors: int = 20_000,
        seed: int = 12345,
        exhaustive: bool = False,
    ) -> bool:
        """Independent re-measurement with a fresh vector batch."""
        return verify_simplification(
            self.result,
            num_vectors=num_vectors,
            seed=seed,
            exhaustive=exhaustive,
        )

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the simplified netlist (format from the extension)."""
        path = os.fspath(path)
        if path.endswith((".v", ".sv")):
            from ..circuit import dump_verilog

            dump_verilog(self.result.simplified, path)
        else:
            dump_bench(self.result.simplified, path)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form of this outcome (versioned).

        The winning :class:`GreedyResult` round-trips completely
        (netlists as annotated bench text, faults and iterations
        structurally, like the checkpoint journal); the constituent
        per-FOM runs are summarized rather than duplicated -- each run
        embeds a full circuit pair, and the loser's only queryable
        facts are its headline numbers.
        """
        from ..parallel.checkpoint import fault_detail

        result = self.result
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "SimplifyOutcome",
            "request": self.request.to_dict(),
            "elapsed_s": self.elapsed_s,
            "winning_fom": self.winning_fom,
            "runs": [
                {
                    "fom": fom,
                    "winner": res is result,
                    "area_reduction": res.area_reduction,
                    "area_reduction_pct": res.area_reduction_pct,
                    "iterations": len(res.iterations),
                    "rs": None if res.final_metrics is None else res.final_metrics.rs,
                }
                for fom, res in self.runs
            ],
            "result": {
                "original": _circuit_to_dict(result.original),
                "simplified": _circuit_to_dict(result.simplified),
                "rs_threshold": result.rs_threshold,
                "config": dataclasses.asdict(result.config),
                "faults": [fault_detail(f) for f in result.faults],
                "iterations": [_iteration_to_dict(r) for r in result.iterations],
                "final_metrics": _metrics_to_dict(result.final_metrics),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Any) -> "SimplifyOutcome":
        """Rebuild an outcome from :meth:`to_dict` output.

        The reconstructed object carries the winning run only (``runs``
        holds the one winner), which keeps ``winning_fom``, ``report()``
        ``verify()`` and ``save()`` all working on a loaded outcome.
        """
        from ..parallel.checkpoint import fault_from_detail, greedy_config_from

        if not isinstance(data, dict):
            raise InvalidRequestError("outcome JSON must be an object")
        _check_schema_version("outcome", data.get("schema_version"))
        try:
            res = data["result"]
            result = GreedyResult(
                original=_circuit_from_dict(res["original"]),
                simplified=_circuit_from_dict(res["simplified"]),
                rs_threshold=float(res["rs_threshold"]),
                config=greedy_config_from(res.get("config") or {}),
                faults=[fault_from_detail(d) for d in res.get("faults", [])],
                iterations=[_iteration_from_dict(d) for d in res.get("iterations", [])],
                final_metrics=_metrics_from_dict(res.get("final_metrics")),
            )
            request = SimplifyRequest.from_dict(data["request"])
            winning_fom = data.get("winning_fom") or result.config.fom
            return cls(
                result=result,
                request=request,
                elapsed_s=float(data.get("elapsed_s") or 0.0),
                runs=((winning_fom, result),),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidRequestError):
                raise
            raise InvalidRequestError(f"bad outcome payload: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SimplifyOutcome":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(f"outcome is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def simplify(
    circuit: Circuit, request: SimplifyRequest, obs=None, progress=None
) -> SimplifyOutcome:
    """Run a :class:`SimplifyRequest`: the module-level spelling of
    :meth:`SimplifyRequest.run`."""
    obs = obs if obs is not None else get_active()
    target = request.weighted_circuit(circuit)
    threshold = (
        float(request.rs_threshold)
        if request.rs_threshold is not None
        else float(request.rs_pct_threshold) * rs_max(target) / 100.0
    )
    foms = ("area_per_rs", "area") if request.fom == "best" else (request.fom,)

    t0 = time.perf_counter()
    runs = []
    for fom in foms:
        cfg = request.greedy_config(fom)
        result = circuit_simplify(
            target,
            rs_threshold=threshold,
            config=cfg,
            journal=_per_fom_path(request.journal, fom, foms),
            obs=obs,
            workers=request.workers,
            checkpoint=_per_fom_path(request.checkpoint, fom, foms),
            progress=progress,
            telemetry_interval=request.telemetry_interval,
            trace_id=request.trace_id,
        )
        runs.append((fom, result))
        if len(foms) > 1 and fom != foms[-1] and _budget_exhausted(result, threshold):
            # The run consumed the whole RS budget: no commit the other
            # FOM could propose would be accepted, and re-ranking the
            # same candidates cannot free budget, so the second run is
            # provably redundant.
            obs.incr("api.fom_runs_skipped")
            logger.debug(
                "fom=%s exhausted the RS budget (rs=%s of %s); skipping %s",
                fom,
                result.final_metrics.rs if result.final_metrics else None,
                threshold,
                foms[-1],
            )
            break
    best = max((res for _fom, res in runs), key=lambda r: r.area_reduction)
    return SimplifyOutcome(
        result=best,
        request=request,
        elapsed_s=time.perf_counter() - t0,
        runs=tuple(runs),
    )


def _per_fom_path(
    path: Optional[Union[str, os.PathLike]], fom: str, foms: Tuple[str, ...]
) -> Optional[str]:
    """One journal/checkpoint file per constituent run: suffix the FOM
    when the policy runs more than one."""
    if path is None:
        return None
    path = os.fspath(path)
    return path if len(foms) == 1 else f"{path}.{fom}"


def _budget_exhausted(result: GreedyResult, threshold: float) -> bool:
    """True when the run's final RS equals the threshold (to within
    float noise): zero remaining budget."""
    if result.final_metrics is None:
        return False
    remaining = threshold - result.final_metrics.rs
    return remaining <= 1e-12 * max(1.0, abs(threshold))


def verify_simplification(
    result: GreedyResult,
    num_vectors: int = 20_000,
    seed: int = 12345,
    exhaustive: bool = False,
) -> bool:
    """Independent re-measurement of a simplification result.

    Uses a *fresh* vector batch (different seed than the optimization
    loop) and returns True when the re-measured RS still satisfies the
    threshold.  With ``exhaustive=True`` the check is exact (small
    circuits only).
    """
    est = MetricsEstimator(
        result.original,
        num_vectors=num_vectors,
        seed=seed,
        exhaustive=exhaustive,
    )
    er, observed = est.simulate(approx=result.simplified)
    return er * observed <= result.rs_threshold * (1.0 + 1e-9)


def format_report(result: GreedyResult) -> str:
    """Render a human-readable summary of a simplification run."""
    orig = result.original
    lines = [
        f"circuit: {orig.name}",
        f"  area: {orig.area()} -> {result.simplified.area()} "
        f"({result.area_reduction_pct:.2f}% reduction)",
        f"  depth: {orig.depth()} -> {result.simplified.depth()}",
        f"  RS threshold: {result.rs_threshold:.6g} "
        f"({100 * result.rs_threshold / rs_max(orig):.4g}% of RS_max {rs_max(orig)})",
        f"  faults injected: {len(result.faults)}",
    ]
    if result.final_metrics is not None:
        lines.append(f"  final metrics: {result.final_metrics}")
    for rec in result.iterations:
        lines.append(
            f"    [{rec.index:3d}] {str(rec.fault):30s} area -{rec.area_delta:<4d} "
            f"ER={rec.metrics.er:.4f} ES={rec.metrics.es} RS={rec.metrics.rs:.4g}"
        )
    return "\n".join(lines)
