"""Longitudinal run store: every experiment leaves a durable record.

The in-run observability layer (metrics, tracer, self-profiler) answers
"what happened in *this* run"; the :class:`RunStore` answers "what
happened across the PR trajectory".  Every ``repro run`` / ``compare`` /
``sweep`` / ``stats`` / ``scorecard`` invocation can archive a
schema-versioned :class:`RunRecord` — git SHA, config fingerprint, host
info, per-(system, workload) cycle counts, the flat metrics snapshot,
and the self-profiler's host wall-clock — into an append-only JSONL
file under ``.eve-runs/``.

The store is one file, ``.eve-runs/runs.jsonl`` (``root`` defaults to
``.eve-runs``): one JSON record per line, append-only, and a
:class:`~repro.obs.journal.Journal` under its crash contract.  Every
reader parses the records it needs from it.  Records are compared by
:mod:`repro.obs.diff` and listed by ``repro history``
(:func:`repro.obs.trend.filter_history`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, Optional

from ..errors import RunStoreError
from .journal import Journal

#: Bump when the record layout changes incompatibly.  Loading a record
#: with a different major version raises :class:`RunStoreError` — a diff
#: across schema generations would silently compare the wrong keys.
SCHEMA_VERSION = 1

DEFAULT_ROOT = ".eve-runs"
RUNS_FILENAME = "runs.jsonl"


# -- environment capture -------------------------------------------------------

def git_info(cwd: Optional[str] = None) -> Dict[str, object]:
    """Best-effort ``{sha, dirty}`` of the enclosing git checkout."""

    def _git(*argv: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ("git",) + argv, cwd=cwd, capture_output=True, text=True,
                timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {"sha": sha or "unknown",
            "dirty": bool(status) if status is not None else False}


def host_info() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def config_fingerprint(extra: Optional[dict] = None) -> str:
    """Digest of every Table III system config (plus any extra payload,
    e.g. workload parameter overrides), so a diff can tell "the code
    changed" from "the experiment changed"."""
    from ..config import all_system_names, make_system
    payload = {name: asdict(make_system(name)) for name in all_system_names()}
    if extra:
        payload["__extra__"] = extra
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- the record ----------------------------------------------------------------

@dataclass
class RunRecord:
    """One archived experiment: identity, environment, and measurements.

    ``results`` maps ``system -> workload -> {cycles, time_ns,
    instructions}`` (the deterministic core every diff keys on);
    ``speedups`` maps ``workload -> system -> speedup`` relative to
    ``speedup_baseline``; ``metrics`` is a flat ``name -> scalar`` view
    of a :class:`~repro.obs.MetricsRegistry`; ``extra`` carries
    kind-specific payloads (bench wall-clock, scorecard summaries).
    """

    kind: str
    label: str = ""
    schema_version: int = SCHEMA_VERSION
    record_id: str = ""
    created: str = ""
    git: Dict[str, object] = field(default_factory=dict)
    host: Dict[str, str] = field(default_factory=dict)
    config_fingerprint: str = ""
    tiny: bool = False
    command: str = ""
    results: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    speedup_baseline: str = ""
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    self_profile: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def add_result(self, system: str, workload: str, *, cycles: float,
                   time_ns: float, instructions: int = 0) -> None:
        self.results.setdefault(system, {})[workload] = {
            "cycles": cycles, "time_ns": time_ns,
            "instructions": instructions}

    def to_json_dict(self) -> Dict[str, object]:
        return asdict(self)

    def summary(self) -> Dict[str, object]:
        """The one-row view ``repro history`` lists."""
        return {
            "record_id": self.record_id,
            "kind": self.kind,
            "label": self.label,
            "created": self.created,
            "git_sha": str(self.git.get("sha", "unknown"))[:12],
            "dirty": bool(self.git.get("dirty", False)),
            "tiny": self.tiny,
            "fingerprint": self.config_fingerprint,
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "RunRecord":
        if not isinstance(doc, dict):
            raise RunStoreError(f"run record must be an object, "
                                f"got {type(doc).__name__}")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise RunStoreError(
                f"run record schema version {version!r} is not supported "
                f"(this build reads version {SCHEMA_VERSION}); re-record "
                f"the baseline with the current toolkit")
        if "kind" not in doc:
            raise RunStoreError("run record is missing its 'kind' field")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise RunStoreError(
                f"run record carries unknown fields {sorted(unknown)} "
                f"(schema version {SCHEMA_VERSION})")
        return cls(**doc)


def make_record(kind: str, *, label: str = "", tiny: bool = False,
                command: str = "", extra: Optional[dict] = None,
                fingerprint_extra: Optional[dict] = None) -> RunRecord:
    """A new record stamped with the current environment."""
    return RunRecord(
        kind=kind, label=label, tiny=tiny, command=command,
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        git=git_info(), host=host_info(),
        config_fingerprint=config_fingerprint(fingerprint_extra),
        extra=dict(extra or {}))


def flatten_record(record: RunRecord) -> Dict[str, float]:
    """Scalar ``name -> value`` view a differ can compare key-by-key.

    Key families (the diff's tolerance policies match on these):

    * ``results.<system>.<workload>.cycles`` / ``.time_ns`` /
      ``.instructions`` — deterministic simulation outputs;
    * ``speedup.<workload>.<system>`` — relative performance
      (direction-aware in the differ);
    * ``metrics.<name>`` — the flat registry snapshot;
    * ``self_profile.<phase>.seconds`` — host wall-clock (noisy,
      advisory);
    * ``bench.sweep.<field>`` — a recorded sweep's cell counts and
      host wall-clock (advisory);
    * ``faults.<field>`` / ``faults.<dim>.<bucket>.<field>`` — a
      fault-injection campaign's classification counts and SDC rates
      (deterministic given the campaign seed);
    * ``attribution.<unit>.<bucket>`` / ``attribution.bound_by.<class>``
      — cycle-attribution shares of the achieved cycles (bottleneck
      drift; see :mod:`repro.obs.flame`).
    """
    out: Dict[str, float] = {}
    for system, workloads in record.results.items():
        for workload, fields_ in workloads.items():
            for key, value in fields_.items():
                out[f"results.{system}.{workload}.{key}"] = float(value)
    for workload, systems in record.speedups.items():
        for system, value in systems.items():
            out[f"speedup.{workload}.{system}"] = float(value)
    for name, value in record.metrics.items():
        if isinstance(value, (int, float)):
            out[f"metrics.{name}"] = float(value)
    for phase, info in record.self_profile.items():
        seconds = info.get("seconds") if isinstance(info, dict) else info
        if isinstance(seconds, (int, float)):
            out[f"self_profile.{phase}.seconds"] = float(seconds)
    sweep = record.extra.get("sweep")
    if isinstance(sweep, dict):
        for key, value in sweep.items():
            if isinstance(value, (int, float)):
                out[f"bench.sweep.{key}"] = float(value)
    attribution = record.extra.get("attribution")
    if isinstance(attribution, dict):
        shares = attribution.get("shares")
        if isinstance(shares, dict):
            for name, value in shares.items():
                if isinstance(value, (int, float)):
                    out[f"attribution.{name}"] = float(value)
    campaign = record.extra.get("campaign")
    if isinstance(campaign, dict):
        for key in ("count", "sdc_rate", "detected_rate"):
            value = campaign.get(key)
            if isinstance(value, (int, float)):
                out[f"faults.{key}"] = float(value)
        counts = campaign.get("counts")
        if isinstance(counts, dict):
            for name, value in counts.items():
                if isinstance(value, (int, float)):
                    out[f"faults.counts.{name}"] = float(value)
        for dim in ("by_factor", "by_model", "by_family"):
            table = campaign.get(dim)
            if not isinstance(table, dict):
                continue
            for bucket, fields_ in table.items():
                if isinstance(fields_, dict):
                    for key, value in fields_.items():
                        if isinstance(value, (int, float)):
                            out[f"faults.{dim}.{bucket}.{key}"] = float(value)
    return out


# -- the store -----------------------------------------------------------------

class RunStore:
    """Append-only archive of :class:`RunRecord` lines.

    ``runs.jsonl`` follows the journal contract in
    :mod:`repro.obs.journal` and is the whole store.  An append holds
    the journal's own lock while it picks the record's id and writes
    the line, so concurrent sweep workers (or parallel CI jobs sharing
    one store) get unique sequence ids.
    """

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root
        self._journal = Journal(self.runs_path, RunStoreError, "record")

    @property
    def runs_path(self) -> str:
        return os.path.join(self.root, RUNS_FILENAME)

    # -- writing ---------------------------------------------------------------

    def append(self, record: RunRecord) -> str:
        """Give ``record`` the id one past the largest committed sequence
        number and append it as one JSONL line, both under the lock."""
        with self._journal.locked():
            seqs = [int(r.record_id.split("-", 1)[0])
                    for r in self.records() if r.record_id]
            record.record_id = f"{max(seqs, default=0) + 1:06d}-{record.kind}"
            self._journal.write(
                [json.dumps(record.to_json_dict(), sort_keys=True)])
        return record.record_id

    # -- reading ---------------------------------------------------------------

    def records(self) -> Iterator[RunRecord]:
        """Every committed record, oldest first (empty iterator if no
        store yet)."""
        for doc in self._journal.docs():
            yield RunRecord.from_json_dict(doc)

    def load(self, record_id: str) -> RunRecord:
        for record in self.records():
            if record.record_id == record_id:
                return record
        raise RunStoreError(f"no record {record_id!r} in {self.root} "
                            f"(see 'repro history')")

    def latest(self, kind: Optional[str] = None, back: int = 0) -> RunRecord:
        """The most recent record (``back`` steps earlier if given)."""
        matches = [r for r in self.records()
                   if kind is None or r.kind == kind]
        if len(matches) <= back:
            raise RunStoreError(
                f"run store {self.root} holds {len(matches)} "
                f"{kind or 'any'}-kind record(s); cannot go back {back}")
        return matches[-1 - back]

    def resolve(self, ref: str) -> RunRecord:
        """A record from a flexible reference: ``latest`` / ``latest~N``,
        a record id from the store, or a path to a record JSON file (the
        committed golden baseline)."""
        if ref == "latest" or ref.startswith("latest~"):
            back = int(ref.split("~", 1)[1]) if "~" in ref else 0
            return self.latest(back=back)
        if os.path.sep in ref or ref.endswith(".json") or os.path.exists(ref):
            return load_record_file(ref)
        return self.load(ref)


def load_record_file(path: str) -> RunRecord:
    """Read one record from a standalone JSON file (golden baselines)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise RunStoreError(
            f"cannot read record file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RunStoreError(f"{path} is not valid JSON: {exc}") from exc
    return RunRecord.from_json_dict(doc)
