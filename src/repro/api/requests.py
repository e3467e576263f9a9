"""Typed, versioned request objects — one validated surface for every caller.

The six verbs the fleet serves — ``characterize``, ``screen``, ``sweep``,
``schedule``, ``monitor``, ``chaos`` — each have a frozen request dataclass
here.  The
CLI builds them from flags, Python callers construct them directly (or keep
using the keyword paths on :mod:`repro.api`), and the HTTP service
(:mod:`repro.service`) deserializes its JSON bodies to *the exact same
objects*, so validation, defaulting, and the work-identity digest live in
one place.

Wire format
-----------
``to_dict()`` emits plain JSON-able types plus a ``kind`` discriminator;
``request_from_dict`` / ``request_from_json`` rebuild the right class,
rejecting unknown keys, bad types, and unsupported ``schema_version``
values loudly (:class:`~repro.errors.ConfigError`).  ``schema_version`` is
pinned at :data:`REQUEST_SCHEMA_VERSION` — bump it when a field changes
meaning, and teach ``from_dict`` the migration.

Work identity
-------------
:func:`request_digest` hashes the canonical dict *minus* the
execution-only fields (``workers``, ``deadline_s``): those select how
fast the answer arrives, never what the answer is (campaign outputs are
bit-identical across worker counts), so two requests
differing only there coalesce onto one computation in the service's
batcher.  Any field that changes the result — preset, seed, scale, days,
policy, … — changes the digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from ..config import config_from_dict, config_to_dict, require
from ..errors import ConfigError

__all__ = [
    "REQUEST_SCHEMA_VERSION",
    "EXECUTION_FIELDS",
    "REQUEST_KINDS",
    "CharacterizeRequest",
    "ScreenRequest",
    "SweepRequest",
    "ScheduleRequest",
    "MonitorRequest",
    "ChaosRequest",
    "request_from_dict",
    "request_from_json",
    "request_digest",
]

#: Version of the request wire schema.  Serialized requests carry it; the
#: deserializer rejects documents from a different version.
REQUEST_SCHEMA_VERSION = 1

#: Fields that select *how* a request executes, never *what* it computes.
#: Excluded from :func:`request_digest` so requests differing only here
#: share one coalesced computation (outputs are bit-identical by the
#: parallel-equivalence guarantee).
EXECUTION_FIELDS = frozenset({"workers", "deadline_s"})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, (tuple, list)) and all(
        _is_number(x) for x in value
    )


class _RequestBase:
    """Shared behaviour of every request dataclass (wire + validation)."""

    #: The wire discriminator; each concrete class pins its own.
    kind: str = ""

    def _validate_common(self) -> None:
        require(
            isinstance(self.schema_version, int)
            and not isinstance(self.schema_version, bool)
            and self.schema_version == REQUEST_SCHEMA_VERSION,
            f"schema_version must be {REQUEST_SCHEMA_VERSION}, "
            f"got {self.schema_version!r}",
        )
        require(
            _is_int(self.seed), f"seed must be an integer, got {self.seed!r}"
        )
        require(
            _is_number(self.scale) and 0 < self.scale <= 1,
            f"scale must be a number in (0, 1], got {self.scale!r}",
        )
        # Campaign shape, on the kinds that carry it: type-checked here so
        # a malformed wire value is a ConfigError, never a digested request.
        for name in ("days", "runs_per_day"):
            value = getattr(self, name, 1)
            require(
                _is_int(value) and value >= 1,
                f"{name} must be an int >= 1, got {value!r}",
            )
        coverage = getattr(self, "coverage", 1.0)
        require(
            _is_number(coverage) and 0 < coverage <= 1,
            f"coverage must be a number in (0, 1], got {coverage!r}",
        )
        require(
            isinstance(self.cluster, str) and bool(self.cluster),
            f"cluster must be a non-empty preset name, got {self.cluster!r}",
        )
        require(
            self.workers is None or (
                isinstance(self.workers, int) and self.workers >= 1
            ),
            f"workers must be None or an int >= 1, got {self.workers!r}",
        )
        require(
            self.deadline_s is None
            or (_is_number(self.deadline_s) and self.deadline_s > 0),
            f"deadline_s must be None or > 0, got {self.deadline_s!r}",
        )

    def to_dict(self) -> dict:
        """The request as plain JSON-able types plus a ``kind`` field."""
        out = config_to_dict(self)
        out["kind"] = self.kind
        return out

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "_RequestBase":
        """Rebuild a request of this class from :meth:`to_dict` output.

        Unknown keys, a mismatched ``kind``, and foreign schema versions
        all raise :class:`~repro.errors.ConfigError`.
        """
        payload = dict(data)
        kind = payload.pop("kind", cls.kind)
        require(
            kind == cls.kind,
            f"kind {kind!r} does not match {cls.__name__} ({cls.kind!r})",
        )
        return config_from_dict(cls, payload)

    @classmethod
    def from_json(cls, text: str) -> "_RequestBase":
        """Rebuild a request of this class from :meth:`to_json` output."""
        return cls.from_dict(_loads(text))


def _loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    return data


@dataclass(frozen=True)
class CharacterizeRequest(_RequestBase):
    """Run a measurement campaign plus the paper's full analysis.

    Mirrors ``repro characterize`` / :func:`repro.api.characterize`; all
    fields are wire-primitive (preset and workload by *name*).
    """

    cluster: str = "longhorn"
    workload: str = "sgemm"
    seed: int = 0
    scale: float = 1.0
    days: int = 7
    runs_per_day: int = 1
    coverage: float = 1.0
    power_limit_w: float | None = None
    workers: int | None = None
    deadline_s: float | None = None
    schema_version: int = REQUEST_SCHEMA_VERSION

    kind = "characterize"

    def __post_init__(self) -> None:
        self._validate_common()
        require(
            isinstance(self.workload, str) and bool(self.workload),
            f"workload must be a non-empty name, got {self.workload!r}",
        )
        require(
            self.power_limit_w is None
            or (_is_number(self.power_limit_w) and self.power_limit_w > 0),
            f"power_limit_w must be None or a positive number, "
            f"got {self.power_limit_w!r}",
        )


@dataclass(frozen=True)
class ScreenRequest(_RequestBase):
    """Maintenance triage: flag outliers across applications (Takeaway 6).

    Mirrors ``repro screen`` / :func:`repro.api.screen`.
    """

    cluster: str = "longhorn"
    workloads: tuple[str, ...] = ("sgemm", "resnet50")
    seed: int = 0
    scale: float = 1.0
    days: int = 3
    min_confirmations: int = 2
    workers: int | None = None
    deadline_s: float | None = None
    schema_version: int = REQUEST_SCHEMA_VERSION

    kind = "screen"

    def __post_init__(self) -> None:
        self._validate_common()
        require(
            len(self.workloads) >= 1
            and all(isinstance(w, str) and w for w in self.workloads),
            f"workloads must name at least one application, "
            f"got {self.workloads!r}",
        )
        require(
            isinstance(self.min_confirmations, int)
            and self.min_confirmations >= 1,
            f"min_confirmations must be an int >= 1, "
            f"got {self.min_confirmations!r}",
        )


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """The Fig.-22 power-limit sweep on an admin-access cluster.

    Mirrors ``repro sweep`` / :func:`repro.api.sweep`.
    """

    cluster: str = "cloudlab"
    workload: str = "sgemm"
    power_limits_w: tuple[float, ...] = (300.0, 250.0, 200.0, 150.0, 100.0)
    seed: int = 0
    scale: float = 1.0
    runs: int = 6
    workers: int | None = None
    deadline_s: float | None = None
    schema_version: int = REQUEST_SCHEMA_VERSION

    kind = "sweep"

    def __post_init__(self) -> None:
        self._validate_common()
        require(
            _is_numbers(self.power_limits_w)
            and len(self.power_limits_w) >= 1
            and all(x > 0 for x in self.power_limits_w),
            f"power_limits_w must hold positive watt limits, "
            f"got {self.power_limits_w!r}",
        )
        require(
            isinstance(self.runs, int) and self.runs >= 1,
            f"runs must be an int >= 1, got {self.runs!r}",
        )


@dataclass(frozen=True)
class ScheduleRequest(_RequestBase):
    """Batch-queue simulation under a placement policy (Section VII).

    Mirrors ``repro sched`` / :func:`repro.api.schedule`; the trace fields
    map 1:1 onto :class:`repro.sched.TraceConfig`.
    """

    cluster: str = "longhorn"
    policy: str = "fifo"
    seed: int = 0
    scale: float = 1.0
    n_jobs: int = 100
    trace_seed: int = 0
    arrival_rate_per_hour: float = 120.0
    diurnal_amplitude: float = 0.0
    peak_hour: float = 14.0
    day_of_week_weights: tuple[float, ...] | None = None
    power_budget_w: float | None = None
    profile_days: int = 3
    workers: int | None = None
    deadline_s: float | None = None
    schema_version: int = REQUEST_SCHEMA_VERSION

    kind = "schedule"

    def __post_init__(self) -> None:
        self._validate_common()
        require(
            isinstance(self.n_jobs, int) and self.n_jobs >= 1,
            f"n_jobs must be an int >= 1, got {self.n_jobs!r}",
        )
        require(
            _is_int(self.trace_seed),
            f"trace_seed must be an integer, got {self.trace_seed!r}",
        )
        require(
            _is_number(self.arrival_rate_per_hour)
            and self.arrival_rate_per_hour > 0,
            f"arrival_rate_per_hour must be a positive number, "
            f"got {self.arrival_rate_per_hour!r}",
        )
        for name in ("diurnal_amplitude", "peak_hour"):
            value = getattr(self, name)
            require(
                _is_number(value),
                f"{name} must be a number, got {value!r}",
            )
        require(
            self.day_of_week_weights is None
            or _is_numbers(self.day_of_week_weights),
            f"day_of_week_weights must be None or a list of numbers, "
            f"got {self.day_of_week_weights!r}",
        )
        require(
            self.power_budget_w is None
            or (_is_number(self.power_budget_w) and self.power_budget_w > 0),
            f"power_budget_w must be None or a positive number, "
            f"got {self.power_budget_w!r}",
        )
        require(
            isinstance(self.profile_days, int) and self.profile_days >= 1,
            f"profile_days must be an int >= 1, got {self.profile_days!r}",
        )


@dataclass(frozen=True)
class ChaosRequest(_RequestBase):
    """Run one incident scenario end-to-end and emit a mitigation scorecard.

    Mirrors ``repro chaos`` / :func:`repro.api.chaos`; ``scenario`` names
    an entry of the :data:`repro.chaos.SCENARIOS` catalog.
    """

    scenario: str = "pump-degradation"
    cluster: str = "longhorn"
    workload: str = "sgemm"
    seed: int = 0
    scale: float = 1.0
    days: int = 10
    runs_per_day: int = 2
    n_jobs: int = 40
    trace_seed: int = 0
    workers: int | None = None
    deadline_s: float | None = None
    schema_version: int = REQUEST_SCHEMA_VERSION

    kind = "chaos"

    def __post_init__(self) -> None:
        self._validate_common()
        require(
            isinstance(self.scenario, str) and bool(self.scenario),
            f"scenario must be a non-empty name, got {self.scenario!r}",
        )
        require(
            isinstance(self.workload, str) and bool(self.workload),
            f"workload must be a non-empty name, got {self.workload!r}",
        )
        require(
            isinstance(self.n_jobs, int) and self.n_jobs >= 1,
            f"n_jobs must be an int >= 1, got {self.n_jobs!r}",
        )
        require(
            _is_int(self.trace_seed),
            f"trace_seed must be an integer, got {self.trace_seed!r}",
        )


@dataclass(frozen=True)
class MonitorRequest(_RequestBase):
    """Campaign with streaming metrics and online health detection.

    Mirrors ``repro monitor`` / :func:`repro.api.monitor_fleet`;
    ``window`` feeds both the metrics pipeline and the health detector.
    """

    cluster: str = "longhorn"
    workload: str = "sgemm"
    seed: int = 0
    scale: float = 1.0
    days: int = 7
    runs_per_day: int = 1
    coverage: float = 1.0
    window: int = 4
    workers: int | None = None
    deadline_s: float | None = None
    schema_version: int = REQUEST_SCHEMA_VERSION

    kind = "monitor"

    def __post_init__(self) -> None:
        self._validate_common()
        require(
            isinstance(self.workload, str) and bool(self.workload),
            f"workload must be a non-empty name, got {self.workload!r}",
        )
        require(
            isinstance(self.window, int) and self.window >= 1,
            f"window must be an int >= 1, got {self.window!r}",
        )


#: ``kind`` discriminator -> request class, for wire dispatch.
REQUEST_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        CharacterizeRequest,
        ScreenRequest,
        SweepRequest,
        ScheduleRequest,
        MonitorRequest,
        ChaosRequest,
    )
}


def request_from_dict(data: dict) -> _RequestBase:
    """Rebuild any request from its :meth:`~_RequestBase.to_dict` form.

    Dispatches on the ``kind`` discriminator; unknown kinds, unknown keys,
    and foreign schema versions raise :class:`~repro.errors.ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown request kind {kind!r}; known: {sorted(REQUEST_KINDS)}"
        )
    return cls.from_dict(data)


def request_from_json(text: str) -> _RequestBase:
    """Rebuild any request from its :meth:`~_RequestBase.to_json` form."""
    return request_from_dict(_loads(text))


def request_digest(request: _RequestBase) -> str:
    """Hex digest of the request's *work identity*.

    The canonical dict minus :data:`EXECUTION_FIELDS`, hashed with
    BLAKE2b — the coalescing/caching key of the service layer.  Equal
    digests guarantee byte-identical results; every result-affecting
    field (preset, seed, scale, days, policy, …) perturbs it.
    """
    if not dataclasses.is_dataclass(request):
        raise ConfigError(
            f"expected a request dataclass, got {type(request).__name__}"
        )
    doc = request.to_dict()
    for field in EXECUTION_FIELDS:
        doc.pop(field, None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
