"""Scenario inputs: scripted validation outcomes, backtrack origins, limits.

Validation is an external oracle for the machines: a run consults the
scenario at every validation point, keyed by (phase, index, attempt).  The
attempt number for a given (phase, index) starts at 1 and advances on every
query; each run counts its own queries, so a scenario is a plain input that
runs can share, and runs are fully reproducible.  A seeded random failure
mode is available for fuzzing.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .hierarchy import Hierarchy
from .jsondoc import JSONDocumentError, decode_json, exact, exact_int, int_key, read_text


# The largest per-level refinement budget a scenario may ask for.  A run's
# length grows with it, so a document cannot ask for an arbitrarily long run.
MAX_R_MAX = 1000


class ScenarioError(ValueError):
    """Invalid scenario document or inconsistent parameters."""


class UndefinedTraceOriginError(ScenarioError):
    """A scripted origin map has no entry for the failing level."""


def check_r_max(r_max: int) -> None:
    """Raise ScenarioError unless ``r_max`` is a budget a scenario may hold."""
    if r_max < 0:
        raise ScenarioError(f"r_max must be >= 0, got {r_max}")
    if r_max > MAX_R_MAX:
        raise ScenarioError(f"r_max must be <= {MAX_R_MAX}, got {r_max}")


class OriginKind(enum.Enum):
    FIXED = "fixed"
    SCRIPTED = "scripted"
    DEPENDENCY_MIN = "dependency_min"


@dataclass(frozen=True)
class TraceOriginStrategy:
    kind: OriginKind
    fixed_level: int | None = None
    scripted: dict[int, int] = field(default_factory=dict)

    @classmethod
    def fixed(cls, j0: int) -> "TraceOriginStrategy":
        return cls(OriginKind.FIXED, fixed_level=j0)

    @classmethod
    def scripted_map(cls, mapping: dict[int, int]) -> "TraceOriginStrategy":
        for i, j in mapping.items():
            if j > i:
                raise ScenarioError(f"scripted origin {j} exceeds failing level {i}")
        return cls(OriginKind.SCRIPTED, scripted=dict(mapping))

    @classmethod
    def dependency_min(cls) -> "TraceOriginStrategy":
        return cls(OriginKind.DEPENDENCY_MIN)


def resolve_trace_origin(
    strategy: TraceOriginStrategy,
    failing_level: int,
    failing_nodes: set[int],
    hierarchy: Hierarchy | None = None,
    implicated: set[int] | None = None,
) -> int:
    """Map a validation failure at ``failing_level`` to the refinement start.

    FIXED clamps to the failing level; SCRIPTED raises for missing entries;
    DEPENDENCY_MIN takes the minimum level among implicated ancestors of the
    failing nodes, defaulting to the failing level itself.  The result always
    satisfies 1 <= j <= failing_level.
    """
    if strategy.kind is OriginKind.FIXED:
        assert strategy.fixed_level is not None
        return max(1, min(strategy.fixed_level, failing_level))
    if strategy.kind is OriginKind.SCRIPTED:
        if failing_level not in strategy.scripted:
            raise UndefinedTraceOriginError(
                f"no scripted trace origin for level {failing_level}"
            )
        return max(1, min(strategy.scripted[failing_level], failing_level))
    # DEPENDENCY_MIN
    if hierarchy is None or not implicated:
        return failing_level
    levels = []
    for node_id in failing_nodes:
        for anc in hierarchy.ancestors(node_id):
            if anc.id in implicated:
                levels.append(anc.level)
    if not levels:
        return failing_level
    return max(1, min(min(levels), failing_level))


@dataclass
class CddScript:
    """CDD-specific scripting: which components fail tests or need feedback,
    and how many refine iterations each takes to converge."""

    test_failures: dict[int, int] = field(default_factory=dict)  # component -> times
    feedback_cycles: dict[int, int] = field(default_factory=dict)
    refine_iterations: dict[int, int] = field(default_factory=dict)  # component -> n
    increment_feedback: dict[int, int] = field(default_factory=dict)  # inc -> component


@dataclass
class Scenario:
    """Shared run configuration for the basic and hybrid machines."""

    r_max: int = 1
    k_thresholds: dict[int, int] = field(default_factory=dict)
    trace_origin: TraceOriginStrategy = field(
        default_factory=lambda: TraceOriginStrategy.fixed(1)
    )
    validation_script: dict[tuple[str, int, int], set[int]] = field(
        default_factory=dict
    )
    implicated_nodes: set[int] = field(default_factory=set)
    seed: int = 0
    random_failure_rate: float = 0.0
    # Basic-machine extras
    dad_missing_deps: dict[int, list[str]] = field(default_factory=dict)
    cdd: CddScript = field(default_factory=CddScript)
    increments: list[list[int]] | None = None

    def __post_init__(self) -> None:
        check_r_max(self.r_max)
        if not 0.0 <= self.random_failure_rate <= 1.0:
            raise ScenarioError(
                f"random_failure_rate must be in [0, 1], got {self.random_failure_rate}"
            )
        if self.increments is not None and not all(self.increments):
            raise ScenarioError("increments: every increment needs at least one component")

    def k_for(self, level: int, level_size: int) -> int:
        k = self.k_thresholds.get(level, level_size)
        if k > level_size:
            raise ScenarioError(
                f"K threshold {k} exceeds level {level} size {level_size}"
            )
        return k

    def has_script_for(self, phase: str, index: int, attempt: int) -> bool:
        """True when ``attempt`` at (phase, index) has a scripted entry."""
        return (phase, index, attempt) in self.validation_script

    def failing_nodes(
        self, phase: str, index: int, attempt: int, candidates: list[int]
    ) -> set[int]:
        """Failing node ids for one validation query.

        Scripted entries win; otherwise the seeded Bernoulli mode draws a
        failure per candidate node (deterministic in the scenario seed).
        """
        key = (phase, index, attempt)
        if key in self.validation_script:
            return self.validation_script[key] & set(candidates)
        if self.random_failure_rate > 0.0:
            rng = random.Random(f"{self.seed}:{phase}:{index}:{attempt}")
            return {
                n for n in sorted(candidates) if rng.random() < self.random_failure_rate
            }
        return set()


def _int_map(value: dict) -> dict[int, int]:
    return {int_key(k): exact_int(v, f"value of {k!r}") for k, v in value.items()}


def _origin_from_json(obj: dict[str, Any]) -> TraceOriginStrategy:
    kind = obj.get("strategy", "fixed")
    if kind == "fixed":
        return TraceOriginStrategy.fixed(exact_int(obj["level"], "level"))
    if kind == "scripted":
        return TraceOriginStrategy.scripted_map(_int_map(obj["map"]))
    if kind == "dependency_min":
        return TraceOriginStrategy.dependency_min()
    raise ScenarioError(f"unknown trace origin strategy {kind!r}")


# Top-level scenario document keys: the Scenario field and its conversion.
_FIELDS: dict[str, tuple[str, Any]] = {
    "r_max": ("r_max", exact_int),
    "k": ("k_thresholds", _int_map),
    "implicated_nodes": ("implicated_nodes", lambda v: {exact_int(n, "node id") for n in v}),
    "seed": ("seed", exact_int),
    "random_failure_rate": ("random_failure_rate",
                            lambda v: float(exact(v, (int, float), "a number"))),
    "dad_missing_deps": ("dad_missing_deps", lambda v: {
        int_key(k): [exact(d, (str,), "a string", "dependency name")
                     for d in exact(deps, (list,), "a list", f"value of {k!r}")]
        for k, deps in v.items()}),
    "increments": ("increments", lambda v: [[exact_int(c, "component") for c in inc] for inc in v]),
}
_CDD_FIELDS = ("test_failures", "feedback_cycles", "refine_iterations", "increment_feedback")


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load a scenario JSON document (path, JSON text, or parsed object).

    A string is JSON text when it starts with ``{`` or ``[`` after leading
    whitespace, and a path otherwise, as in ``load_hierarchy``: a missing
    file raises FileNotFoundError naming it.  Raises ScenarioError naming
    the source and the field
    (``sc.json: validation_script[0]: missing field 'phase'``)."""
    name = "scenario"
    if isinstance(source, str) and not source.lstrip().startswith(("{", "[")):
        source = Path(source)
    try:
        if isinstance(source, Path):
            name = str(source)
            obj = decode_json(read_text(source))
        elif isinstance(source, str):
            obj = decode_json(source)
        else:
            obj = source
    except JSONDocumentError as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    if not isinstance(obj, dict):
        raise ScenarioError(f"{name}: a scenario is a JSON object, got {type(obj).__name__}")

    fields: dict[str, Any] = {}
    field = "validation_script"
    try:
        script = fields["validation_script"] = {}
        for index, entry in enumerate(obj.get(field, [])):
            field = f"validation_script[{index}]"
            key = (exact(entry["phase"], (str,), "a string", "phase"),
                   exact_int(entry["index"], "index"), exact_int(entry["attempt"], "attempt"))
            script[key] = {exact_int(n, "failing node id") for n in entry["failing_node_ids"]}
        cdd_obj, cdd = obj.get("cdd", {}), {}
        for part in _CDD_FIELDS:
            field = f"cdd.{part}"
            cdd[part] = _int_map(cdd_obj.get(part, {}))
        fields["cdd"] = CddScript(**cdd)
        field = "trace_origin"
        if field in obj:
            fields["trace_origin"] = _origin_from_json(obj[field])
        for field, (attr, convert) in _FIELDS.items():
            if field in obj:
                fields[attr] = convert(obj[field])
    except KeyError as exc:
        raise ScenarioError(f"{name}: {field}: missing field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: {field}: {exc}") from None
    try:
        return Scenario(**fields)
    except ScenarioError as exc:
        raise ScenarioError(f"{name}: {exc}") from None


def dump_scenario(s: Scenario) -> dict[str, Any]:
    origin: dict[str, Any]
    if s.trace_origin.kind is OriginKind.FIXED:
        origin = {"strategy": "fixed", "level": s.trace_origin.fixed_level}
    elif s.trace_origin.kind is OriginKind.SCRIPTED:
        origin = {
            "strategy": "scripted",
            "map": {str(k): v for k, v in s.trace_origin.scripted.items()},
        }
    else:
        origin = {"strategy": "dependency_min"}
    return {
        "r_max": s.r_max,
        "k": {str(k): v for k, v in s.k_thresholds.items()},
        "trace_origin": origin,
        "seed": s.seed,
        "random_failure_rate": s.random_failure_rate,
        "validation_script": [
            {
                "phase": phase,
                "index": index,
                "attempt": attempt,
                "failing_node_ids": sorted(nodes),
            }
            for (phase, index, attempt), nodes in sorted(s.validation_script.items())
        ],
        "implicated_nodes": sorted(s.implicated_nodes),
        "dad_missing_deps": {str(k): v for k, v in s.dad_missing_deps.items()},
        "cdd": {
            "test_failures": {str(k): v for k, v in s.cdd.test_failures.items()},
            "feedback_cycles": {str(k): v for k, v in s.cdd.feedback_cycles.items()},
            "refine_iterations": {
                str(k): v for k, v in s.cdd.refine_iterations.items()
            },
            "increment_feedback": {
                str(k): v for k, v in s.cdd.increment_feedback.items()
            },
        },
        **({"increments": s.increments} if s.increments is not None else {}),
    }
