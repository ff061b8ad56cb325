"""JSON mapping-spec files: parsing, validation, serialization, fixtures.

A spec file is one JSON object:

    {
      "p": 4,
      "interval": {"lower": 0, "upper": null,
                   "lower_open": true, "upper_open": true},
      "means": [{"kind": "power", "order": -1, "arity": 2}, ...],
      "alpha": [[1, 2], [2, 3], [3, 4], [4, 1]]
    }

null endpoints mean -inf / +inf; open flags default to true.  A mean may
use the kind aliases "harmonic", "geometric", "arithmetic", "quadratic"
(orders -1, 0, 1, 2); serialization normalizes every mean to
{"kind": "power", ...}.  Indices are 1-based here and everywhere users
see them; conversion to 0-based happens strictly below this layer.

A spec cannot declare flags: every mean is a library power mean, which
is strict, monotone and homogeneous by construction, so loading runs no
sampling pass.  `invmean verify` samples the mean property on demand; an
order so large that the float result rounds to max(x) (|order| above
about 1e16) loads, and `verify` reports it as a strictness failure.

Five mapping files covering the interesting incidence-graph shapes ship
under fixtures/: ergodic (example2), disconnected (example3), weakly
connected with an absorbing coordinate (example4), weakly connected with
a one-way feed (example5), and periodic (example6).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .averaging import ComposedMapping, IndexVector
from .errors import SpecError, ValidationError
from .means import Interval, PowerMeanSpec, make_power_mean

__all__ = [
    "MappingSpec",
    "KIND_ALIASES",
    "FIXTURES",
    "load_mapping_spec",
    "mapping_spec_from_dict",
    "serialize_spec",
    "fixture_path",
]

KIND_ALIASES = {
    "harmonic": -1.0,
    "geometric": 0.0,
    "arithmetic": 1.0,
    "quadratic": 2.0,
}

FIXTURES = (
    "example2.json",
    "example3.json",
    "example4.json",
    "example5.json",
    "example6.json",
)


@dataclass(frozen=True)
class MappingSpec:
    """The validated content of one spec file."""

    p: int
    interval: Interval
    mean_specs: tuple[PowerMeanSpec, ...]
    alpha: IndexVector

    def build(self) -> ComposedMapping:
        """Construct the composed mapping."""
        means = tuple(make_power_mean(ps, domain=self.interval) for ps in self.mean_specs)
        return ComposedMapping(means, self.interval, self.alpha)

    def to_json_dict(self) -> dict:
        def endpoint(v: float) -> float | None:
            return None if math.isinf(v) else v

        return {
            "p": self.p,
            "interval": {
                "lower": endpoint(self.interval.lower),
                "upper": endpoint(self.interval.upper),
                "lower_open": self.interval.lower_open,
                "upper_open": self.interval.upper_open,
            },
            "means": [
                {"kind": "power", "order": ps.order, "arity": ps.arity}
                for ps in self.mean_specs
            ],
            "alpha": [list(row) for row in self.alpha.rows],
        }


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise SpecError(f"{where}: missing required key {key!r}")
    return obj[key]


def _number(value: Any, key: str, where: str) -> float:
    # a JSON number only: no strings, no booleans (bool is an int subclass)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{where}: {key} {value} is out of float range") from None


def _flag(raw: dict, key: str) -> bool:
    value = raw.get(key, True)
    if not isinstance(value, bool):
        raise SpecError(f"interval: {key} must be true or false, got {value!r}")
    return value


def _parse_interval(raw: Any) -> Interval:
    if not isinstance(raw, dict):
        raise SpecError(f"interval: expected an object, got {type(raw).__name__}")
    lower = _require(raw, "lower", "interval")
    upper = _require(raw, "upper", "interval")
    lower = -math.inf if lower is None else _number(lower, "lower", "interval")
    upper = math.inf if upper is None else _number(upper, "upper", "interval")
    lower_open = _flag(raw, "lower_open")
    upper_open = _flag(raw, "upper_open")
    try:
        return Interval(lower, upper, lower_open, upper_open)
    except ValueError as exc:
        raise SpecError(f"interval: {exc}") from None


def _parse_mean(raw: Any, i: int) -> PowerMeanSpec:
    where = f"means[{i}]"
    if not isinstance(raw, dict):
        raise SpecError(f"{where}: expected an object, got {type(raw).__name__}")
    kind = _require(raw, "kind", where)
    if isinstance(kind, str) and kind in KIND_ALIASES:  # a list would not hash
        order = KIND_ALIASES[kind]
        if "order" in raw and _number(raw["order"], "order", where) != order:
            raise SpecError(f"{where}: kind {kind!r} fixes order {order:g}, got {raw['order']!r}")
    elif kind == "power":
        order = _number(_require(raw, "order", where), "order", where)
    else:
        raise SpecError(f"{where}: unknown mean kind {kind!r}")
    arity = _require(raw, "arity", where)
    try:
        return PowerMeanSpec(order=order, arity=arity)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def mapping_spec_from_dict(raw: Any) -> MappingSpec:
    """Validate a decoded JSON object; errors carry the offending location."""
    if not isinstance(raw, dict):
        raise SpecError(f"spec: expected a JSON object, got {type(raw).__name__}")
    p = _require(raw, "p", "spec")
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise SpecError(f"p: must be a positive integer, got {p!r}")
    interval = _parse_interval(_require(raw, "interval", "spec"))
    if interval.lower < 0.0 or (interval.lower == 0.0 and not interval.lower_open):
        raise SpecError(f"interval: power means need a domain within (0, +inf), got {interval}")

    raw_means = _require(raw, "means", "spec")
    if not isinstance(raw_means, list):
        raise SpecError(f"means: expected a list, got {type(raw_means).__name__}")
    if len(raw_means) != p:
        raise SpecError(f"means: {len(raw_means)} entries for p={p}")
    mean_specs = tuple(_parse_mean(entry, i) for i, entry in enumerate(raw_means, start=1))

    raw_alpha = _require(raw, "alpha", "spec")
    if not isinstance(raw_alpha, list):
        raise SpecError(f"alpha: expected a list, got {type(raw_alpha).__name__}")
    if len(raw_alpha) != p:
        raise SpecError(f"alpha: {len(raw_alpha)} rows for p={p}")
    for i, row in enumerate(raw_alpha, start=1):
        if not isinstance(row, list):
            raise SpecError(f"alpha row {i}: expected a list, got {type(row).__name__}")
        if len(row) != mean_specs[i - 1].arity:
            raise SpecError(
                f"alpha row {i}: {len(row)} indexes, mean {i} has arity {mean_specs[i - 1].arity}"
            )
    try:
        alpha = IndexVector(raw_alpha)
    except ValidationError as exc:
        raise SpecError(str(exc)) from None
    return MappingSpec(p=p, interval=interval, mean_specs=mean_specs, alpha=alpha)


def load_mapping_spec(source: str | bytes | Path) -> MappingSpec:
    """Load a spec from a path, from raw JSON text, or from the bytes of a
    spec file.

    A str that starts (after whitespace) with '{' is treated as JSON text,
    anything else as a filesystem path.  A file is read as bytes, and bytes
    (a file's, or stdin's for the command line) must be UTF-8; text that is
    not UTF-8 or not JSON, or JSON nested too deeply to parse, is a
    SpecError.
    """
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        source = Path(source)
    if isinstance(source, Path):
        source = source.read_bytes()
    try:
        raw = json.loads(source.decode() if isinstance(source, bytes) else source)
    except UnicodeDecodeError as exc:
        raise SpecError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SpecError("not valid JSON: nested too deeply to parse") from None
    return mapping_spec_from_dict(raw)


def serialize_spec(spec: MappingSpec) -> str:
    """Normalized JSON text; load_mapping_spec(serialize_spec(s)) == s."""
    return json.dumps(spec.to_json_dict(), indent=2) + "\n"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture, e.g. fixture_path('example2.json')."""
    if name not in FIXTURES:
        raise SpecError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return Path(str(resources.files("invmean").joinpath("fixtures", name)))
