"""JSON mapping-spec files: parsing, validation, fixtures.

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
(orders -1, 0, 1, 2).  Indices are 1-based here and everywhere users
see them; conversion to 0-based happens strictly below this layer.

Loading checks the JSON shape (objects, lists, required keys, kinds, and
p against the list lengths) and leaves every value to the type that
holds it: `Interval` and `PowerMeanSpec` check their numbers and flags,
`IndexVector` the indexes, `make_power_mean` the domain and
`ComposedMapping` the row lengths; their errors come back as a SpecError
that names the location.  The mapping is built once, at load, and a
`MappingSpec` keeps only that mapping: p, the interval, the means and
alpha are read from it.  Each distinct means entry is parsed, checked and
built once per load, and every coordinate that repeats it shares that one
`Mean`; entries that JSON tells apart (2 and 2.0, 1 and true, 0.0 and
-0.0) stay apart.  Nothing is kept from one load to the next.

`load_mapping_spec` reads a str that starts with '{' as JSON text; the
command line passes a path as a `Path`, so no file name is ever read as
JSON.

A spec cannot declare flags: every mean is a library power mean, which
is strict, monotone and homogeneous by construction, so loading runs no
sampling pass.  `invmean verify` samples the mean property on demand; an
order so large that the float result rounds to max(x) (|order| above
about 1e16) loads, and `verify` reports it as a strictness failure.

Five mapping files covering the interesting incidence-graph shapes ship
under fixtures/: ergodic (example2), disconnected (example3), weakly
connected with an absorbing coordinate (example4), weakly connected with
a one-way feed (example5), and periodic (example6).  `FIXTURES` is read
from that directory at import, so adding a fixture is adding a file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .averaging import ComposedMapping, IndexVector
from .errors import ShapeError, SpecError, ValidationError
from .means import Interval, PowerMeanSpec, make_power_mean

__all__ = [
    "MappingSpec",
    "FIXTURES",
    "load_mapping_spec",
    "mapping_spec_from_dict",
    "fixture_path",
]

KIND_ALIASES = {
    "harmonic": -1.0,
    "geometric": 0.0,
    "arithmetic": 1.0,
    "quadratic": 2.0,
}

_FIXTURE_DIR = resources.files("invmean").joinpath("fixtures")
#: The bundled fixtures: the sorted names of the *.json files in fixtures/.
FIXTURES = tuple(sorted(f.name for f in _FIXTURE_DIR.iterdir() if f.name.endswith(".json")))


@dataclass(frozen=True)
class MappingSpec:
    """The mapping one spec file defines, built once at load: the checks of
    `make_power_mean` (the domain) and `ComposedMapping` (rows against
    means) have run, each distinct mean built once and shared by the
    coordinates that repeat it; the step is compiled on first use, not
    here."""

    _mapping: ComposedMapping

    def build(self) -> ComposedMapping:
        """The composed mapping, built with the spec."""
        return self._mapping


def _expect(raw: Any, kind: type, where: str, noun: str) -> Any:
    """raw when it is a `kind`, else a SpecError naming where and the
    JSON type (noun) expected there."""
    if not isinstance(raw, kind):
        raise SpecError(f"{where}: expected {noun}, got {type(raw).__name__}")
    return raw


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise SpecError(f"{where}: missing required key {key!r}")
    return obj[key]


def _parse_interval(raw: Any) -> Interval:
    _expect(raw, dict, "interval", "an object")
    lower = _require(raw, "lower", "interval")
    upper = _require(raw, "upper", "interval")
    try:
        return Interval(
            -math.inf if lower is None else lower,
            math.inf if upper is None else upper,
            raw.get("lower_open", True),
            raw.get("upper_open", True),
        )
    except ValidationError as exc:
        raise SpecError(f"interval: {exc}") from None


#: The types of the JSON scalars, the only values an entry key takes in.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _entry_key(raw: Any) -> tuple | None:
    """The key of a means entry: two entries share it only when they hold
    the same keys in the same order and values of the same repr.  On JSON
    scalars repr tells apart what == merges: 2 and 2.0, 1 and True, 0.0
    and -0.0 (labels P_0 and P_-0).  None when raw is not an object of JSON
    scalars: such an entry is parsed on its own."""
    if type(raw) is not dict:
        return None
    values = raw.values()
    if not _SCALARS.issuperset(map(type, values)):
        return None
    return tuple(raw), tuple(map(repr, values))


def _parse_mean(raw: Any, i: int) -> PowerMeanSpec:
    where = f"means[{i}]"
    _expect(raw, dict, where, "an object")
    kind = _require(raw, "kind", where)
    alias = KIND_ALIASES.get(kind) if isinstance(kind, str) else None  # a list would not hash
    if alias is None and kind != "power":
        raise SpecError(f"{where}: unknown mean kind {kind!r}")
    order = _require(raw, "order", where) if alias is None else raw.get("order", alias)
    arity = _require(raw, "arity", where)
    try:
        spec = PowerMeanSpec(order=order, arity=arity)
    except ValidationError as exc:
        raise SpecError(f"{where}: {exc}") from None
    if alias is not None and spec.order != alias:
        raise SpecError(f"{where}: kind {kind!r} fixes order {alias:g}, got {raw['order']!r}")
    return spec


def mapping_spec_from_dict(raw: Any) -> MappingSpec:
    """Validate a decoded JSON object and build its mapping; errors carry
    the offending location."""
    _expect(raw, dict, "spec", "a JSON object")
    p = _require(raw, "p", "spec")
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise SpecError(f"p: must be a positive integer, got {p!r}")
    interval = _parse_interval(_require(raw, "interval", "spec"))

    raw_means = _expect(_require(raw, "means", "spec"), list, "means", "a list")
    if len(raw_means) != p:
        raise SpecError(f"means: {len(raw_means)} entries for p={p}")
    # each distinct entry is parsed once and built once (below), and the
    # coordinates that repeat it share its Mean.  An entry that fails is
    # never stored and one with no key is parsed on its own, so each error
    # names the entry that a parse of every entry would name.
    specs: list[PowerMeanSpec] = []  # the distinct entries' specs
    slot_of: dict[tuple, int] = {}  # entry key -> index in specs
    slots = []  # per coordinate, the index of its spec
    for i, entry in enumerate(raw_means, start=1):
        key = _entry_key(entry)
        slot = slot_of.get(key)
        if slot is None:
            slot = len(specs)
            specs.append(_parse_mean(entry, i))
            if key is not None:
                slot_of[key] = slot
        slots.append(slot)

    raw_alpha = _expect(_require(raw, "alpha", "spec"), list, "alpha", "a list")
    if len(raw_alpha) != p:
        raise SpecError(f"alpha: {len(raw_alpha)} rows for p={p}")
    for i, row in enumerate(raw_alpha, start=1):
        _expect(row, list, f"alpha row {i}", "a list")
    # IndexVector checks the indexes, make_power_mean the domain and
    # ComposedMapping each row against its mean
    try:
        alpha = IndexVector(raw_alpha)
        built = [make_power_mean(ps, domain=interval) for ps in specs]
        return MappingSpec(ComposedMapping(tuple([built[s] for s in slots]), interval, alpha))
    except (ValidationError, ShapeError) as exc:
        raise SpecError(str(exc)) from None


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


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture, e.g. fixture_path('example2.json')."""
    if name not in FIXTURES:
        raise SpecError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return Path(str(_FIXTURE_DIR.joinpath(name)))
