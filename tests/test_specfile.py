"""Spec-file schema: parsing, location-carrying errors, round-trips."""

import json
import math

import pytest

import invmean as iv
from invmean import (
    FIXTURES,
    fixture_path,
    load_mapping_spec,
    mapping_spec_from_dict,
    serialize_spec,
)


def minimal_spec_dict():
    return {
        "p": 2,
        "interval": {"lower": 0, "upper": None, "lower_open": True, "upper_open": True},
        "means": [
            {"kind": "harmonic", "arity": 2},
            {"kind": "power", "order": 1, "arity": 2},
        ],
        "alpha": [[1, 2], [1, 2]],
    }


class TestParsing:
    def test_bundled_cyclic_fixture(self):
        spec = load_mapping_spec(fixture_path("example2.json"))
        assert spec.p == 4
        assert [ps.order for ps in spec.mean_specs] == [-1.0, 0.0, 1.0, 2.0]
        assert spec.alpha.rows == ((1, 2), (2, 3), (3, 4), (4, 1))
        assert spec.interval.lower == 0.0 and math.isinf(spec.interval.upper)

    def test_build_returns_base_and_alpha(self):
        mapping = load_mapping_spec(fixture_path("example2.json")).build()
        base, alpha = mapping.base, mapping.alpha
        assert base.p == 4
        assert [m.label for m in base.means] == ["P_-1", "P_0", "P_1", "P_2"]
        assert alpha.p == 4

    def test_huge_order_loads_without_sampling(self):
        # P_1e17 rounds to max(x) on nonconstant inputs, so it is not strict
        # in floating point; loading runs no sampling pass and accepts it
        raw = minimal_spec_dict()
        raw["means"][1] = {"kind": "power", "order": 1e17, "arity": 2}
        mapping = mapping_spec_from_dict(raw).build()
        assert mapping.apply((1.0, 2.0))[1] == 2.0

    def test_text_and_path_dispatch(self, tmp_path):
        text = json.dumps(minimal_spec_dict())
        from_text = load_mapping_spec(text)
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert load_mapping_spec(path) == from_text
        assert load_mapping_spec(str(path)) == from_text

    def test_all_fixtures_parse_and_build(self):
        for name in FIXTURES:
            mapping = load_mapping_spec(fixture_path(name)).build()
            assert mapping.p == 4

    def test_alias_order_conflict_rejected(self):
        raw = minimal_spec_dict()
        raw["means"][0] = {"kind": "harmonic", "order": 3, "arity": 2}
        with pytest.raises(iv.SpecError, match=r"means\[1\]"):
            mapping_spec_from_dict(raw)


class TestSchemaErrors:
    def test_alpha_entry_zero_names_row_and_position(self):
        raw = minimal_spec_dict()
        raw["alpha"][0][0] = 0
        with pytest.raises(iv.SpecError, match="row 1, position 1"):
            mapping_spec_from_dict(raw)

    def test_alpha_entry_too_large(self):
        raw = minimal_spec_dict()
        raw["alpha"][1][1] = 3
        with pytest.raises(iv.SpecError, match="row 2, position 2"):
            mapping_spec_from_dict(raw)

    def test_means_length_mismatch(self):
        raw = minimal_spec_dict()
        raw["means"] = raw["means"][:1]
        with pytest.raises(iv.SpecError, match="1 entries for p=2"):
            mapping_spec_from_dict(raw)

    def test_alpha_row_arity_mismatch(self):
        raw = minimal_spec_dict()
        raw["alpha"][0] = [1]
        with pytest.raises(iv.SpecError, match="row 1.*arity 2"):
            mapping_spec_from_dict(raw)

    def test_unknown_kind(self):
        raw = minimal_spec_dict()
        raw["means"][1] = {"kind": "cubic", "arity": 2}
        with pytest.raises(iv.SpecError, match="unknown mean kind"):
            mapping_spec_from_dict(raw)

    def test_missing_key(self):
        raw = minimal_spec_dict()
        del raw["alpha"]
        with pytest.raises(iv.SpecError, match="missing required key 'alpha'"):
            mapping_spec_from_dict(raw)

    def test_negative_interval_rejected_for_power_means(self):
        raw = minimal_spec_dict()
        raw["interval"]["lower"] = -1
        with pytest.raises(iv.SpecError, match=r"\(0, \+inf\)"):
            mapping_spec_from_dict(raw)

    def test_non_integer_index(self):
        raw = minimal_spec_dict()
        raw["alpha"][0][0] = 1.5
        with pytest.raises(iv.SpecError, match="not an integer"):
            mapping_spec_from_dict(raw)

    def test_boolean_index(self):
        raw = minimal_spec_dict()
        raw["alpha"][1][0] = True
        with pytest.raises(iv.SpecError, match="row 2, position 1: index True is not an integer"):
            mapping_spec_from_dict(raw)

    def test_invalid_json_text(self):
        with pytest.raises(iv.SpecError, match="not valid JSON"):
            load_mapping_spec("{not json")

    def test_bad_p(self):
        raw = minimal_spec_dict()
        raw["p"] = 0
        with pytest.raises(iv.SpecError, match="positive integer"):
            mapping_spec_from_dict(raw)


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_round_trip_is_field_identical(self, name):
        spec = load_mapping_spec(fixture_path(name))
        again = load_mapping_spec(serialize_spec(spec))
        assert again == spec  # dataclass equality is field-by-field

    def test_aliases_normalize_to_power(self):
        spec = load_mapping_spec(fixture_path("example2.json"))
        out = json.loads(serialize_spec(spec))
        assert all(entry["kind"] == "power" for entry in out["means"])
        assert [entry["order"] for entry in out["means"]] == [-1.0, 0.0, 1.0, 2.0]


class TestFixtureAccess:
    def test_all_fixture_paths_exist(self):
        for name in FIXTURES:
            assert fixture_path(name).exists()

    def test_unknown_fixture(self):
        with pytest.raises(iv.SpecError, match="unknown fixture"):
            fixture_path("example7.json")
