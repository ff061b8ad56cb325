"""Spec-file schema: parsing, location-carrying errors, round-trips."""

import json
import math
import re

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
        assert mapping.p == 4
        assert [m.label for m in mapping.means] == ["P_-1", "P_0", "P_1", "P_2"]
        assert mapping.alpha.p == 4

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

    @pytest.mark.parametrize("arity", [True, 0, 2.0, "2"])
    def test_bad_arity_names_the_mean(self, arity):
        # the PowerMeanSpec check, re-raised with the location
        raw = minimal_spec_dict()
        raw["means"][1]["arity"] = arity
        with pytest.raises(iv.SpecError) as info:
            mapping_spec_from_dict(raw)
        assert str(info.value) == (
            f"means[2]: power-mean arity must be a positive integer, got {arity!r}"
        )

    def test_missing_arity(self):
        raw = minimal_spec_dict()
        del raw["means"][0]["arity"]
        with pytest.raises(iv.SpecError) as info:
            mapping_spec_from_dict(raw)
        assert str(info.value) == "means[1]: missing required key 'arity'"

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

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"p": 1, "label": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(iv.SpecError, match="not UTF-8 text"):
            load_mapping_spec(path)
        with pytest.raises(iv.SpecError, match="not UTF-8 text"):
            load_mapping_spec(path.read_bytes())

    def test_json_nested_too_deeply(self, tmp_path):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(iv.SpecError, match="nested too deeply"):
            load_mapping_spec("{" + '"p": ' + text + "}")
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(iv.SpecError, match="nested too deeply"):
            load_mapping_spec(path)

    def test_bytes_are_spec_text_never_a_path(self):
        path = str(fixture_path("example2.json"))
        with pytest.raises(iv.SpecError, match="not valid JSON"):
            load_mapping_spec(path.encode())
        text = fixture_path("example2.json").read_bytes()
        assert load_mapping_spec(text) == load_mapping_spec(path)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("interval", "lower", "abc"),
            ("interval", "upper", True),
            ("interval", "lower", 10 ** 400),
            ("means[2]", "order", "x"),
            ("means[2]", "order", None),
            ("means[2]", "order", "1.5"),
            ("means[1]", "order", [1]),
        ],
    )
    def test_non_number_rejected(self, where, key, value):
        raw = minimal_spec_dict()
        entry = raw["interval"] if where == "interval" else raw["means"][int(where[6]) - 1]
        entry[key] = value
        with pytest.raises(iv.SpecError, match=rf"{re.escape(where)}: {key} "):
            mapping_spec_from_dict(raw)

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_non_boolean_open_flag_rejected(self, value):
        raw = minimal_spec_dict()
        raw["interval"]["lower_open"] = value
        with pytest.raises(iv.SpecError, match="interval: lower_open must be true or false"):
            mapping_spec_from_dict(raw)

    def test_non_string_kind_rejected(self):
        raw = minimal_spec_dict()
        raw["means"][0] = {"kind": ["power"], "order": 1, "arity": 2}
        with pytest.raises(iv.SpecError, match=r"means\[1\]: unknown mean kind"):
            mapping_spec_from_dict(raw)

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
