"""Spec-file schema: parsing, location-carrying errors, fixtures."""

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
        mapping = load_mapping_spec(fixture_path("example2.json")).build()
        assert mapping.p == 4
        assert [m.evaluator.order for m in mapping.means] == [-1.0, 0.0, 1.0, 2.0]
        assert mapping.alpha.rows == ((1, 2), (2, 3), (3, 4), (4, 1))
        assert mapping.interval.lower == 0.0 and math.isinf(mapping.interval.upper)

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
            f"means[2]: power-mean arity must be an integer >= 1, got {arity!r}"
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

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"interval": [0, None]}, "interval: expected an object, got list"),
            ({"means": {"kind": "harmonic"}}, "means: expected a list, got dict"),
            ({"means": ["harmonic", {"kind": "arithmetic", "arity": 2}]},
             "means[1]: expected an object, got str"),
            ({"alpha": "1,2"}, "alpha: expected a list, got str"),
            ({"alpha": [{"1": 2}, [1, 2]]}, "alpha row 1: expected a list, got dict"),
            ({"p": 1, "means": [{"kind": "arithmetic", "arity": 1}], "alpha": [[1], [1]]},
             "alpha: 2 rows for p=1"),
        ],
    )
    def test_json_shape_messages(self, changes, message):
        with pytest.raises(iv.SpecError) as exc:
            mapping_spec_from_dict(minimal_spec_dict() | changes)
        assert str(exc.value) == message


class TestOneCheckPerValue:
    """The spec path rejects a value with the message of the library type
    that holds it, under the value's location."""

    @pytest.mark.parametrize(
        "where, key, value, construct",
        [
            ("interval", "lower", "abc", lambda v: iv.Interval(v, math.inf)),
            ("interval", "upper", True, lambda v: iv.Interval(0, v)),
            ("interval", "lower", 10 ** 400, lambda v: iv.Interval(v, math.inf)),
            ("interval", "lower_open", "no", lambda v: iv.Interval(0, math.inf, v)),
            ("interval", "upper_open", 0, lambda v: iv.Interval(0, math.inf, True, v)),
            ("means[2]", "order", "1.5", lambda v: iv.PowerMeanSpec(v, 2)),
            ("means[2]", "order", math.inf, lambda v: iv.PowerMeanSpec(v, 2)),
            ("means[2]", "arity", 0, lambda v: iv.PowerMeanSpec(1, v)),
        ],
    )
    def test_value_check_has_the_constructor_text(self, where, key, value, construct):
        with pytest.raises(iv.ValidationError) as lib:
            construct(value)
        raw = minimal_spec_dict()
        entry = raw["interval"] if where == "interval" else raw["means"][1]
        entry[key] = value
        with pytest.raises(iv.SpecError) as spec:
            mapping_spec_from_dict(raw)
        assert str(spec.value) == f"{where}: {lib.value}"

    def test_domain_check_has_the_make_power_mean_text(self):
        with pytest.raises(iv.ValidationError) as lib:
            iv.make_power_mean(iv.PowerMeanSpec(-1, 2), iv.Interval(-1, math.inf))
        raw = minimal_spec_dict()
        raw["interval"]["lower"] = -1
        with pytest.raises(iv.SpecError) as spec:
            mapping_spec_from_dict(raw)
        assert str(spec.value) == str(lib.value)

    def test_row_check_has_the_composed_mapping_text(self):
        means = (
            iv.make_power_mean(iv.PowerMeanSpec(-1, 2)),
            iv.make_power_mean(iv.PowerMeanSpec(1, 2)),
        )
        with pytest.raises(iv.ShapeError) as lib:
            iv.ComposedMapping(means, iv.POSITIVE_REALS, iv.IndexVector([[1], [1, 2]]))
        raw = minimal_spec_dict()
        raw["alpha"][0] = [1]
        with pytest.raises(iv.SpecError) as spec:
            mapping_spec_from_dict(raw)
        assert str(spec.value) == str(lib.value)

    def test_build_returns_the_mapping_built_at_load(self):
        spec = load_mapping_spec(fixture_path("example2.json"))
        assert spec.build() is spec.build()

    def test_loading_compiles_no_step(self, monkeypatch):
        # the mapping is built at load; its step is compiled on first use
        names = []
        monkeypatch.setattr(
            iv.means, "compile", lambda *a: names.append(a[1]) or compile(*a), raising=False
        )
        mappings = [load_mapping_spec(fixture_path(name)).build() for name in FIXTURES]
        assert names == []
        mappings[0].apply((1.0, 2.0, 3.0, 4.0))
        assert names == ["<invmean ComposedMapping._steps p=4>"]


def load_means_text(entries):
    """Load, through JSON text, a spec whose coordinate i is means entry i
    of arity 2, fed by coordinates 1 and 2."""
    raw = {
        "p": len(entries),
        "interval": {"lower": 0, "upper": None},
        "means": entries,
        "alpha": [[1, 2]] * len(entries),
    }
    return load_mapping_spec(json.dumps(raw))


class TestDistinctMeans:
    """Each distinct means entry is parsed and built once per load; the
    coordinates that repeat it share its Mean.  Entries that JSON tells
    apart are never merged, even where Python's == would merge them."""

    @pytest.mark.parametrize(
        "key, first, second, message",
        [
            ("arity", 2, 2.0, "means[2]: power-mean arity must be an integer >= 1, got 2.0"),
            ("order", 1, True, "means[2]: order must be a number, got True"),
            ("order", 1, [1], "means[2]: order must be a number, got [1]"),
        ],
    )
    def test_a_bad_repeat_of_a_good_entry_raises_its_own_error(self, key, first, second, message):
        entries = [{"kind": "power", "order": 1, "arity": 2} for _ in range(3)]
        entries[0][key] = first
        entries[1][key] = second
        with pytest.raises(iv.SpecError) as info:
            load_means_text(entries)
        assert str(info.value) == message

    def test_signed_zero_orders_keep_their_labels(self):
        entries = [{"kind": "power", "order": s, "arity": 2} for s in (0.0, -0.0, 0.0, -0.0)]
        means = load_means_text(entries).build().means
        assert [m.label for m in means] == ["P_0", "P_-0", "P_0", "P_-0"]
        assert [math.copysign(1, m.evaluator.order) for m in means] == [1, -1, 1, -1]

    def test_loaded_ring_equals_one_mean_per_row(self):
        p = 12
        orders = [-1.0 if i % 2 == 0 else 1.0 for i in range(p)]
        alpha = [[i + 1, (i + 1) % p + 1] for i in range(p)]
        raw = {
            "p": p,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "power", "order": s, "arity": 2} for s in orders],
            "alpha": alpha,
        }
        per_row = iv.ComposedMapping(
            tuple(iv.make_power_mean(iv.PowerMeanSpec(s, 2)) for s in orders),
            iv.POSITIVE_REALS,
            iv.IndexVector(alpha),
        )
        loaded = load_mapping_spec(json.dumps(raw)).build()
        assert loaded == per_row
        assert len({id(m) for m in loaded.means}) == 2

    def test_a_repeated_entry_is_built_once(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return iv.make_power_mean(*args, **kwargs)

        monkeypatch.setattr(iv.specfile, "make_power_mean", counting)
        means = load_means_text([{"kind": "arithmetic", "arity": 2}] * 1000).build().means
        assert len(built) == 1
        assert len(means) == 1000 and means[0] is means[-1]

    def test_no_mean_is_shared_between_loads(self):
        text = json.dumps(minimal_spec_dict())
        first, second = (load_mapping_spec(text).build() for _ in range(2))
        assert first == second
        assert not {id(m) for m in first.means} & {id(m) for m in second.means}


class TestFixtureAccess:
    def test_all_fixture_paths_exist(self):
        for name in FIXTURES:
            assert fixture_path(name).exists()

    def test_fixtures_are_the_json_files_of_the_package(self):
        assert FIXTURES == tuple(f"example{k}.json" for k in range(2, 7))

    def test_unknown_fixture(self):
        with pytest.raises(iv.SpecError, match="unknown fixture"):
            fixture_path("example7.json")
