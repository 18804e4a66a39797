"""Tests for series keys."""

import dataclasses

import pytest

from repro.telemetry.metric import SeriesKey


class TestSeriesKey:
    def test_of_sorts_labels(self):
        k1 = SeriesKey.of("m", b="2", a="1")
        k2 = SeriesKey.of("m", a="1", b="2")
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_label_lookup(self):
        k = SeriesKey.of("m", node="n01")
        assert k.label("node") == "n01"
        assert k.label("missing") is None

    def test_with_labels_overrides(self):
        k = SeriesKey.of("m", node="n01")
        k2 = k.with_labels(node="n02", job="j1")
        assert k2.label("node") == "n02"
        assert k2.label("job") == "j1"
        # original untouched
        assert k.label("node") == "n01"

    def test_str_rendering(self):
        assert str(SeriesKey.of("power")) == "power"
        assert str(SeriesKey.of("power", node="n1")) == "power{node=n1}"

    def test_non_string_label_values_coerced(self):
        k = SeriesKey.of("m", idx=3)
        assert k.label("idx") == "3"

    def test_metric_name_is_part_of_the_identity(self):
        assert SeriesKey.of("power", node="n1") != SeriesKey.of("energy", node="n1")
        assert SeriesKey.of("power") != SeriesKey.of("power", node="n1")

    def test_with_labels_keeps_labels_sorted(self):
        k = SeriesKey.of("m", node="n1").with_labels(job=7, app="lammps")
        assert k.labels == (("app", "lammps"), ("job", "7"), ("node", "n1"))
        assert k == SeriesKey.of("m", app="lammps", job="7", node="n1")

    def test_str_lists_labels_in_key_order(self):
        assert str(SeriesKey.of("power", rack="r2", node="n1")) == "power{node=n1,rack=r2}"

    def test_keys_are_immutable(self):
        k = SeriesKey.of("m", node="n1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.metric = "other"
