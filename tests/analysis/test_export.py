"""CSV export tests."""

import csv
import io

import pytest

from repro.analysis.experiments import fig3_unrolling, fig7_conv1, table4_cpu_comparison
from repro.analysis.export import rows_to_dicts, to_csv, write_csv
from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError


class TestRowsToDicts:
    def test_fields_present(self):
        records = rows_to_dicts(fig7_conv1(configs=[CONFIG_16_16]))
        assert set(records[0]) == {"config", "network", "scheme", "cycles"}

    def test_derived_properties_included(self):
        records = rows_to_dicts(fig3_unrolling())
        assert "factor" in records[0]
        assert records[0]["factor"] == pytest.approx(
            records[0]["unrolled_bits"] / records[0]["raw_bits"]
        )

    def test_table4_speedups_included(self):
        records = rows_to_dicts(table4_cpu_comparison())
        assert "speedup16" in records[0] and "speedup32" in records[0]

    def test_empty(self):
        assert rows_to_dicts([]) == []

    def test_non_dataclass_rejected(self):
        with pytest.raises(ConfigError):
            rows_to_dicts([{"not": "a dataclass"}])


class TestCsv:
    def test_roundtrip(self):
        rows = fig7_conv1(configs=[CONFIG_16_16])
        text = to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert parsed[0]["network"] == rows[0].network
        assert float(parsed[0]["cycles"]) == rows[0].cycles

    def test_empty(self):
        assert to_csv([]) == ""

    def test_write(self, tmp_path):
        path = tmp_path / "fig7.csv"
        write_csv(fig7_conv1(configs=[CONFIG_16_16]), str(path))
        assert path.read_text().startswith("config,network,scheme,cycles")

