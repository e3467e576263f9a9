"""Tests for CSV persistence."""

import csv
import io

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.io import dataset_to_csv_text, read_csv, write_csv


@pytest.fixture()
def dataset():
    return MeasurementDataset({
        "gpu_label": np.array(["a", "b"], dtype=object),
        "day": np.array([0, 3], dtype=np.int64),
        "power_w": np.array([297.5, 255.0]),
        "power_capped": np.array([True, False]),
    })


class TestRoundtrip:
    def test_plain_csv(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(dataset, path)
        back = read_csv(path)
        assert back.column_names == dataset.column_names
        np.testing.assert_array_equal(back["gpu_label"], dataset["gpu_label"])
        np.testing.assert_allclose(back["power_w"], dataset["power_w"])
        assert back["day"].dtype == np.int64
        assert back["power_capped"].dtype == bool
        np.testing.assert_array_equal(back["power_capped"], [True, False])

    def test_gzipped_csv(self, dataset, tmp_path):
        path = tmp_path / "data.csv.gz"
        write_csv(dataset, path)
        back = read_csv(path)
        np.testing.assert_allclose(back["power_w"], dataset["power_w"])
        # And the file really is gzip.
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_campaign_dataset_roundtrip(self, sgemm_dataset, tmp_path):
        path = tmp_path / "campaign.csv.gz"
        write_csv(sgemm_dataset, path)
        back = read_csv(path)
        assert back.n_rows == sgemm_dataset.n_rows
        np.testing.assert_allclose(
            back["performance_ms"], sgemm_dataset["performance_ms"]
        )


class TestSerialization:
    def test_text_matches_cell_by_cell_formatting(self):
        # Oracle: one csv row per table row, each cell the numpy scalar
        # itself (csv.writer str()s it).  The writer converts columns in
        # chunks, so the table spans several chunks and ends mid-chunk;
        # float32/float16 must keep their short str(), not float64 digits.
        n = 2 * 4096 + 3
        rng = np.random.default_rng(5)
        ds = MeasurementDataset({
            "label": np.asarray([f'g{i % 7},"x"' for i in range(n)],
                                dtype=object),
            "day": rng.integers(-5, 5, n),
            "f8": rng.normal(0.0, 1e3, n),
            "f4": rng.normal(0.0, 1.0, n).astype(np.float32),
            "f2": rng.normal(0.0, 1.0, n).astype(np.float16),
            "capped": rng.random(n) < 0.5,
        })
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["label:s", "day:i", "f8:f", "f4:f", "f2:f",
                         "capped:b"])
        columns = [ds.column(name) for name in ds.column_names]
        for i in range(n):
            writer.writerow([col[i] for col in columns])
        assert dataset_to_csv_text(ds) == expected.getvalue()


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_header_without_types(self, tmp_path):
        path = tmp_path / "naked.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="dtype annotation"):
            read_csv(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a:q\n1\n")
        with pytest.raises(DatasetError, match="unknown column kind"):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a:f,b:f\n1,2\n3\n")
        with pytest.raises(DatasetError, match="fields"):
            read_csv(path)
