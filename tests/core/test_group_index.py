"""The cached sort-based group index against brute-force mask-loop oracles.

Every grouped analysis pass runs on one :class:`GroupIndex` per key column.
The properties here check, on random ragged tables (unsorted int and
string keys, shuffled rows, NaN, ties, even and odd run counts, a single
GPU, int and float columns), that each pass is *bitwise* equal to the
O(groups x rows) oracle in ``group_oracles.py``; a doubling test pins the
scaling itself.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.repeatability import per_gpu_repeatability
from repro.core.scheduler import (
    node_variability_scores,
    slow_assignment_probability,
)
from repro.errors import AnalysisError
from repro.telemetry.dataset import MeasurementDataset
from tests.core.group_oracles import (
    node_variability_scores_oracle,
    per_gpu_median_oracle,
    per_gpu_repeatability_oracle,
    slow_assignment_probability_oracle,
)

METRIC = "performance_ms"

_floats = st.one_of(
    st.sampled_from([1.0, 2.0, 2.5, 1000.0]),  # ties
    # ``+ 0.0`` turns -0.0 into 0.0: the order of equal zeros is not part
    # of any sort's contract, so their sign cannot be compared bitwise.
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    .map(lambda x: x + 0.0),
)


@st.composite
def ragged_tables(draw, value_kinds=("f8", "f4", "i8")):
    """A long-form table: ragged runs per GPU, rows in random order."""
    n_gpus = draw(st.integers(1, 10))
    if draw(st.booleans()):
        keys = np.asarray(draw(st.lists(
            st.integers(-1000, 1000), min_size=n_gpus, max_size=n_gpus,
            unique=True)), dtype=np.int64)
    else:
        keys = np.asarray(draw(st.lists(
            st.text(alphabet="ab-z09", min_size=1, max_size=4),
            min_size=n_gpus, max_size=n_gpus, unique=True)), dtype=object)
    runs = draw(st.lists(st.integers(1, 6), min_size=n_gpus, max_size=n_gpus))
    width = draw(st.integers(1, 4))
    gpu = np.repeat(np.arange(n_gpus), runs)
    gpu = gpu[draw(st.permutations(range(gpu.shape[0])))]
    n = gpu.shape[0]

    kind = draw(st.sampled_from(value_kinds))
    if kind == "i8":
        values = np.asarray(draw(st.lists(
            st.integers(-10**6, 10**6), min_size=n, max_size=n)),
            dtype=np.int64)
    else:
        values = np.asarray(
            draw(st.lists(_floats, min_size=n, max_size=n)), dtype=kind)
        nan_rows = draw(st.lists(st.integers(0, n - 1), max_size=3))
        values[nan_rows] = np.nan

    node = np.asarray([f"node-{g // width}" for g in gpu], dtype=object)
    return MeasurementDataset({
        "gpu_index": keys[gpu],
        "gpu_label": np.asarray(
            [f"{nd}-gpu{g % width}" for nd, g in zip(node, gpu)],
            dtype=object),
        "node_label": node,
        "run": np.arange(n, dtype=np.int64),  # varies within a GPU: dropped
        METRIC: values,
    })


def assert_bitwise_equal(actual, expected):
    if isinstance(expected, MeasurementDataset):
        assert actual.column_names == expected.column_names
        for name in expected.column_names:
            assert_bitwise_equal(actual.column(name), expected.column(name))
        return
    assert actual.dtype == expected.dtype
    if expected.dtype == object:
        assert actual.tolist() == expected.tolist()
    else:
        assert actual.tobytes() == expected.tobytes()


def _outcome(fn, *args, **kwargs):
    """A pass's result as hex-exact floats, or the error it raised."""
    try:
        result = fn(*args, **kwargs)
    except AnalysisError as exc:
        return ("error", str(exc))
    if isinstance(result, dict):
        return sorted((key, value.hex()) for key, value in result.items())
    return result.hex()


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(ds=ragged_tables())
    def test_per_gpu_median(self, ds):
        assert_bitwise_equal(ds.per_gpu_median(METRIC),
                             per_gpu_median_oracle(ds, METRIC))

    @settings(max_examples=100, deadline=None)
    @given(ds=ragged_tables(value_kinds=("f8", "i8")),
           n_gpus=st.integers(1, 5))
    def test_slow_assignment_probability(self, ds, n_gpus):
        assert _outcome(slow_assignment_probability, ds, n_gpus=n_gpus) == (
            _outcome(slow_assignment_probability_oracle, ds, n_gpus=n_gpus))

    @settings(max_examples=100, deadline=None)
    @given(ds=ragged_tables(value_kinds=("f8", "i8")))
    def test_node_variability_scores(self, ds):
        assert _outcome(node_variability_scores, ds) == (
            _outcome(node_variability_scores_oracle, ds))

    @settings(max_examples=100, deadline=None)
    @given(ds=ragged_tables(value_kinds=("f8", "i8")),
           min_runs=st.integers(2, 4))
    def test_per_gpu_repeatability(self, ds, min_runs):
        try:
            expected = per_gpu_repeatability_oracle(ds, METRIC,
                                                    min_runs=min_runs)
        except AnalysisError as exc:
            with pytest.raises(AnalysisError, match=str(exc)):
                per_gpu_repeatability(ds, METRIC, min_runs=min_runs)
            return
        assert_bitwise_equal(
            per_gpu_repeatability(ds, METRIC, min_runs=min_runs), expected)

    @settings(max_examples=60, deadline=None)
    @given(ds=ragged_tables(), key=st.sampled_from(["gpu_index",
                                                    "node_label"]))
    def test_group_reduce_sees_rows_in_original_order(self, ds, key):
        seen: list[np.ndarray] = []

        def first_value(v):  # order-sensitive on purpose
            seen.append(v.copy())
            return v[0]

        result = ds.group_reduce(key, METRIC, reducer=first_value)
        col, values = ds.column(key), ds.column(METRIC)
        groups = np.unique(col)
        assert list(result) == groups.tolist()
        assert len(seen) == groups.shape[0]
        for group, got in zip(groups, seen):
            assert_bitwise_equal(got, values[col == group])

    @settings(max_examples=60, deadline=None)
    @given(ds=ragged_tables(), key=st.sampled_from(["gpu_index",
                                                    "node_label"]))
    def test_groupby_matches_filter(self, ds, key):
        col = ds.column(key)
        pairs = list(ds.groupby(key))
        assert [value for value, _ in pairs] == np.unique(col).tolist()
        for value, subset in pairs:
            assert_bitwise_equal(subset, ds.filter(col == value))


class TestEdgeCases:
    def test_even_count_is_mean_of_middle_pair(self):
        ds = MeasurementDataset({"gpu_index": [7, 7, 7, 7, 3, 3],
                                 METRIC: [4.0, 1.0, 3.0, 2.0, 5.0, 6.0]})
        med = ds.per_gpu_median(METRIC)
        assert med["gpu_index"].tolist() == [3, 7]
        assert med[METRIC].tolist() == [5.5, 2.5]

    def test_nan_anywhere_in_a_group_gives_nan(self):
        ds = MeasurementDataset({"gpu_index": [0, 0, 0, 1, 1, 1],
                                 METRIC: [1.0, np.nan, 2.0, 1.0, 2.0, 3.0]})
        med = ds.per_gpu_median(METRIC)[METRIC]
        assert np.isnan(med[0]) and med[1] == 2.0

    def test_one_gpu_int_column(self):
        ds = MeasurementDataset({"gpu_index": [5, 5], METRIC: [1, 2]})
        med = ds.per_gpu_median(METRIC)
        assert med[METRIC].dtype == np.float64
        assert med[METRIC].tolist() == [1.5]

    def test_empty_dataset(self):
        ds = MeasurementDataset({"gpu_index": np.array([], dtype=np.int64),
                                 METRIC: np.array([])})
        assert_bitwise_equal(ds.per_gpu_median(METRIC),
                             per_gpu_median_oracle(ds, METRIC))
        assert list(ds.groupby("gpu_index")) == []
        assert ds.group_reduce("gpu_index", METRIC) == {}

    def test_index_is_built_once_per_column(self):
        ds = MeasurementDataset({"gpu_index": [1, 0, 1], METRIC: [1.0] * 3})
        index = ds.group_index("gpu_index")
        ds.per_gpu_median(METRIC)
        list(ds.groupby("gpu_index"))
        assert ds.group_index("gpu_index") is index
        assert index.order.tolist() == [1, 0, 2]
        assert index.bounds.tolist() == [0, 1, 3]


def _fleet_table(n_gpus, runs, seed=0):
    rng = np.random.default_rng(seed)
    gpu = np.tile(rng.permutation(n_gpus), runs)
    nodes = np.asarray([f"n{g // 6:05d}" for g in range(n_gpus)], dtype=object)
    labels = np.asarray([f"{nodes[g]}-g{g % 6}" for g in range(n_gpus)],
                        dtype=object)
    return MeasurementDataset({
        "gpu_index": gpu.astype(np.int64),
        "gpu_label": labels[gpu],
        "node_label": nodes[gpu],
        "day": np.repeat(np.arange(runs), n_gpus).astype(np.int64),
        METRIC: rng.lognormal(3.0, 0.05, gpu.shape[0]),
    })


def test_per_gpu_median_scales_linearly():
    """4x the GPUs must cost under 8x the time.

    At 48 runs per GPU the sort-based pass grows about 5x from 2,000 to
    8,000 GPUs (96k to 384k rows, n log n plus cache effects); a mask per
    GPU grows about 14x, approaching the 16x of O(GPUs x rows).  Each
    timing is on a fresh table, so it includes building the index; the
    minimum of three damps scheduler noise.
    """

    def best_time(n_gpus):
        times = []
        for seed in range(3):
            ds = _fleet_table(n_gpus, runs=48, seed=seed)
            started = time.perf_counter()
            ds.per_gpu_median(METRIC)
            times.append(time.perf_counter() - started)
        return min(times)

    small, large = best_time(2_000), best_time(8_000)
    assert large < 8.0 * small, (
        f"per_gpu_median: {small * 1e3:.1f} ms at 2,000 GPUs, "
        f"{large * 1e3:.1f} ms at 8,000 ({large / small:.1f}x)"
    )
