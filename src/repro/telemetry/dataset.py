"""Long-form measurement datasets (the study's 18,800 hours of records).

A :class:`MeasurementDataset` is a minimal columnar table — a dict of
equal-length NumPy arrays — with exactly the operations the analysis suite
needs: filtering, grouping, concatenation, and derived columns.  It avoids
a pandas dependency while staying vectorized.

Every grouped operation (``groupby``, ``group_reduce``, ``per_gpu_median``
and the per-node passes in :mod:`repro.core`) goes through one
:class:`GroupIndex` per key column: a single sort, built on first use and
cached on the (immutable) dataset, so grouping costs O(rows log rows)
instead of one full-column mask per group.

Conventions: one row per (GPU, run); metric columns follow
:mod:`repro.telemetry.sample` names; identity columns (``cluster``,
``workload``, ``gpu_label``, ``node_label``, ``cabinet``, ``day`` ...) are
produced by the campaign runner.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import DatasetError

__all__ = ["GroupIndex", "MeasurementDataset"]


def _as_column(values: Any) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in ("U", "S", "O"):
        return arr.astype(object)
    return arr


class GroupIndex:
    """The rows of one key column, grouped by a single stable sort.

    Attributes
    ----------
    keys:
        Sorted unique key values (``np.unique`` of the column).
    first_index:
        Row of each group's first occurrence.
    inverse:
        Group number of every row.
    order:
        Row numbers sorted by group; stable, so each group's rows keep
        their original order.
    bounds:
        Group ``g`` is ``order[bounds[g]:bounds[g + 1]]``.
    counts:
        Rows per group.
    """

    __slots__ = ("keys", "first_index", "inverse", "order", "bounds", "counts")

    def __init__(self, column: np.ndarray) -> None:
        self.keys, self.first_index, self.inverse, self.counts = np.unique(
            column, return_index=True, return_inverse=True, return_counts=True
        )
        self.order = np.argsort(self.inverse, kind="stable")
        self.bounds = np.zeros(self.keys.shape[0] + 1, dtype=np.intp)
        np.cumsum(self.counts, out=self.bounds[1:])

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def rows(self, group: int) -> np.ndarray:
        """Row numbers of group ``group``, in original row order."""
        return self.order[self.bounds[group]:self.bounds[group + 1]]

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc.reduce`` over each group, e.g. ``np.maximum`` or ``np.add``."""
        return ufunc.reduceat(values[self.order], self.bounds[:-1])

    def median(self, values: np.ndarray) -> np.ndarray:
        """Each group's median, bitwise equal to ``np.median`` of its rows.

        One ``lexsort`` by (group, value) puts every group's values in
        order; the median is the middle element, or the mean of the two
        middle ones for even counts (``np.median`` takes ``np.mean`` of
        the same one or two elements, so the dtype and rounding agree).
        NaN sorts last, so a group whose last element is NaN contains one
        and its median is NaN, as in ``np.median``.
        """
        if len(self) == 0:
            return np.array([])
        ordered = values[np.lexsort((values, self.inverse))]
        starts = self.bounds[:-1]
        lower = ordered[starts + (self.counts - 1) // 2]
        upper = ordered[starts + self.counts // 2]
        medians = np.mean(lower[np.newaxis], axis=0)
        even = self.counts % 2 == 0
        medians[even] = np.mean(np.stack([lower[even], upper[even]]), axis=0)
        if values.dtype.kind == "f":
            last = ordered[self.bounds[1:] - 1]
            np.copyto(medians, last, where=np.isnan(last))
        return medians


class MeasurementDataset:
    """A columnar table of measurements.

    Parameters
    ----------
    columns:
        Mapping of column name to 1-D array-like; all columns must have the
        same length.  String-ish columns are stored as object arrays.
    """

    def __init__(self, columns: Mapping[str, Any]) -> None:
        if not columns:
            raise DatasetError("a dataset needs at least one column")
        data: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = _as_column(values)
            if arr.ndim != 1:
                raise DatasetError(f"column {name!r} must be 1-D, got {arr.ndim}-D")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DatasetError(
                    f"column {name!r} has {arr.shape[0]} rows, expected {n}"
                )
            data[name] = arr
        self._data = data
        self._n = int(n if n is not None else 0)
        self._groups: dict[str, GroupIndex] = {}

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._data)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def column(self, name: str) -> np.ndarray:
        """The array backing column ``name`` (do not mutate)."""
        try:
            return self._data[name]
        except KeyError:
            raise DatasetError(
                f"unknown column {name!r}; have {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    # -- construction -----------------------------------------------------------

    @classmethod
    def concat(cls, parts: Sequence["MeasurementDataset"]) -> "MeasurementDataset":
        """Stack datasets with identical columns."""
        if not parts:
            raise DatasetError("cannot concat zero datasets")
        names = parts[0].column_names
        for p in parts[1:]:
            if p.column_names != names:
                raise DatasetError(
                    f"column mismatch: {names} vs {p.column_names}"
                )
        return cls({
            name: np.concatenate([p.column(name) for p in parts])
            for name in names
        })

    def with_column(self, name: str, values: Any) -> "MeasurementDataset":
        """A copy with column ``name`` added or replaced."""
        arr = _as_column(values)
        if arr.shape[0] != self._n:
            raise DatasetError(
                f"new column {name!r} has {arr.shape[0]} rows, expected {self._n}"
            )
        data = dict(self._data)
        data[name] = arr
        return MeasurementDataset(data)

    # -- selection ---------------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "MeasurementDataset":
        """Rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise DatasetError(
                f"mask must have shape ({self._n},), got {mask.shape}"
            )
        return MeasurementDataset({k: v[mask] for k, v in self._data.items()})

    def where(self, **equals: Any) -> "MeasurementDataset":
        """Rows where every ``column == value`` condition holds."""
        mask = np.ones(self._n, dtype=bool)
        for name, value in equals.items():
            mask &= self.column(name) == value
        return self.filter(mask)

    def sort_by(self, name: str) -> "MeasurementDataset":
        """Rows sorted ascending by column ``name`` (stable)."""
        return self._take(np.argsort(self.column(name), kind="stable"))

    def _take(self, rows: np.ndarray) -> "MeasurementDataset":
        return MeasurementDataset({k: v[rows] for k, v in self._data.items()})

    # -- grouping ---------------------------------------------------------------

    def unique(self, name: str) -> np.ndarray:
        """Sorted unique values of a column."""
        return np.unique(self.column(name))

    def group_index(self, name: str) -> GroupIndex:
        """The :class:`GroupIndex` of column ``name`` (built once, cached)."""
        index = self._groups.get(name)
        if index is None:
            # Threads racing here build equal indexes; either may be kept.
            index = self._groups[name] = GroupIndex(self.column(name))
        return index

    def groupby(self, name: str) -> Iterator[tuple[Any, "MeasurementDataset"]]:
        """Iterate ``(value, subset)`` over groups of column ``name``."""
        index = self.group_index(name)
        for group, value in enumerate(index.keys):
            yield value, self._take(index.rows(group))

    def group_reduce(
        self,
        key: str,
        value: str,
        reducer: Callable[[np.ndarray], float] = np.median,
    ) -> dict[Any, float]:
        """Reduce one column per group, e.g. median power per cabinet.

        ``reducer`` sees each group's values in original row order.
        """
        index = self.group_index(key)
        values = self.column(value)
        return {
            group: float(reducer(values[index.rows(g)]))
            for g, group in enumerate(index.keys)
        }

    def per_gpu_median(self, value: str, gpu_key: str = "gpu_index") -> "MeasurementDataset":
        """Collapse runs to one row per GPU with the median of ``value``.

        The paper's box plots use per-GPU medians to suppress one-off
        transients (Section III).  All identity columns that are constant
        within a GPU group are carried through; varying ones are dropped.
        """
        index = self.group_index(gpu_key)
        out: dict[str, np.ndarray] = {}
        for name in self.column_names:
            if name == value:
                continue
            col = self._data[name]
            representative = col[index.first_index]
            # Keep the column only if it is constant within every group.
            if bool(np.all(col == representative[index.inverse])):
                out[name] = representative
        out[value] = index.median(self.column(value))
        return MeasurementDataset(out)

    # -- export ---------------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize as a list of row dicts (small datasets only)."""
        names = self.column_names
        return [
            {name: self._data[name][i] for name in names}
            for i in range(self._n)
        ]

    def head(self, n: int = 5) -> "MeasurementDataset":
        """The first ``n`` rows."""
        return MeasurementDataset({k: v[:n] for k, v in self._data.items()})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MeasurementDataset(rows={self._n}, "
            f"columns={self.column_names})"
        )
