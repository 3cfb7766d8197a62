"""Stage-indexed series, rate-law fits, and the CSV round trip.

Everything downstream of a run is a SeriesResult: a strictly increasing
integer stage axis, one value per stage, optional extra columns, and a meta
mapping that records who produced it and under what seed.  Fits are plain
least squares in transformed coordinates; they exist to read off exponents
and check straightness, not to do inference.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

# rows formatted or parsed at a time: the CSV layer holds one chunk of Python
# objects, whatever the row count
_CSV_CHUNK = 256
_GRID_DENSE = 100  # default_grid keeps every stage up to here
_GRID_GEOMETRIC = 100


@dataclass
class SeriesResult:
    stages: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.stages = np.asarray(self.stages, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.stages.ndim != 1 or self.values.ndim != 1:
            raise ValueError("stages and values must be one-dimensional")
        if self.stages.shape != self.values.shape:
            raise ValueError(
                f"stages and values must match, got {self.stages.shape} vs {self.values.shape}"
            )
        if self.stages.size == 0:
            raise ValueError("series must contain at least one stage")
        if self.stages[0] < 1 or (self.stages[1:] <= self.stages[:-1]).any():  # no O(rows) int64 temporary
            raise ValueError("stages must be strictly increasing and 1-based")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        for name, col in self.extra.items():
            arr = np.asarray(col)
            if arr.shape != self.stages.shape:
                raise ValueError(f"extra column {name!r} has shape {arr.shape}, expected {self.stages.shape}")
            self.extra[name] = arr

    def _index(self, stage: int) -> int:
        idx = np.searchsorted(self.stages, stage)
        if idx >= self.stages.size or self.stages[idx] != stage:
            raise KeyError(f"stage {stage} not in series")
        return idx

    def value_at(self, stage: int) -> float:
        return float(self.values[self._index(stage)])

    def extra_at(self, name: str, stage: int) -> float:
        return float(self.extra[name][self._index(stage)])


def default_grid(last_stage: int) -> np.ndarray:
    """Every stage up to _GRID_DENSE, then _GRID_GEOMETRIC points spaced
    geometrically up to last_stage."""
    last_stage = check_count(last_stage, "last_stage")
    dense = np.arange(1, min(last_stage, _GRID_DENSE) + 1, dtype=np.int64)
    if last_stage <= _GRID_DENSE:
        return dense
    geo = np.rint(np.geomspace(_GRID_DENSE, last_stage, _GRID_GEOMETRIC)).astype(np.int64)
    return _sorted_union(dense, geo)


def _sorted_union(*parts) -> np.ndarray:
    """The distinct values of the parts, sorted: np.union1d without its
    np.unique, which imports numpy.ma."""
    merged = np.sort(np.concatenate(parts))
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def check_grid(grid, stages: int) -> np.ndarray:
    """The grid as a new int64 array of stages, checked to be strictly
    increasing inside [1, stages]; integer-valued floats are stages."""
    raw = np.asarray(grid)
    integral = raw.dtype.kind in "iu" or (raw.dtype.kind == "f" and np.isfinite(raw).all() and (raw % 1 == 0).all())
    if raw.ndim != 1 or raw.size == 0 or not integral:
        raise ValueError(f"grid must be a non-empty 1-d array of integer stages, got {raw.dtype} {raw.shape}")
    if raw[0] < 1 or raw[-1] > stages or (np.diff(raw) <= 0).any():
        raise ValueError("grid must be strictly increasing inside [1, stages]")
    return raw.astype(np.int64)


def check_count(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """value as an int inside [low, high), read as check_grid reads a stage:
    an integer-valued float counts; a bool, a fraction or a string does not."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral or not low <= value < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def store_floats(obj, *names, optional: bool = True) -> None:
    """Store each named field of a dataclass that is set as a float,
    refusing bools and strings (and None unless optional), so equal configs
    share one config_hash."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not (isinstance(value, numbers.Real) or optional and value is None):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        object.__setattr__(obj, name, None if value is None else float(value))


def _json_value(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare}
    raise TypeError(f"{type(obj).__name__} has no canonical JSON form")


def config_hash(payload) -> str:
    """The name of a run: the first 12 hex digits of the sha256 of the
    payload's canonical JSON, in which a dataclass reads as the fields its
    equality compares."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_json_value)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class FitResult:
    kind: str
    slope: float
    intercept: float
    r2: float
    n_points: int
    window: tuple[int, int]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centred = y - y.mean()
    ss_tot = float(centred @ centred)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _fit_points(series: SeriesResult, k_min: int, stage_floor: int = 1):
    m = (series.stages >= max(k_min, stage_floor)) & (series.values > 0.0)
    if int(m.sum()) < 10:
        raise ValueError(
            f"need at least 10 positive points at stages >= {max(k_min, stage_floor)}, have {int(m.sum())}"
        )
    ks = series.stages[m].astype(float)
    vs = series.values[m]
    return ks, vs


def fit_power(series: SeriesResult, k_min: int = 1) -> FitResult:
    """Least squares of log(value) on log(stage): value ~ C * k**slope."""
    ks, vs = _fit_points(series, k_min)
    slope, intercept, r2 = _ols(np.log(ks), np.log(vs))
    return FitResult("power", slope, intercept, r2, ks.size, (int(ks[0]), int(ks[-1])))


def fit_reciprocal_log(series: SeriesResult, transform: str = "log", k_min: int = 2, q: float | None = None) -> FitResult:
    """Least squares of 1/value on a logarithmic regressor.

    transform 'log' fits 1/value ~ a + b log k, 'log_pow' uses log(k)**q,
    'loglog' uses log(log k).  Stages below 2 (3 for loglog) are dropped so
    the regressor stays finite.
    """
    if transform not in ("log", "log_pow", "loglog"):
        raise ValueError(f"transform must be log, log_pow, or loglog, got {transform!r}")
    if transform == "log_pow" and (q is None or q <= 0.0):
        raise ValueError(f"log_pow transform needs q > 0, got {q!r}")
    floor = 3 if transform == "loglog" else 2
    ks, vs = _fit_points(series, k_min, stage_floor=floor)
    if transform == "log":
        x = np.log(ks)
    elif transform == "log_pow":
        x = np.log(ks) ** q
    else:
        x = np.log(np.log(ks))
    slope, intercept, r2 = _ols(x, 1.0 / vs)
    return FitResult(f"reciprocal_{transform}", slope, intercept, r2, ks.size, (int(ks[0]), int(ks[-1])))


def fit_power_of_log(series: SeriesResult, k_min: int = 3) -> FitResult:
    """Least squares of log(value) on log(log stage): value ~ C * (log k)**slope."""
    ks, vs = _fit_points(series, k_min, stage_floor=3)
    slope, intercept, r2 = _ols(np.log(np.log(ks)), np.log(vs))
    return FitResult("power_of_log", slope, intercept, r2, ks.size, (int(ks[0]), int(ks[-1])))


def theta_sandwich(series: SeriesResult, rate, k_min: int = 1) -> tuple[float, float]:
    """(min, max) of value / rate(stage) over stages >= k_min.

    A ratio pinched inside a narrow band is evidence the series really is
    of that order, not just bounded by it.
    """
    m = series.stages >= k_min
    if not m.any():
        raise ValueError(f"no stages at or beyond {k_min}")
    ks = series.stages[m].astype(float)
    r = np.asarray(rate(ks), dtype=float)
    if (r <= 0.0).any() or not np.isfinite(r).all():
        raise ValueError("rate must be positive and finite on the window")
    ratios = series.values[m] / r
    return float(ratios.min()), float(ratios.max())


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _column_cells(a: np.ndarray) -> list:
    """_format_cell over a column, in one pass for integer, float and bool dtypes."""
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    if a.dtype.kind in "fb":
        return list(map(repr, a.astype(float).tolist()))
    return [_format_cell(v) for v in a]


def write_series_csv(path, columns: dict, meta: dict) -> None:
    """Write columns (name -> 1-d array, first column the stage axis) with a
    single leading comment line of key=value pairs.  Output is byte-stable:
    floats are rendered with repr and newlines are always plain \\n."""
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[n]) for n in names]
    length = arrays[0].shape[0]
    for n, a in zip(names, arrays):
        if a.ndim != 1 or a.shape[0] != length:
            raise ValueError(f"column {n!r} must be 1-d of length {length}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + "\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, length, _CSV_CHUNK):
            cells = [_column_cells(a[lo : lo + _CSV_CHUNK]) for a in arrays]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def read_series_csv(path) -> tuple[dict, dict]:
    """Inverse of write_series_csv: (columns, meta).  The first column comes
    back as int64, the rest as float.  A count of line ends sizes the columns,
    which are then filled a chunk of rows at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        meta = {}
        if first.startswith("#"):
            for pair in first[1:].split():
                key, _, val = pair.partition("=")
                meta[key] = val
            header_line = fh.readline()
        else:
            header_line = first
        names = next(csv.reader([header_line]))
        start = fh.tell()
        # every row but the last ends in a line break, so this bounds the row count
        bound = 1 + sum(b.count("\n") + b.count("\r") for b in iter(partial(fh.read, 1 << 16), ""))
        fh.seek(start)
        cols = [np.empty(bound, dtype=np.int64)] + [np.empty(bound) for _ in names[1:]]
        parse = [int] + [float] * (len(names) - 1)
        reader, n = csv.reader(fh), 0
        while rows := list(islice(reader, _CSV_CHUNK)):
            ragged = [i for i, row in enumerate(rows, start=n + 1) if len(row) != len(names)]
            if ragged:  # zip(*rows) would cut every row to the shortest
                raise ValueError(f"{path}: data row {ragged[0]} does not have {len(names)} cells")
            for col, conv, cells in zip(cols, parse, zip(*rows)):
                col[n : n + len(rows)] = list(map(conv, cells))
            n += len(rows)
    if n == 0:
        raise ValueError(f"{path} contains no data rows")
    return {name: col[:n] for name, col in zip(names, cols)}, meta


def series_from_csv(path, column: str | None = None) -> SeriesResult:
    """Load a written CSV back into a SeriesResult, values taken from
    `column` (default: the second column)."""
    columns, meta = read_series_csv(path)
    names = list(columns)
    if len(names) < 2:
        raise ValueError(f"{path} has no value column")
    value_name = column if column is not None else names[1]
    if value_name not in columns or value_name == names[0]:
        raise ValueError(f"column {value_name!r} not found in {path}; have {names[1:]}")
    extra = {n: columns[n] for n in names[1:] if n != value_name}
    return SeriesResult(columns[names[0]], columns[value_name], meta=dict(meta), extra=extra)
