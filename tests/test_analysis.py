"""Series container, fit, and CSV round-trip tests.

Fits are exercised on synthetic series built from the exact law being
fitted, so slopes and intercepts are known in advance.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from noisycast import analysis
from noisycast.analysis import (
    FitResult,
    SeriesResult,
    check_count,
    check_grid,
    default_grid,
    fit_power,
    fit_power_of_log,
    fit_reciprocal_log,
    read_series_csv,
    series_from_csv,
    theta_sandwich,
    write_series_csv,
)


class TestSeriesResult:
    def test_basic_lookup(self):
        s = SeriesResult(np.array([1, 5, 9]), np.array([0.5, 0.2, 0.1]))
        assert s.value_at(5) == 0.2
        with pytest.raises(KeyError):
            s.value_at(4)
        with pytest.raises(KeyError):
            s.value_at(10)

    def test_extra_lookup(self):
        s = SeriesResult(
            np.array([1, 2]), np.array([0.5, 0.4]), extra={"aux": np.array([7.0, 8.0])}
        )
        assert s.extra_at("aux", 2) == 8.0
        with pytest.raises(KeyError):
            s.extra_at("aux", 3)
        with pytest.raises(KeyError):
            s.extra_at("missing", 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesResult(np.array([1, 1]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            SeriesResult(np.array([0, 1]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            SeriesResult(np.array([2, 1]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            SeriesResult(np.array([1, 2]), np.array([0.5]))
        with pytest.raises(ValueError):
            SeriesResult(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            SeriesResult(np.array([1]), np.array([np.inf]))
        with pytest.raises(ValueError):
            SeriesResult(np.array([1, 2]), np.array([0.5, 0.4]), extra={"a": np.array([1.0])})

    def test_validation_makes_no_row_sized_float_temporary(self):
        """Checking the stages and values of 2 * 10**5 rows takes one boolean
        temporary at a time, about 0.19 MiB; an int64 np.diff of the stages
        would add 1.5 MiB more."""
        n = 200_000
        stages, values = np.arange(1, n + 1), np.full(n, 0.25)
        tracemalloc.start()
        try:
            series = SeriesResult(stages, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.stages is stages and series.values is values  # no copy to count
        assert peak < 2 * n


class TestDefaultGrid:
    def test_small_horizon_is_dense(self):
        np.testing.assert_array_equal(default_grid(7), np.arange(1, 8))
        np.testing.assert_array_equal(default_grid(100), np.arange(1, 101))

    def test_large_horizon(self):
        g = default_grid(10**6)
        assert g[0] == 1 and g[-1] == 10**6
        np.testing.assert_array_equal(g[:100], np.arange(1, 101))
        assert np.all(np.diff(g) > 0)
        assert g.size < 250

    def test_equals_the_unique_of_dense_and_geometric(self):
        """default_grid merges without np.unique; the reference is np.unique
        over the same dense and geometric parts."""
        for last_stage in [*range(1, 5001), *(10**e for e in range(4, 10)), 2 * 10**6, 12345678]:
            dense = np.arange(1, min(last_stage, 100) + 1, dtype=np.int64)
            geo = np.rint(np.geomspace(100, last_stage, 100)).astype(np.int64) if last_stage > 100 else dense
            grid = default_grid(last_stage)
            assert grid.dtype == np.int64
            np.testing.assert_array_equal(grid, np.unique(np.concatenate([dense, geo])), err_msg=str(last_stage))

    def test_validation(self):
        with pytest.raises(ValueError):
            default_grid(0)


class TestCheckCount:
    @pytest.mark.parametrize("value", [12, 12.0, 1.2e1, np.int64(12), np.uint64(12), np.float32(12.0)])
    def test_integral_values_are_counts(self, value):
        count = check_count(value, "stages")
        assert count == 12 and type(count) is int

    @pytest.mark.parametrize("value", [5.7, True, False, np.bool_(True), "12", None, float("nan"), float("inf"), 0, -3])
    def test_refused(self, value):
        with pytest.raises(ValueError, match="stages must be an integer in"):
            check_count(value, "stages")

    def test_reads_a_value_as_check_grid_reads_a_stage(self):
        for value in (3, 3.0, 2.5, True):
            try:
                grid_ok = check_grid([value], 10).tolist() == [3]
            except ValueError:
                grid_ok = False
            try:
                count_ok = check_count(value, "k") == 3
            except ValueError:
                count_ok = False
            assert grid_ok == count_ok

    def test_bounds(self):
        assert check_count(0, "seed", 0, 2**64) == 0
        assert check_count(2**64 - 1, "seed", 0, 2**64) == 2**64 - 1
        with pytest.raises(ValueError):
            check_count(2**64, "seed", 0, 2**64)


class TestFits:
    def _stages(self):
        return np.unique(np.geomspace(1, 10**5, 200).astype(np.int64))

    def test_power_on_exact_law(self):
        ks = self._stages()
        series = SeriesResult(ks, 3.0 * ks.astype(float) ** -0.7)
        fit = fit_power(series)
        assert fit.kind == "power"
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.window[0] >= 1 and fit.window[1] == ks[-1]

    def test_power_window_restriction(self):
        ks = self._stages()
        vals = 3.0 * ks.astype(float) ** -0.7
        vals[ks < 50] = 17.0  # garbage head that k_min must exclude
        fit = fit_power(SeriesResult(ks, vals), k_min=50)
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.window[0] >= 50

    def test_reciprocal_log_on_exact_law(self):
        ks = self._stages()[self._stages() >= 2]
        series = SeriesResult(ks, 1.0 / (0.4 + 2.0 * np.log(ks.astype(float))))
        fit = fit_reciprocal_log(series)
        assert fit.kind == "reciprocal_log"
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.4, abs=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_reciprocal_log_pow(self):
        ks = self._stages()[self._stages() >= 2]
        lk = np.log(ks.astype(float))
        series = SeriesResult(ks, 1.0 / (1.0 + 0.5 * lk**1.7))
        fit = fit_reciprocal_log(series, transform="log_pow", q=1.7)
        assert fit.kind == "reciprocal_log_pow"
        assert fit.slope == pytest.approx(0.5, abs=1e-10)
        with pytest.raises(ValueError):
            fit_reciprocal_log(series, transform="log_pow")

    def test_reciprocal_loglog(self):
        ks = self._stages()[self._stages() >= 3]
        lk = np.log(np.log(ks.astype(float)))
        series = SeriesResult(ks, 1.0 / (2.0 + 3.0 * lk))
        fit = fit_reciprocal_log(series, transform="loglog")
        assert fit.kind == "reciprocal_loglog"
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        with pytest.raises(ValueError):
            fit_reciprocal_log(series, transform="exp")

    def test_power_of_log_on_exact_law(self):
        ks = self._stages()[self._stages() >= 3]
        series = SeriesResult(ks, 0.8 * np.log(ks.astype(float)) ** -1.3)
        fit = fit_power_of_log(series)
        assert fit.kind == "power_of_log"
        assert fit.slope == pytest.approx(-1.3, abs=1e-10)

    def test_too_few_points(self):
        series = SeriesResult(np.arange(1, 6), np.full(5, 0.5))
        with pytest.raises(ValueError, match="at least 10"):
            fit_power(series)

    def test_nonpositive_values_dropped(self):
        ks = np.arange(1, 30)
        vals = ks.astype(float) ** -1.0
        vals[:15] = 0.0
        fit = fit_power(SeriesResult(ks, vals))
        assert fit.n_points == 14
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)


class TestThetaSandwich:
    def test_exact_rate_gives_flat_band(self):
        ks = np.arange(10, 200)
        series = SeriesResult(ks, 5.0 / np.sqrt(ks.astype(float)))
        lo, hi = theta_sandwich(series, lambda k: k**-0.5)
        assert lo == pytest.approx(5.0, rel=1e-12)
        assert hi == pytest.approx(5.0, rel=1e-12)

    def test_window(self):
        ks = np.arange(1, 100)
        vals = ks.astype(float) ** -1.0
        vals[0] = 100.0
        lo, hi = theta_sandwich(SeriesResult(ks, vals), lambda k: 1.0 / k, k_min=2)
        assert hi / lo == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        series = SeriesResult(np.arange(1, 10), np.ones(9))
        with pytest.raises(ValueError):
            theta_sandwich(series, lambda k: 1.0 / k, k_min=50)
        with pytest.raises(ValueError):
            theta_sandwich(series, lambda k: 0.0 * k)


class TestCsv:
    def _write(self, path):
        cols = {
            "k": np.array([1, 2, 30], dtype=np.int64),
            "pe": np.array([0.25, 0.2275, 1e-9]),
            "aux": np.array([1.0, 0.5, 1.0 / 3.0]),
        }
        write_series_csv(path, cols, meta={"seed": 7, "producer": "exact"})
        return cols

    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        cols = self._write(path)
        back, meta = read_series_csv(path)
        assert meta == {"seed": "7", "producer": "exact"}
        np.testing.assert_array_equal(back["k"], cols["k"])
        assert back["k"].dtype == np.int64
        # repr round trip keeps every bit of every float
        np.testing.assert_array_equal(back["pe"], cols["pe"])
        np.testing.assert_array_equal(back["aux"], cols["aux"])

    def test_meta_line_sorted(self, tmp_path):
        path = tmp_path / "series.csv"
        self._write(path)
        first = path.read_text().splitlines()[0]
        assert first == "# producer=exact seed=7"

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a)
        self._write(b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_series_from_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        self._write(path)
        series = series_from_csv(path)
        assert series.value_at(2) == 0.2275
        assert "aux" in series.extra
        series2 = series_from_csv(path, column="aux")
        assert series2.value_at(30) == 1.0 / 3.0
        with pytest.raises(ValueError):
            series_from_csv(path, column="nope")

    def test_column_writer_matches_per_cell_rule(self, tmp_path):
        """Each dtype's column is rendered as the per-cell rule renders it:
        str of the integer for integer cells, repr of the float otherwise."""

        def cell(v):
            return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

        cols = {
            "k": np.array([1, 2, 30, 2**40], dtype=np.int64),
            "f64": np.array([0.1, 1e-300, -2.5, 1.0 / 3.0]),
            "f32": np.array([0.1, 1e-30, 3.0, 1.0 / 3.0], dtype=np.float32),
            "flag": np.array([True, False, True, False]),
            "obj": np.array([7, 0.25, True, np.float32(0.1)], dtype=object),
        }
        path = tmp_path / "dtypes.csv"
        write_series_csv(path, cols, meta={"seed": 1})
        rows = [",".join(cell(cols[n][i]) for n in cols) for i in range(4)]
        expect = "# seed=1\n" + ",".join(cols) + "\n" + "".join(r + "\n" for r in rows)
        assert path.read_bytes() == expect.encode()
        # bool cells read as floats, an object column's bool as an integer
        assert rows[2].split(",")[3:] == ["1.0", "1"]

    def test_chunk_seams(self, tmp_path):
        """Two full chunks and one row: the bytes are the per-row rendering of
        _format_cell, and every value reads back bit for bit."""
        n = 2 * analysis._CSV_CHUNK + 1
        rng = np.random.default_rng(5)
        cols = {
            "k": np.cumsum(rng.integers(1, 2**20, n)),
            "pe": rng.random(n) * 10.0 ** rng.integers(-300, 3, n),
            "flag": rng.random(n) < 0.5,
        }
        path = tmp_path / "seams.csv"
        write_series_csv(path, cols, meta={"seed": 5})
        rows = "".join(",".join(analysis._format_cell(cols[c][i]) for c in cols) + "\n" for i in range(n))
        assert path.read_bytes() == ("# seed=5\nk,pe,flag\n" + rows).encode()
        back, _ = read_series_csv(path)
        assert back["k"].dtype == np.int64 and back["pe"].dtype == back["flag"].dtype == np.float64
        np.testing.assert_array_equal(back["k"], cols["k"])
        assert back["pe"].tobytes() == cols["pe"].tobytes()
        np.testing.assert_array_equal(back["flag"], cols["flag"].astype(float))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_series_csv(path, {"k": np.array([], dtype=np.int64)}, meta={})
        with pytest.raises(ValueError, match="no data rows"):
            read_series_csv(path)

    @pytest.mark.parametrize("bad", ["7", "7,0.5,1.0", "", "7,0.5\n8"], ids=["short", "long", "blank", "last"])
    def test_ragged_row_rejected(self, tmp_path, bad):
        """A row of the wrong length raises wherever it falls, in the second
        chunk here, rather than being cut or padded."""
        body = "".join(f"{k},0.25\n" for k in range(1, analysis._CSV_CHUNK + 5))
        path = tmp_path / "ragged.csv"
        path.write_text("# seed=1\nk,pe\n" + body + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="does not have 2 cells"):
            read_series_csv(path)

    def test_round_trip_heap_does_not_grow_with_rows(self, tmp_path):
        """The CSV layer holds one chunk of Python objects, so the heap peak of
        a write and a read, above the arrays read back, is the same at 12,500
        and at 50,000 rows, both many chunks long.  A per-row list of cells
        would take about 15 MB more at 50,000 rows.  Tracing slows the round
        trip about tenfold, which sets the row counts."""

        def excess(n):
            cols = {"k": np.arange(1, n + 1), "pe": np.arange(n) / 7.0, "flag": np.arange(n) % 3 == 0}
            path = tmp_path / f"rows{n}.csv"
            tracemalloc.start()
            try:
                write_series_csv(path, cols, meta={"seed": 1})
                back, _ = read_series_csv(path)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert back["k"][-1] == n
            return peak - current

        small, large = excess(12_500), excess(50_000)
        assert large <= 1.25 * small + 16_384, (small, large)

    def test_column_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "x.csv", {}, meta={})
        with pytest.raises(ValueError):
            write_series_csv(
                tmp_path / "x.csv",
                {"k": np.array([1, 2]), "v": np.array([1.0])},
                meta={},
            )
