"""External data sources (paper Table 1): NILU, here.com, OCO-2,
municipal counts, CityGML, national statistics."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.external import citygml, herecom, municipal, nilu, oco2, statistics
from repro.iot import deployment as dep
from repro.iot import field
from repro.oracle import assert_equivalent


class TestNilu:
    def test_hourly_cadence(self):
        obs = nilu.observations_pdf(sf=0.008)
        one = obs[(obs["station_id"] == "st-tr") & (obs["field"] == "no2")]
        gaps = one["ts"].diff().dropna().unique()
        assert list(gaps) == [pd.Timedelta(hours=1)]

    def test_all_station_metrics(self):
        obs = nilu.observations_pdf(sf=0.008)
        assert set(obs["field"]) == set(nilu.STATION_METRICS)

    def test_reference_grade_accuracy(self):
        obs = nilu.observations_pdf(sf=0.008, seed=0)
        st = dep.station_pdf().set_index("station_id").loc["st-tr"]
        one = obs[(obs["station_id"] == "st-tr") & (obs["field"] == "no2")]
        truth = field.truth(
            "trondheim", st["x_m"], st["y_m"], one["ts"].to_numpy(), seed=0
        )["no2"]
        rmse = np.sqrt(((one["value"] - truth) ** 2).mean())
        assert rmse < 2 * nilu.REF_SIGMA["no2"]

    def test_deterministic(self):
        a = nilu.observations_pdf(sf=0.008, seed=3)
        b = nilu.observations_pdf(sf=0.008, seed=3)
        pd.testing.assert_frame_equal(a, b)


class TestHereCom:
    def test_jam_factor_range(self):
        f = herecom.feed_pdf(sf=0.008)
        assert f["jam_factor"].between(0, 10).all()

    def test_five_minute_cadence(self):
        f = herecom.feed_pdf(sf=0.008)
        one = f[f["link_id"] == "T-E6-south"]
        assert (one["ts"].diff().dropna() == pd.Timedelta(minutes=5)).all()

    def test_all_links_covered(self):
        f = herecom.feed_pdf(sf=0.008)
        assert set(f["link_id"]) == set(dep.road_links_pdf()["link_id"])

    def test_rush_hour_peaks(self):
        f = herecom.feed_pdf(sf=0.05)  # include weekdays
        one = f[f["link_id"] == "T-elgeseter"].copy()
        one["hour"] = one["ts"].dt.hour
        one["wd"] = one["ts"].dt.dayofweek < 5
        wd = one[one["wd"]].groupby("hour")["jam_factor"].mean()
        assert wd.loc[[8, 16, 17]].mean() > 3 * wd.loc[[1, 2, 3]].mean()

    def test_jam_saturates(self):
        jf = herecom.jam_factor(np.array([0.0, 0.5, 1.0, 5.0]), 1.2)
        assert jf[0] == 0.0 and jf[-1] == 10.0
        assert (np.diff(jf) >= 0).all()

    def test_speed_inverse_to_jam(self):
        f = herecom.feed_pdf(sf=0.008)
        assert f["speed_kmh"].corr(f["jam_factor"]) < -0.99


class TestOCO2:
    def test_sparse_at_test_scale(self):
        # Revisit is 16 days; a 3-day window has no overpass.
        ov = oco2.overpasses_pdf(sf=0.008)
        assert ov.empty

    def test_overpasses_at_benchmark_scale(self):
        ov = oco2.overpasses_pdf(sf=0.1)  # 36 days → 2-3 per city
        per_city = ov.groupby("city")["ts"].nunique()
        assert (per_city >= 2).all()
        assert (ov.groupby(["city", "ts"]).size() == oco2.FOOTPRINTS).all()

    def test_xco2_plausible(self):
        ov = oco2.overpasses_pdf(sf=0.1)
        assert ov["xco2_ppm"].between(395, 415).all()

    def test_column_damping(self):
        # Column variability ≪ surface variability.
        ov = oco2.overpasses_pdf(sf=0.1)
        assert ov["xco2_ppm"].std() < 3.0

    def test_empty_schema_stable(self, spark):
        df = oco2.overpasses(spark, sf=0.008)
        assert df.count() == 0
        assert "xco2_ppm" in df.columns


class TestMunicipal:
    def test_campaign_window_short(self):
        c = municipal.counts_pdf(sf=0.1)  # 36-day sim
        span = c["ts"].max() - c["ts"].min()
        assert span <= pd.Timedelta(days=7)

    def test_clipped_to_sim_window(self):
        c = municipal.counts_pdf(sf=0.008)  # 3-day sim < campaign
        assert c["ts"].max() < dep.SIM_START + pd.Timedelta(days=3)

    def test_two_links_per_city(self):
        c = municipal.counts_pdf(sf=0.008)
        per_city = c.groupby("city")["link_id"].nunique()
        assert (per_city == municipal.LINKS_PER_CITY).all()

    def test_counts_nonnegative_ints(self):
        c = municipal.counts_pdf(sf=0.008)
        assert (c["vehicles"] >= 0).all()
        assert c["vehicles"].dtype == "int64"

    def test_counts_track_traffic_intensity(self):
        c = municipal.counts_pdf(sf=0.008)
        one = c[c["link_id"] == "T-E6-south"]
        inten = field.traffic_intensity(one["ts"].to_numpy())
        assert np.corrcoef(one["vehicles"], inten)[0, 1] > 0.9


class TestCityGML:
    def test_building_counts(self):
        b = citygml.buildings_pdf()
        counts = b.groupby("city").size()
        assert counts["trondheim"] == 180 and counts["vejle"] == 70

    def test_geometry_positive(self):
        b = citygml.buildings_pdf()
        for c in ("width_m", "depth_m", "height_m", "volume_m3"):
            assert (b[c] > 0).all()

    def test_volume_consistent(self):
        b = citygml.buildings_pdf()
        np.testing.assert_allclose(
            b["volume_m3"], (b["width_m"] * b["depth_m"] * b["height_m"]).round(1),
            rtol=1e-6,
        )

    def test_taller_in_core(self):
        b = citygml.buildings_pdf()
        b = b[b["city"] == "trondheim"]
        r = np.sqrt(b["x_m"] ** 2 + b["y_m"] ** 2)
        assert b[r < 800]["height_m"].mean() > b[r > 1800]["height_m"].mean()

    def test_grid_tiles_extent(self):
        g = citygml.grid_pdf()
        tr = g[g["city"] == "trondheim"]
        assert len(tr) == 20 * 20  # 5000 m / 250 m
        assert tr["x_min"].min() == -2500 and tr["x_max"].max() == 2500

    def test_grid_cells_disjoint(self):
        g = citygml.grid_pdf()
        tr = g[g["city"] == "vejle"]
        assert not tr.duplicated(subset=["x_min", "y_min"]).any()


class TestStatistics:
    def test_sector_totals(self):
        t = statistics.annual_totals_pdf()
        assert set(t["sector"]) == set(statistics.SECTORS)
        assert (t["tco2e"] > 0).all()

    def test_population_scaling(self):
        t = statistics.annual_totals_pdf()
        tr = t[t["city"] == "trondheim"]["tco2e"].sum()
        ve = t[t["city"] == "vejle"]["tco2e"].sum()
        assert tr > ve

    def test_downscale_conserves_mass(self, spark):
        totals = statistics.annual_totals_pdf()
        grid = statistics.downscaled_grid(spark).toPandas()
        got = grid.groupby(["city", "sector"])["tco2e"].sum()
        for (city, sector), v in got.items():
            want = totals[
                (totals["city"] == city) & (totals["sector"] == sector)
            ]["tco2e"].iloc[0]
            assert abs(v - want) / want < 1e-6

    def test_downscale_oracle(self, spark):
        """DuckDB over the inventory: per (city, sector) the grid's cells
        sum to the annual total, one per grid cell, and every cell's
        lo/hi is its tco2e × (1 ∓ the sector's rel_uncertainty)."""
        grid = statistics.downscaled_grid(spark).cache()
        totals = statistics.annual_totals_pdf()
        assert_equivalent(
            grid.groupBy("city", "sector").agg(
                F.round(F.sum("tco2e"), 3).alias("tco2e"),
                F.count(F.lit(1)).alias("cells"),
            ),
            """
            SELECT t.city, t.sector, round(t.tco2e, 3) AS tco2e,
                   (SELECT count(*) FROM cells c WHERE c.city = t.city) AS cells
            FROM totals t
            """,
            totals=totals, cells=citygml.grid_pdf(),
        )
        assert_equivalent(
            grid.select("cell_id", "city", "sector", "tco2e_lo", "tco2e_hi"),
            """
            SELECT g.cell_id, g.city, g.sector,
                   g.tco2e * (1 - t.rel_uncertainty) AS tco2e_lo,
                   g.tco2e * (1 + t.rel_uncertainty) AS tco2e_hi
            FROM grid g JOIN totals t USING (city, sector)
            """,
            grid=grid, totals=totals,
        )
        grid.unpersist()

    def test_uncertainty_bounds_ordered(self, spark):
        grid = statistics.downscaled_grid(spark)
        bad = grid.filter(
            (F.col("tco2e_lo") > F.col("tco2e")) | (F.col("tco2e") > F.col("tco2e_hi"))
        )
        assert bad.count() == 0

    def test_transport_concentrated_near_roads(self, spark):
        grid = statistics.downscaled_grid(spark).filter(
            (F.col("sector") == "road_transport") & (F.col("city") == "trondheim")
        ).toPandas()
        cells = citygml.grid_pdf()
        merged = grid.merge(cells[["cell_id", "x_c", "y_c"]], on="cell_id")
        links = dep.road_links_pdf()
        links = links[links["city"] == "trondheim"]
        d = np.sqrt(
            (merged["x_c"].to_numpy()[:, None] - links["x_m"].to_numpy()) ** 2
            + (merged["y_c"].to_numpy()[:, None] - links["y_m"].to_numpy()) ** 2
        ).min(axis=1)
        near = merged[d < 300]["tco2e"].mean()
        far = merged[d > 1500]["tco2e"].mean()
        assert near > 5 * far
