"""CO2 ↔ traffic study (Fig 5): the paper's headline analytic claim."""
import pytest
from pyspark.sql import functions as F

from repro.core import co2_traffic
from repro.oracle import assert_equivalent

SENSOR, LINK = "T-01", "T-elgeseter"


@pytest.fixture(scope="module")
def al_co2(clean_world, traffic_df):
    return co2_traffic.aligned_series(
        clean_world.points, traffic_df, sensor_id=SENSOR, link_id=LINK
    ).cache()


@pytest.fixture(scope="module")
def al_no2(clean_world, traffic_df):
    return co2_traffic.aligned_series(
        clean_world.points, traffic_df,
        sensor_id=SENSOR, link_id=LINK, metric="air.no2",
    ).cache()


class TestAlignment:
    def test_hourly_unique(self, al_co2):
        assert al_co2.groupBy("bucket").count().filter("count > 1").count() == 0

    def test_inner_join_semantics(self, al_co2):
        assert al_co2.filter(
            F.col("value").isNull() | F.col("jam_factor").isNull()
        ).count() == 0

    def test_alignment_oracle(self, clean_world, traffic_df, al_co2):
        got = al_co2.select(
            "bucket", F.round("value", 4).alias("value"),
            F.round("jam_factor", 4).alias("jam_factor"),
        )
        pts = clean_world.points.filter(
            f"sensor_id = '{SENSOR}' AND metric = 'air.co2'"
        ).toPandas()
        feed = traffic_df.filter(f"link_id = '{LINK}'").toPandas()
        assert_equivalent(
            got,
            """
            WITH s AS (
              SELECT date_trunc('hour', ts) AS bucket,
                     round(avg(value), 4) AS value
              FROM pts GROUP BY 1
            ), t AS (
              SELECT date_trunc('hour', ts) AS bucket,
                     round(avg(jam_factor), 4) AS jam_factor
              FROM feed GROUP BY 1
            )
            SELECT s.bucket, s.value, t.jam_factor
            FROM s JOIN t USING (bucket)
            """,
            pts=pts[["ts", "value"]],
            feed=feed[["ts", "jam_factor"]],
        )


class TestPaperClaim:
    def test_co2_no_apparent_correlation(self, al_co2):
        """Fig 5 conclusion: 'no apparent correlation' between CO2
        dynamics and the jam factor at this sensor location."""
        r = co2_traffic.correlation(al_co2)
        assert abs(r) < 0.35

    def test_no2_positive_control(self, al_no2):
        """The pipeline detects a correlation when one exists: NO2 is
        traffic-driven."""
        r = co2_traffic.correlation(al_no2)
        assert r > 0.45

    def test_no_lag_rescues_co2(self, al_co2):
        """'Different patterns' must hold across lags, not just lag 0."""
        cc = co2_traffic.cross_correlation(al_co2, max_lag_hours=6).toPandas()
        assert cc["corr"].abs().max() < 0.55

    def test_different_diurnal_patterns(self, al_co2):
        prof = co2_traffic.diurnal_profiles(al_co2)
        peaks = co2_traffic.peak_hours(prof)
        assert peaks["pollutant_peak_hour"] != peaks["traffic_peak_hour"]
        # Traffic peaks at a rush hour; CO2 in the stable morning layer.
        assert peaks["traffic_peak_hour"] in (7, 8, 9, 15, 16, 17)
        assert peaks["pollutant_peak_hour"] <= 10

    def test_no2_peaks_with_traffic(self, al_no2):
        prof = co2_traffic.diurnal_profiles(al_no2)
        peaks = co2_traffic.peak_hours(prof)
        assert abs(peaks["pollutant_peak_hour"] - peaks["traffic_peak_hour"]) <= 2


class TestCrossCorrelation:
    def test_lag_range(self, al_co2):
        cc = co2_traffic.cross_correlation(al_co2, max_lag_hours=3).toPandas()
        assert sorted(cc["lag_hours"]) == list(range(-3, 4))

    def test_lag_zero_matches_correlation(self, al_co2):
        cc = co2_traffic.cross_correlation(al_co2, max_lag_hours=1).toPandas()
        r0 = cc[cc["lag_hours"] == 0]["corr"].iloc[0]
        assert abs(r0 - co2_traffic.correlation(al_co2)) < 1e-9

    def test_every_lag_matches_oracle(self, al_co2):
        """Each lag's corr == DuckDB's shifted self-join over the hourly
        series."""
        got = co2_traffic.cross_correlation(al_co2, max_lag_hours=3)
        assert_equivalent(
            got,
            """
            SELECT r.lag AS lag_hours, corr(a.value, b.jam_factor) AS corr
            FROM range(-3, 4) AS r(lag)
            JOIN al a ON TRUE
            JOIN al b ON a.city = b.city AND a.bucket = b.bucket + to_hours(r.lag)
            GROUP BY r.lag
            """,
            al=al_co2,
        )

    @pytest.mark.parametrize("series", ["al_co2", "al_no2"])
    def test_profiles_oracle(self, request, series):
        al = request.getfixturevalue(series)
        got = co2_traffic.diurnal_profiles(al).select(
            "hour",
            F.round("value_norm", 4).alias("value_norm"),
            F.round("jam_norm", 4).alias("jam_norm"),
        )
        norm = lambda c: (
            f"round(({c} - min({c}) OVER ()) "
            f"/ (max({c}) OVER () - min({c}) OVER () + 1e-12), 4)"
        )
        assert_equivalent(
            got,
            f"""
            WITH p AS (
              SELECT hour(bucket) AS hour, avg(value) AS v, avg(jam_factor) AS j
              FROM al GROUP BY 1
            )
            SELECT hour, {norm("v")} AS value_norm, {norm("j")} AS jam_norm FROM p
            """,
            al=al.select("bucket", "value", "jam_factor").toPandas(),
        )

    def test_profiles_normalized(self, al_co2):
        prof = co2_traffic.diurnal_profiles(al_co2).toPandas()
        for c in ("value_norm", "jam_norm"):
            assert prof[c].min() >= -1e-9 and prof[c].max() <= 1 + 1e-9
            assert abs(prof[c].max() - 1.0) < 1e-6
