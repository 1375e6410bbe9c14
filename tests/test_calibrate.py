"""Grounding/calibration against the official station (E5 logic)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import calibrate
from repro.iot import field
from repro.oracle import assert_equivalent

CO_LOCATED = {"trondheim": "T-00", "vejle": "V-00"}


@pytest.fixture(scope="module")
def pairs(clean_world, nilu_df):
    return calibrate.co_location_pairs(
        clean_world.points, nilu_df, co_located=CO_LOCATED
    ).cache()


@pytest.fixture(scope="module")
def coefs(pairs):
    return calibrate.fit_linear(pairs).cache()


@pytest.fixture(scope="module")
def network_pairs(clean_world):
    return calibrate.network_pairs_against_truth(
        clean_world.points, clean_world.sensors_pdf
    ).cache()


class TestPairs:
    def test_only_co_located_sensors(self, pairs):
        ids = {r["sensor_id"] for r in pairs.select("sensor_id").distinct().collect()}
        assert ids == {"T-00", "V-00"}

    def test_all_pollutants(self, pairs):
        assert {r["field"] for r in pairs.select("field").distinct().collect()} == set(
            calibrate.CAL_METRICS
        )

    def test_hourly_buckets(self, pairs):
        one = pairs.filter("sensor_id = 'T-00' AND field = 'co2'").toPandas()
        gaps = one.sort_values("bucket")["bucket"].diff().dropna().unique()
        assert list(gaps) == [pd.Timedelta(hours=1)]


class TestFit:
    def test_ols_matches_numpy(self, pairs, coefs):
        pdf = pairs.filter("city = 'trondheim' AND field = 'co2'").toPandas()
        slope, intercept = np.polyfit(pdf["raw"], pdf["ref"], 1)
        got = coefs.filter("city = 'trondheim' AND field = 'co2'").first()
        assert abs(got["slope"] - slope) < 1e-6
        assert abs(got["intercept"] - intercept) < 1e-3

    def test_fit_oracle(self, pairs, coefs):
        got = coefs.select(
            "city", "field", F.round("slope", 5).alias("slope"),
            F.round("intercept", 3).alias("intercept"),
        )
        assert_equivalent(
            got,
            """
            SELECT city, field,
                   round(regr_slope(ref, raw), 5) AS slope,
                   round(regr_intercept(ref, raw), 3) AS intercept
            FROM pairs GROUP BY city, field
            """,
            pairs=pairs.toPandas(),
        )

    def test_recovers_hidden_gain(self, coefs):
        # The fit should invert the node's hidden gain error: slope≈1/gain.
        from repro.iot.sensor import node_calibration

        calib = node_calibration("T-00", seed=0)
        got = coefs.filter("city = 'trondheim' AND field = 'co2'").first()
        assert abs(got["slope"] - 1.0 / calib.gain["co2"]) < 0.12

    def test_r2_high_for_co_located(self, coefs):
        assert coefs.agg(F.min("r2").alias("m")).collect()[0]["m"] > 0.5


class TestApplyAndScore:
    def test_calibration_improves_co_located_rmse(self, pairs, coefs):
        cal = pairs.join(
            coefs.select("city", "field", "slope", "intercept"), ["city", "field"]
        ).withColumn(
            "raw_cal", F.col("slope") * F.col("raw") + F.col("intercept")
        )
        before = calibrate.accuracy(cal, pred="raw", truth="ref").toPandas()
        after = calibrate.accuracy(cal, pred="raw_cal", truth="ref").toPandas()
        m = before.merge(after, on=["city", "field"], suffixes=("_b", "_a"))
        assert (m["rmse_a"] <= m["rmse_b"] + 1e-9).all()
        # bias is removed by construction of OLS
        assert (m["bias_a"].abs() < 0.1).all()

    def test_apply_calibration_covers_all_sensors(self, clean_world, coefs):
        cal = calibrate.apply_calibration(
            clean_world.points.filter(F.col("metric").startswith("air.")), coefs
        )
        assert cal.filter(F.col("value_cal").isNull()).count() == 0
        assert cal.select("sensor_id").distinct().count() == 14

    def test_identity_for_unfitted_metrics(self, clean_world, coefs):
        pts = clean_world.points.filter("metric = 'weather.humidity'")
        cal = calibrate.apply_calibration(pts, coefs)
        diff = cal.agg(
            F.max(F.abs(F.col("value_cal") - F.col("value"))).alias("d")
        ).collect()[0]["d"]
        assert diff < 1e-9

    def test_accuracy_oracle(self, pairs):
        got = calibrate.accuracy(pairs, pred="raw", truth="ref").select(
            "city", "field", F.round("bias", 4).alias("bias"),
            F.round("rmse", 4).alias("rmse"), "n",
        )
        assert_equivalent(
            got,
            """
            SELECT city, field,
                   round(avg(raw - ref), 4) AS bias,
                   round(sqrt(avg((raw - ref) * (raw - ref))), 4) AS rmse,
                   count(*) AS n
            FROM pairs GROUP BY city, field
            """,
            pairs=pairs.toPandas(),
        )


class TestNetworkTransfer:
    def test_network_pairs_against_truth(self, network_pairs):
        assert network_pairs.filter(F.col("truth").isNull()).count() == 0
        # Co-located sensor must be present alongside the rest.
        assert network_pairs.select("sensor_id").distinct().count() == 14

    def test_truth_row_for_row(self, clean_world, network_pairs):
        # Reference: one field.truth call per sensor, at its registry
        # position and its own buckets + 30 min.
        got = network_pairs.toPandas()
        reg = clean_world.sensors_pdf.set_index("sensor_id")
        assert len(got) > 0
        for sid, rows in got.groupby("sensor_id"):
            s = reg.loc[sid]
            mid = (rows["bucket"] + pd.Timedelta(minutes=30)).to_numpy()
            t = field.truth(s["city"], s["x_m"], s["y_m"], mid)
            want = [t[f][i] for i, f in enumerate(rows["field"])]
            np.testing.assert_array_equal(rows["truth"].to_numpy(), want)

    def test_transfer_reduces_network_error_but_less_certain(
        self, clean_world, nilu_df, network_pairs
    ):
        """§2.4: network calibration via the co-located fit works 'but
        with lower certainty' — RMSE improves network-wide, yet stays
        worse than at the co-located unit itself."""
        coefs = calibrate.fit_linear(
            calibrate.co_location_pairs(
                clean_world.points, nilu_df, co_located=CO_LOCATED
            )
        )
        cal = network_pairs.join(
            coefs.select("city", "field", "slope", "intercept"),
            ["city", "field"],
        ).withColumn("cal", F.col("slope") * F.col("raw") + F.col("intercept"))
        co = cal.filter(F.col("sensor_id").isin(["T-00", "V-00"]))
        rest = cal.filter(~F.col("sensor_id").isin(["T-00", "V-00"]))
        rmse = lambda df, c: df.agg(
            F.sqrt(F.avg((F.col(c) - F.col("truth")) ** 2)).alias("r")
        ).collect()[0]["r"]
        assert rmse(rest, "cal") < rmse(rest, "raw") * 1.05  # helps (or ~neutral)
        assert rmse(rest, "cal") > rmse(co, "cal")  # lower certainty
