"""Battery analysis (Fig 4): deltas, sunlight attribution, depletion."""
import pytest
from pyspark.sql import functions as F

from repro.core import battery
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def irr(spark, clean_world):
    return battery.irradiance_table(spark, sf=clean_world.sf, seed=0).cache()


@pytest.fixture(scope="module")
def deltas(clean_world, irr):
    return battery.battery_deltas(clean_world.uplinks, irr).cache()


class TestIrradianceTable:
    def test_covers_both_cities(self, irr):
        assert {r["city"] for r in irr.select("city").distinct().collect()} == {
            "trondheim", "vejle",
        }

    def test_bounded(self, irr):
        row = irr.agg(F.min("irradiance").alias("lo"), F.max("irradiance").alias("hi")).first()
        assert row["lo"] >= 0.0 and row["hi"] <= 1.0

    def test_night_dark(self, irr):
        night = irr.filter(
            (F.hour("tick") >= 22) | (F.hour("tick") <= 2)
        )
        assert night.agg(F.max("irradiance").alias("m")).first()["m"] < 0.01


class TestDeltas:
    def test_one_row_per_packet_minus_first(self, clean_world, deltas):
        n_up = clean_world.uplinks.count()
        n_sensors = 14
        assert deltas.count() == n_up - n_sensors

    def test_delta_matches_lag_oracle(self, clean_world, deltas):
        got = deltas.select(
            "sensor_id", "ts", F.round("delta_battery", 3).alias("delta_battery")
        )
        up = clean_world.uplinks.select("sensor_id", "ts", "battery").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, ts,
                   round(battery - lag(battery) OVER
                     (PARTITION BY sensor_id ORDER BY ts), 3) AS delta_battery
            FROM up QUALIFY delta_battery IS NOT NULL
            """,
            up=up,
        )

    def test_sun_max_matches_range_join_oracle(self, clean_world, irr, deltas):
        # sun_max is the brightest irradiance tick in (prev_ts, ts]; the
        # oracle finds those ticks with a range join, not an explosion.
        got = deltas.select(
            "sensor_id", "ts", F.round("sun_max", 6).alias("sun_max"), "charged"
        )
        assert_equivalent(
            got,
            f"""
            WITH b AS (
              SELECT sensor_id, city, ts,
                     lag(ts) OVER (PARTITION BY sensor_id ORDER BY ts) AS prev_ts
              FROM up QUALIFY prev_ts IS NOT NULL
            )
            SELECT b.sensor_id, b.ts,
                   round(coalesce(max(i.irradiance), 0), 6) AS sun_max,
                   coalesce(max(i.irradiance), 0) > {battery.SUN_THRESHOLD} AS charged
            FROM b LEFT JOIN irr i
              ON i.city = b.city AND i.tick > b.prev_ts AND i.tick <= b.ts
            GROUP BY b.sensor_id, b.ts
            """,
            up=clean_world.uplinks.select("sensor_id", "city", "ts").toPandas(),
            irr=irr.toPandas(),
        )

    def test_charged_only_during_daylight(self, deltas):
        charged = deltas.filter("charged")
        hours = charged.select(F.hour("ts").alias("h")).distinct().toPandas()["h"]
        # January Scandinavia: sun between ~8 and ~16 local solar time.
        assert hours.min() >= 7 and hours.max() <= 17

    def test_uncharged_deltas_nonpositive(self, deltas):
        # Without sunlight since the previous packet a node can only
        # discharge (tiny float slack).
        bad = deltas.filter((~F.col("charged")) & (F.col("delta_battery") > 0.001))
        assert bad.count() == 0

    def test_charged_deltas_can_be_positive(self, deltas):
        pos = deltas.filter(F.col("charged") & (F.col("delta_battery") > 0.01))
        assert pos.count() > 50


class TestHourlyProfile:
    def test_profile_shape(self, deltas):
        prof = battery.hourly_delta_profile(deltas).toPandas()
        assert set(prof["hour"]) == set(range(24))
        night = prof[(prof["hour"] <= 4) & (~prof["charged"])]
        noon = prof[(prof["hour"].between(10, 13)) & (prof["charged"])]
        assert (night["delta_avg"] < 0).all()
        assert noon["delta_avg"].mean() > 0

    def test_profile_counts_oracle(self, deltas):
        got = battery.hourly_delta_profile(deltas).select("hour", "charged", "n")
        pdf = deltas.select(
            F.hour("ts").alias("hour"), "charged", "delta_battery"
        ).toPandas()
        assert_equivalent(
            got,
            "SELECT hour, charged, count(*) AS n FROM d GROUP BY hour, charged",
            d=pdf,
        )


class TestSeriesAndDepletion:
    def test_series_hourly(self, clean_world):
        s = battery.battery_series(clean_world.uplinks).toPandas()
        one = s[s["sensor_id"] == "T-00"]
        assert len(one) == 72  # 3 days of hourly buckets
        assert one["battery"].between(0, 100).all()

    def test_depletion_negative_slope_in_winter(self, clean_world):
        d = battery.depletion_estimate(clean_world.uplinks).toPandas()
        tr = d[d["sensor_id"].str.startswith("T-")]
        # Trondheim in January: every node net-discharges (Fig 4 story).
        assert (tr["slope_pct_per_day"] < 0).all()
        assert (tr["days_to_empty"] > 10).all()

    def test_days_to_empty_null_iff_net_charging(self, clean_world):
        # Vejle (55.7°N) nodes net-charge even in January; Trondheim
        # (63.4°N) nodes net-discharge. days_to_empty must be defined
        # exactly for the dischargers.
        d = battery.depletion_estimate(clean_world.uplinks).toPandas()
        assert len(d) == 14  # one row per node
        discharging = d["slope_pct_per_day"] < -1e-6
        assert (d["days_to_empty"].notna() == discharging).all()

    def test_latitude_effect_on_charging(self, clean_world):
        # The higher-latitude city charges less in winter (Fig 4's
        # "affected by weather conditions" + season).
        d = battery.depletion_estimate(clean_world.uplinks).toPandas()
        tr = d[d["sensor_id"].str.startswith("T-")]["slope_pct_per_day"].mean()
        ve = d[d["sensor_id"].str.startswith("V-")]["slope_pct_per_day"].mean()
        assert ve > tr
