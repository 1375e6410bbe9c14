"""Digital-twin state: sensor twins, gateway twins, packet gaps."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataport import twins
from repro.iot import deployment as dep
from repro.oracle import assert_equivalent

H = lambda h: dep.SIM_START + pd.Timedelta(hours=h)


class TestSensorTwins:
    def test_all_sensors_tracked(self, world):
        st = twins.sensor_twins(world.uplinks, H(24))
        assert st.count() == 14

    def test_healthy_twin_ok(self, world):
        st = twins.sensor_twins(world.uplinks, H(24)).filter("sensor_id = 'T-00'")
        row = st.first()
        assert row["status"] == "OK"
        assert row["missed_cycles"] <= 1
        assert row["interval_min"] == 5.0

    def test_dead_sensor_failed(self, world):
        # T-03 dies at hour 30.
        st = twins.sensor_twins(world.uplinks, H(33)).filter("sensor_id = 'T-03'")
        row = st.first()
        assert row["status"] == "FAILED"
        assert row["missed_cycles"] >= twins.MISS_FAIL

    def test_before_death_ok(self, world):
        st = twins.sensor_twins(world.uplinks, H(29)).filter("sensor_id = 'T-03'")
        assert st.first()["status"] == "OK"

    def test_last_seen_matches_oracle(self, spark, world):
        got = twins.sensor_twins(world.uplinks, H(24)).select(
            "sensor_id", "last_seen"
        )
        up = world.uplinks.select("sensor_id", "ts").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, max(ts) AS last_seen FROM up
            WHERE ts <= TIMESTAMP '2017-01-02 00:00:00'
            GROUP BY sensor_id
            """,
            up=up,
        )

    def test_status_thresholds(self):
        # status_for is exercised through sensor_twins; pin the rule.
        assert twins.MISS_WARN == 2 and twins.MISS_FAIL == 4


class TestGatewayTwins:
    def test_all_gateways_tracked(self, world):
        gt = twins.gateway_twins(world.uplinks, H(24))
        assert gt.count() == 5

    def test_outage_detected(self, world):
        # gw-tr-1 is down hours 26–32.
        gt = twins.gateway_twins(world.uplinks, H(29)).filter(
            "gateway_id = 'gw-tr-1'"
        )
        row = gt.first()
        assert row["status"] == "FAILED"
        assert row["silent_min"] >= twins.GATEWAY_SILENCE_MIN

    def test_recovers_after_outage(self, world):
        gt = twins.gateway_twins(world.uplinks, H(35)).filter(
            "gateway_id = 'gw-tr-1'"
        )
        assert gt.first()["status"] == "OK"

    def test_healthy_gateway_ok(self, world):
        gt = twins.gateway_twins(world.uplinks, H(29)).filter(
            "gateway_id = 'gw-tr-0'"
        )
        assert gt.first()["status"] == "OK"

    def test_n_heard(self, world):
        gt = twins.gateway_twins(world.uplinks, H(24))
        tr0 = gt.filter("gateway_id = 'gw-tr-0'").first()
        assert tr0["n_heard"] >= 10  # hears most of the city


class TestPacketGaps:
    def test_gap_nonnegative(self, world):
        gaps = twins.packet_gaps(world.uplinks)
        assert gaps.filter("gap_min < 0").count() == 0

    def test_death_leaves_no_gap_rows_after(self, world):
        gaps = twins.packet_gaps(world.uplinks).filter("sensor_id = 'T-03'")
        assert gaps.agg(F.max("ts").alias("m")).collect()[0]["m"] < H(30.2)

    def test_missed_cycles_mostly_zero(self, world):
        gaps = twins.packet_gaps(world.uplinks)
        frac = gaps.filter("missed_cycles > 0").count() / gaps.count()
        assert frac < 0.12  # ~2–4 % radio loss + outage windows

    def test_lost_frames_match_counter_holes_oracle(self, spark, world):
        got = (
            twins.packet_gaps(world.uplinks)
            .filter("lost_frames IS NOT NULL")
            .groupBy("sensor_id")
            .agg(F.sum("lost_frames").alias("lost"))
        )
        up = world.uplinks.select("sensor_id", "f_cnt").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, (max(f_cnt) - min(f_cnt) + 1 - count(*)) AS lost
            FROM up GROUP BY sensor_id
            """,
            up=up,
        )

    def test_outage_visible_as_gateway_silence_not_sensor_gap(self, world):
        # Trondheim sensors keep delivering through gw-tr-1's outage
        # thanks to overlapping coverage: no mass gap at hours 26–32.
        gaps = twins.packet_gaps(world.uplinks).filter(
            (F.col("ts") >= F.lit(H(26))) & (F.col("ts") < F.lit(H(32)))
            & (F.col("city") == "trondheim")
        )
        big = gaps.filter("missed_cycles >= 4").count()
        assert big == 0
