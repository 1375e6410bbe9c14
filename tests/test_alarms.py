"""Alarm sweep: transitions, detection latency, clearing."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataport import alarms, twins
from repro.dataport.twins import MISS_FAIL, MISS_WARN
from repro.iot import deployment as dep
from repro.oracle import assert_equivalent

H = lambda h: dep.SIM_START + pd.Timedelta(hours=h)


@pytest.fixture(scope="module")
def events(world):
    return alarms.alarm_events(
        world.uplinks, start=dep.SIM_START, end=H(71)
    ).cache()


class TestEvents:
    def test_transitions_only(self, events):
        assert events.filter("status = prev_status").count() == 0

    def test_dead_sensors_raise_failed(self, events):
        failed = {
            r["sensor_id"]
            for r in alarms.raised(events).select("sensor_id").distinct().collect()
        }
        assert {"T-03", "T-07"} <= failed

    def test_healthy_sensor_never_fails(self, events):
        # V-01 has no injected fault and Vejle's outage ends; it may WARN
        # transiently on radio loss but must not reach FAILED outside the
        # Vejle outage window (hours 50–56).
        f = alarms.raised(events).filter("sensor_id = 'V-01'")
        outside = f.filter(
            (F.col("ts") < F.lit(H(50))) | (F.col("ts") > F.lit(H(56.5)))
        )
        assert outside.count() == 0

    def test_dead_sensor_alarm_never_clears(self, events):
        after = events.filter(
            (F.col("sensor_id") == "T-03") & (F.col("ts") > F.lit(H(31)))
        )
        assert after.filter("status = 'OK'").count() == 0

    def test_outage_alarms_clear_after_recovery(self, events):
        # Vejle sensors recover once the gateways return at hour 56.
        v = events.filter(
            (F.col("sensor_id") == "V-00") & (F.col("ts") >= F.lit(H(56)))
        )
        assert v.filter("status = 'OK'").count() >= 1


class TestDetectionLatency:
    def test_deaths_detected_within_cycles(self, events, world):
        inj = pd.DataFrame(
            [
                {"sensor_id": f.sensor_id, "start": f.start}
                for f in world.faults
                if f.kind == "death"
            ]
        )
        lat = alarms.detection_latency(events, inj)
        assert lat["detected_at"].notna().all()
        # §2.3: "it takes some cycles to determine a failure with
        # certainty" — MISS_FAIL=4 cycles at 5-min cadence ⇒ ≤ ~25 min.
        assert (lat["latency_min"] <= 25).all()
        assert (lat["latency_min"] >= 10).all()
        assert (lat["latency_cycles"] <= 5).all()

    def test_undetected_gives_nat(self, events):
        inj = pd.DataFrame([{"sensor_id": "T-00", "start": H(200)}])
        lat = alarms.detection_latency(events, inj)
        assert lat["detected_at"].isna().all()


class TestAgreesWithTwins:
    @pytest.mark.parametrize("hour", [29, 45, 53])
    def test_status_at_e6_probe(self, events, world, hour):
        """The sweep and the twins share one missed-cycles rule. At each
        E6 probe, a sensor's status from its last transition at or before
        the probe (OK if none) is its ``sensor_twins`` status, and the
        twin at that transition's instant reads its status and missed
        cycles."""
        at = H(hour)
        last = (
            events.filter(F.col("ts") <= F.lit(at))
            .groupBy("sensor_id")
            .agg(F.max_by(F.struct("ts", "status", "missed_cycles"), "ts").alias("e"))
            .select("sensor_id", "e.*")
            .toPandas()
            .set_index("sensor_id")
        )
        want = dict(
            twins.sensor_twins(world.uplinks, at).select("sensor_id", "status").collect()
        )
        assert len(want) == 14
        swept = last["status"].reindex(list(want), fill_value=twins.STATUS_OK)
        assert swept.to_dict() == want
        for sid, e in last.iterrows():
            t = twins.sensor_twins(world.uplinks, e["ts"]).filter(
                F.col("sensor_id") == sid
            ).first()
            assert (t["status"], t["missed_cycles"]) == (e["status"], e["missed_cycles"])


def alarm_sql(start, end, step_min: int = 5) -> str:
    """The sweep as DuckDB SQL over ``up``: an as-of join of each
    sensor's evaluation grid to its last uplink at or before each
    instant, missed cycles, the twin thresholds and the transitions."""
    return f"""
        WITH g AS (
          SELECT s.sensor_id, s.city, gs.t
          FROM (SELECT DISTINCT sensor_id, city FROM up) s,
               generate_series(TIMESTAMP '{start}', TIMESTAMP '{end}',
                               INTERVAL {step_min} MINUTE) gs(t)
        ),
        a AS (
          SELECT g.sensor_id, g.city, g.t AS ts,
                 coalesce(floor((epoch_us(g.t) - epoch_us(u.ts)) / 6e7 / u.interval_min),
                          0)::BIGINT AS missed_cycles
          FROM g ASOF LEFT JOIN up u ON g.sensor_id = u.sensor_id AND u.ts <= g.t
        ),
        s AS (
          SELECT *, CASE WHEN missed_cycles < {MISS_WARN} THEN 'OK'
                         WHEN missed_cycles < {MISS_FAIL} THEN 'WARN'
                         ELSE 'FAILED' END AS status
          FROM a
        )
        SELECT * FROM (
          SELECT *, lag(status, 1, 'OK') OVER (PARTITION BY sensor_id ORDER BY ts)
                    AS prev_status
          FROM s
        )
        WHERE status <> prev_status
    """


class TestSweepOracle:
    def test_world_transitions_match_oracle(self, world, events):
        up = world.uplinks.select("sensor_id", "city", "ts", "interval_min")
        assert events.count() > 0
        assert_equivalent(events, alarm_sql(dep.SIM_START, H(71)), up=up)

    #: Two sensors from 00:00 to 01:02:30 (off the 5-min grid; the last
    #: instant is 01:00). A: packets on grid instants, its last one
    #: switching to a 20-min interval in front of a 20-min gap. B: first
    #: heard at 00:12:30, after the sweep starts.
    PACKETS = [
        ("A", "00:00:00", 5.0), ("A", "00:05:00", 5.0), ("A", "00:40:00", 20.0),
        ("B", "00:12:30", 5.0), ("B", "00:50:00", 5.0),
    ]
    EXPECTED = [
        ("A", "00:15", "WARN", "OK", 2),
        ("A", "00:25", "FAILED", "WARN", 4),
        ("A", "00:40", "OK", "FAILED", 0),  # packet sorts before the instant
        ("B", "00:25", "WARN", "OK", 2),
        ("B", "00:35", "FAILED", "WARN", 4),
        ("B", "00:50", "OK", "FAILED", 0),
        ("B", "01:00", "WARN", "OK", 2),
    ]

    @pytest.fixture(scope="class")
    def hand(self, spark):
        day = pd.Timestamp("2017-01-01")
        up = spark.createDataFrame(
            pd.DataFrame(
                [(sid, "x", day + pd.Timedelta(t), iv) for sid, t, iv in self.PACKETS],
                columns=["sensor_id", "city", "ts", "interval_min"],
            )
        )
        start, end = day, day + pd.Timedelta("01:02:30")
        return up, start, end, alarms.alarm_events(up, start=start, end=end)

    def test_hand_built_transitions(self, hand):
        _, start, _, ev = hand
        got = ev.orderBy("sensor_id", "ts").toPandas()
        want = pd.DataFrame(
            [(sid, "x", start + pd.Timedelta(f"{t}:00"), st, prev, m)
             for sid, t, st, prev, m in self.EXPECTED],
            columns=["sensor_id", "city", "ts", "status", "prev_status", "missed_cycles"],
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_hand_built_matches_oracle(self, hand):
        up, start, end, ev = hand
        assert_equivalent(ev, alarm_sql(start, end), up=up)
