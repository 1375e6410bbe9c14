"""Parse + validate transformations, with DuckDB oracle checks."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ingest import etl
from repro.lorawan.network import PAYLOAD_COLS
from repro.oracle import assert_equivalent
from tests.conftest import parquet_files_per_partition


@pytest.fixture(scope="module")
def raw(spark, world):
    return etl.read_landing_batch(spark, world.landing_dir).cache()


@pytest.fixture(scope="module")
def validated(raw):
    return etl.validate(etl.parse_messages(raw)).cache()


class TestParse:
    def test_explosion_factor(self, raw, validated, world):
        assert validated.count() == raw.count() * len(PAYLOAD_COLS)

    def test_metric_names(self, validated):
        metrics = {r["metric"] for r in validated.select("metric").distinct().collect()}
        assert metrics == set(etl.METRIC_NAME.values())

    def test_timestamps_parse(self, validated):
        assert validated.filter(F.col("ts").isNull()).count() == 0

    def test_values_round_trip_oracle(self, validated, world):
        # Sum of parsed co2 values == sum over delivered original readings.
        got = (
            validated.filter(F.col("field") == "co2")
            .groupBy("sensor_id")
            .agg(F.round(F.sum("value"), 2).alias("co2_sum"))
        )
        delivered = world.receptions_pdf.drop_duplicates(
            ["sensor_id", "f_cnt"]
        )[["sensor_id", "f_cnt"]].merge(
            world.readings_pdf, on=["sensor_id", "f_cnt"]
        )
        assert_equivalent(
            got,
            "SELECT sensor_id, round(sum(co2), 2) AS co2_sum FROM d GROUP BY sensor_id",
            d=delivered[["sensor_id", "co2"]],
        )

    def test_gateway_metadata_flattened(self, validated):
        row = validated.filter(F.col("n_gateways") >= 2).first()
        assert row["best_gateway"].startswith("gw-")
        assert row["best_rssi"] <= -30.0


class TestValidate:
    def test_valid_flag_matches_ranges_oracle(self, validated):
        got = validated.groupBy("field").agg(
            F.sum(F.col("valid").cast("long")).alias("n_valid")
        )
        pdf = validated.select("field", "value").toPandas()
        ranges = pd.DataFrame(
            [(k, lo, hi) for k, (lo, hi) in etl.VALID_RANGE.items()],
            columns=["field", "lo", "hi"],
        )
        assert_equivalent(
            got,
            """
            SELECT p.field, sum(
              CASE WHEN p.value IS NOT NULL AND p.value >= r.lo
                   AND p.value <= r.hi THEN 1 ELSE 0 END) AS n_valid
            FROM p JOIN r ON p.field = r.field GROUP BY p.field
            """,
            p=pdf,
            r=ranges,
        )

    def test_quarantine_complement(self, validated):
        n = validated.count()
        ok = etl.accepted_points(validated).count()
        bad = etl.quarantined_points(validated).count()
        assert ok + bad == n

    def test_accepted_shape(self, validated):
        pts = etl.accepted_points(validated)
        assert pts.columns == ["metric", "ts", "value", "sensor_id", "city"]

    def test_out_of_range_value_quarantined(self, spark):
        import json

        msg = {
            "app_id": "ctt",
            "dev_id": "X-00",
            "counter": 0,
            "city": "trondheim",
            "metadata": {
                "time": "2017-01-01T00:00:00Z",
                "gateways": [{"gtw_id": "gw-tr-0", "rssi": -100.0}],
            },
            "payload_fields": {
                **{c: 50.0 for c in PAYLOAD_COLS},
                "co2": 99999.0,  # out of range
                "humidity": None,  # null
            },
        }
        df = spark.createDataFrame(
            [json.dumps(msg)], "string"
        ).select(F.from_json("value", etl.MESSAGE_SCHEMA).alias("m")).select("m.*")
        v = etl.validate(etl.parse_messages(df))
        bad = {r["field"] for r in etl.quarantined_points(v).collect()}
        assert "co2" in bad and "humidity" in bad
        assert "temperature" not in bad  # 50.0 °C is the boundary: valid

    def test_world_quarantine_is_small(self, world, validated):
        frac = world.quarantined.count() / validated.count()
        assert frac < 0.02  # humidity clipping tail only


class TestUplinksBatch:
    def test_one_row_per_message(self, spark, world, raw):
        up = etl.uplinks_batch(spark, world.landing_dir)
        assert up.count() == raw.count()

    def test_battery_and_interval_extracted(self, world):
        row = world.uplinks.first()
        assert 0 <= row["battery"] <= 100
        assert row["interval_min"] in (5.0, 10.0, 20.0)


class TestIngestBatch:
    def test_counts_and_store(self, spark, world, tmp_path):
        root = str(tmp_path / "tsdb")
        counts = etl.ingest_batch(spark, world.landing_dir, root)
        assert counts["accepted"] > 0
        stored = spark.read.parquet(root)
        assert stored.count() == counts["accepted"]
        files = parquet_files_per_partition(root)
        assert files and set(files.values()) == {1}  # one file per (metric, date)
