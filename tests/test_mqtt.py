"""MQTT landing zone: envelope format, file layout, round-trip."""
import json
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro.lorawan import mqtt
from repro.lorawan.network import PAYLOAD_COLS, ttn_dedup


class TestLanding:
    def test_message_count(self, world):
        n_uplinks = len(
            world.receptions_pdf.drop_duplicates(["sensor_id", "f_cnt"])
        )
        assert world.n_landed == n_uplinks

    def test_hourly_files(self, world):
        files = sorted(os.listdir(world.landing_dir))
        assert all(f.startswith("msgs-") and f.endswith(".jsonl") for f in files)
        # 3 simulated days → ≤ 72 hourly files
        assert 24 <= len(files) <= 73

    def test_envelope_schema(self, world):
        path = os.path.join(world.landing_dir, sorted(os.listdir(world.landing_dir))[0])
        with open(path) as f:
            msg = json.loads(f.readline())
        assert msg["app_id"] == "ctt"
        assert set(msg["payload_fields"]) == set(PAYLOAD_COLS)
        assert {"time", "gateways"} <= set(msg["metadata"])
        assert msg["metadata"]["gateways"][0].keys() == {"gtw_id", "rssi"}

    def test_times_are_utc_iso(self, world):
        path = os.path.join(world.landing_dir, sorted(os.listdir(world.landing_dir))[0])
        with open(path) as f:
            msg = json.loads(f.readline())
        ts = pd.Timestamp(msg["metadata"]["time"])
        assert ts.tzinfo is not None

    def test_file_hour_matches_content(self, world):
        files = sorted(os.listdir(world.landing_dir))
        path = os.path.join(world.landing_dir, files[5])
        hour = files[5][len("msgs-"):-len(".jsonl")]
        with open(path) as f:
            for line in f:
                msg = json.loads(line)
                assert msg["metadata"]["time"].replace("-", "").replace(
                    "T", ""
                ).startswith(hour[:8] + hour[8:])

    def test_empty_input_creates_dir(self, tmp_path, world):
        out = str(tmp_path / "empty_landing")
        n = mqtt.land_messages(ttn_dedup(world.receptions_pdf.iloc[0:0]), out)
        assert n == 0
        assert os.path.isdir(out)
        assert os.listdir(out) == []

    def test_golden_line(self, tmp_path):
        """One uplink heard by two gateways at the same RSSI: the payload
        and the list's first entry come from the lower gateway id."""
        reading = {
            "sensor_id": "T-03", "city": "trondheim",
            "ts": pd.Timestamp("2017-01-01 05:10:00"),
            "co2": 412.0, "no2": 0.001, "pm10": 14.1, "pm25": 7.7,
            "temperature": -3.1, "pressure": 1013.25, "humidity": 81.0,
            "battery": 89.9, "interval_min": 5, "f_cnt": 61,
        }
        rec = pd.DataFrame([
            {**reading, "co2": 413.5, "gateway_id": "gw-tr-2", "rssi": -101.5},
            {**reading, "gateway_id": "gw-tr-0", "rssi": -101.5},
        ])
        out = tmp_path / "landing"
        assert mqtt.land_messages(ttn_dedup(rec), str(out)) == 1
        assert os.listdir(out) == ["msgs-2017010105.jsonl"]
        assert (out / "msgs-2017010105.jsonl").read_text() == (
            '{"app_id":"ctt","dev_id":"T-03","counter":61,"city":"trondheim",'
            '"metadata":{"time":"2017-01-01T05:10:00Z","gateways":['
            '{"gtw_id":"gw-tr-0","rssi":-101.5},{"gtw_id":"gw-tr-2","rssi":-101.5}]},'
            '"payload_fields":{"co2":412.0,"no2":0.001,"pm10":14.1,"pm25":7.7,'
            '"temperature":-3.1,"pressure":1013.25,"humidity":81.0,"battery":89.9,'
            '"interval_min":5.0}}\n'
        )

    def test_round_trip_values(self, world):
        # Every landed message equals its original reading: payload, ISO-Z
        # time, the gateways that heard it, and the hour of its file.
        fields = ", ".join(f"{c} DOUBLE" for c in PAYLOAD_COLS)
        msgs = duckdb.sql(f"""
            SELECT dev_id AS sensor_id, counter AS f_cnt, metadata.time AS time,
                   len(metadata.gateways) AS n_gateways,
                   regexp_extract(filename, 'msgs-([0-9]{{10}})\\.jsonl$', 1) AS file_hour,
                   payload_fields.*
            FROM read_json('{world.landing_dir}/*.jsonl', format='newline_delimited',
                           filename=true,
                           columns={{'dev_id': 'VARCHAR', 'counter': 'BIGINT',
                                     'metadata': 'STRUCT(time VARCHAR,
                                        gateways STRUCT(gtw_id VARCHAR, rssi DOUBLE)[])',
                                     'payload_fields': 'STRUCT({fields})'}})
        """).df()
        assert len(msgs) == world.n_landed
        heard = (
            world.receptions_pdf.groupby(["sensor_id", "f_cnt"]).size().rename("heard")
        )
        m = msgs.merge(
            world.readings_pdf, on=["sensor_id", "f_cnt"], suffixes=("", "_orig")
        ).join(heard, on=["sensor_id", "f_cnt"])
        assert len(m) == len(msgs)
        for c in PAYLOAD_COLS:
            assert (m[c] - m[f"{c}_orig"].astype(float)).abs().max() < 1e-9, c
        ts = pd.DatetimeIndex(m["ts"])
        assert (m["time"] == ts.strftime("%Y-%m-%dT%H:%M:%SZ")).all()
        assert (m["file_hour"] == ts.strftime("%Y%m%d%H")).all()
        assert (m["n_gateways"] == m["heard"]).all()


class TestNumberText:
    """Landed numbers read as Spark's ``to_json`` writes them."""

    EDGES = [0.001, -0.0, 5.0, 9999999.999, -121.0, 1013.25]

    def test_equals_spark_to_json(self, spark, world):
        rec = world.receptions_pdf
        sample = np.random.default_rng(0).choice(
            rec[[*PAYLOAD_COLS, "rssi"]].to_numpy(dtype=float).ravel(), 1000, replace=False)
        values = [*self.EDGES, *sample.tolist()]
        df = spark.createDataFrame(list(enumerate(values)), "i int, x double")
        spark_text = [
            r.j[len('{"x":'):-1]
            for r in df.orderBy("i").select(F.to_json(F.struct("x")).alias("j")).collect()
        ]
        assert mqtt.json_number(pa.array(values), "x").to_pylist() == spark_text
        assert spark_text[:len(self.EDGES)] == [
            "0.001", "-0.0", "5.0", "9999999.999", "-121.0", "1013.25"]

    @pytest.mark.parametrize("value", [1e-4, 1e7, float("nan"), float("inf"), None])
    def test_outside_the_shared_range_raises(self, value):
        with pytest.raises(ValueError, match="pressure"):
            mqtt.json_number(pa.array([1013.25, value]), "pressure")
