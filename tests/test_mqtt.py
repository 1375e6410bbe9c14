"""MQTT landing zone: envelope format, file layout, round-trip."""
import json
import os

import duckdb
import pandas as pd

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

    def test_empty_input_creates_dir(self, tmp_path, spark, world):
        empty = world.receptions_pdf.iloc[0:0]
        out = str(tmp_path / "empty_landing")
        n = mqtt.land_messages(
            ttn_dedup(
                spark.createDataFrame(
                    empty,
                    schema=spark.createDataFrame(world.receptions_pdf).schema,
                )
            ),
            out,
        )
        assert n == 0
        assert os.path.isdir(out)

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
