"""Packet transport: receptions, TTN dedup, loss accounting."""
import duckdb
import pandas as pd
import pytest

from repro.iot import deployment as dep
from repro.lorawan import network
from repro.oracle import assert_equivalent


class TestReceptions:
    def test_subset_of_sent(self, world):
        sent = set(map(tuple, world.readings_pdf[["sensor_id", "f_cnt"]].to_numpy()))
        got = set(map(tuple, world.receptions_pdf[["sensor_id", "f_cnt"]].to_numpy()))
        assert got <= sent

    def test_loss_is_bounded(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        assert (acc["loss_rate"] < 0.15).all()
        assert (acc["loss_rate"] > 0.0).all()  # some loss is realistic

    def test_multi_gateway_duplication(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        tr = acc[acc["city"] == "trondheim"].iloc[0]
        assert tr["dup_factor"] > 1.3  # overlapping coverage

    def test_gateway_city_consistency(self, world):
        gw = dep.gateways_pdf().set_index("gateway_id")["city"]
        rec = world.receptions_pdf
        assert (rec["gateway_id"].map(gw) == rec["city"]).all()

    def test_outage_suppresses_receptions(self, world):
        o = world.outages[0]
        rec = world.receptions_pdf
        during = rec[
            (rec["gateway_id"] == o.gateway_id)
            & (rec["ts"] >= o.start)
            & (rec["ts"] < o.end)
        ]
        assert len(during) == 0
        before = rec[(rec["gateway_id"] == o.gateway_id) & (rec["ts"] < o.start)]
        assert len(before) > 0

    def test_deterministic(self, world):
        again = network.receptions_pdf(
            world.readings_pdf, outages=world.outages, seed=0
        )
        pd.testing.assert_frame_equal(world.receptions_pdf, again)


class TestTTNDedup:
    @pytest.fixture(scope="class")
    def dedup(self, world):
        return network.ttn_dedup(world.receptions_pdf).to_pandas()

    def test_one_row_per_uplink(self, dedup):
        assert not dedup.duplicated(["sensor_id", "f_cnt"]).any()

    def test_keeps_best_rssi(self, dedup):
        multi = dedup[dedup["n_gateways"] >= 2]
        assert len(multi) > 0
        for gws in multi["gateways"]:
            rssis = [g["rssi"] for g in gws]
            assert rssis == sorted(rssis, reverse=True)

    def test_whole_output_matches_duckdb_oracle(self, world):
        """Every uplink's payload, n_gateways and gateway list (strongest
        first, equal RSSIs by gateway id) equal DuckDB's, row for row."""
        rec = world.receptions_pdf
        tied = duckdb.sql("""
            SELECT count(*) FROM (SELECT sensor_id, f_cnt FROM rec
              GROUP BY sensor_id, f_cnt HAVING count(DISTINCT rssi) < count(*))
        """).fetchone()[0]
        assert tied > 0  # the gateway-id tie-break is exercised
        # Every reception of an uplink carries the same payload.
        want = duckdb.sql("""
            SELECT any_value(COLUMNS(* EXCLUDE (sensor_id, f_cnt, gateway_id, rssi))),
                   sensor_id, f_cnt, count(*) AS n_gateways,
                   list({'gtw_id': gateway_id, 'rssi': rssi}
                        ORDER BY rssi DESC, gateway_id) AS gateways
            FROM rec GROUP BY sensor_id, f_cnt
        """).df()
        got = network.ttn_dedup(rec).to_pandas()
        assert list(got.columns) == [
            "sensor_id", "f_cnt", *rec.columns.drop(["sensor_id", "f_cnt", "gateway_id", "rssi"]),
            "n_gateways", "gateways",
        ]
        for df in (got, want):
            df["ts"] = df["ts"].astype("datetime64[ns]")
            df["gateways"] = [[(g["gtw_id"], g["rssi"]) for g in gws] for gws in df["gateways"]]
        keys = ["sensor_id", "f_cnt"]
        pd.testing.assert_frame_equal(
            got.sort_values(keys).reset_index(drop=True),
            want[got.columns].sort_values(keys).reset_index(drop=True),
            check_exact=True,
        )

    def test_count_matches_distinct_uplinks_oracle(self, world, dedup):
        rec = world.receptions_pdf[["sensor_id", "f_cnt", "city"]]
        got = dedup.groupby("city").size().rename("uplinks").reset_index()
        assert_equivalent(
            got,
            """
            SELECT city, count(*) AS uplinks FROM (
              SELECT DISTINCT city, sensor_id, f_cnt FROM rec
            ) GROUP BY city
            """,
            rec=rec,
        )

    def test_n_gateways_matches_reception_rows_oracle(self, world, dedup):
        got = dedup.groupby("sensor_id")["n_gateways"].sum().rename("gw_receptions")
        assert_equivalent(
            got.reset_index(),
            "SELECT sensor_id, count(*) AS gw_receptions FROM rec GROUP BY sensor_id",
            rec=world.receptions_pdf[["sensor_id", "f_cnt"]],
        )

    def test_payload_preserved(self, world, dedup):
        merged = dedup.merge(
            world.readings_pdf, on=["sensor_id", "f_cnt"], suffixes=("", "_orig")
        )
        assert len(merged) == len(dedup)
        pd.testing.assert_series_equal(
            merged["co2"], merged["co2_orig"], check_names=False
        )

    def test_empty_receptions(self, world):
        got = network.ttn_dedup(world.receptions_pdf.iloc[0:0])
        assert got.num_rows == 0
        assert got.column_names[-2:] == ["n_gateways", "gateways"]


class TestLossAccounting:
    def test_columns(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        assert {
            "city", "sent", "delivered", "gw_receptions", "lost",
            "loss_rate", "dup_factor",
        } <= set(acc.columns)

    def test_sent_equals_delivered_plus_lost(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        assert (acc["sent"] == acc["delivered"] + acc["lost"]).all()
