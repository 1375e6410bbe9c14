"""Hierarchical failure classification + network graph (Fig 3)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataport import hierarchy, twins
from repro.iot import deployment as dep
from repro.oracle import assert_equivalent

H = lambda h: dep.SIM_START + pd.Timedelta(hours=h)


class TestClassification:
    def test_sensor_deaths_classified_as_sensor_failure(self, world):
        cls = hierarchy.classify(world.uplinks, H(45)).toPandas()
        mine = cls.set_index("sensor_id")
        assert mine.loc["T-03", "failure_kind"] == hierarchy.KIND_SENSOR
        assert mine.loc["T-07", "failure_kind"] == hierarchy.KIND_SENSOR

    def test_city_outage_classified_as_gateway_outage(self, world):
        cls = hierarchy.classify(world.uplinks, H(53)).toPandas()
        vejle = cls[cls["city"] == "vejle"]
        assert set(vejle["sensor_id"]) == {"V-00", "V-01"}
        assert (vejle["failure_kind"] == hierarchy.KIND_GATEWAY).all()

    def test_single_gateway_outage_blames_nobody(self, world):
        # During gw-tr-1's outage (hours 26–32) coverage overlap keeps
        # all Trondheim sensors visible: no FAILED twins, no blame.
        cls = hierarchy.classify(world.uplinks, H(29)).toPandas()
        assert len(cls[cls["city"] == "trondheim"]) == 0

    def test_no_failures_before_any_fault(self, world):
        cls = hierarchy.classify(world.uplinks, H(20))
        assert cls.count() == 0

    @pytest.mark.parametrize("hour", [29, 45, 53])
    def test_dependents_oracle(self, world, hour):
        # A gateway's dependents are the sensors whose modal best gateway
        # it is, failed or not; every FAILED sensor reports its own
        # gateway's counts.
        at = H(hour)
        got = hierarchy.classify(world.uplinks, at).select(
            "sensor_id", "primary_gateway", "dependents", "dependents_failed"
        )
        assert_equivalent(
            got,
            f"""
            WITH tw AS (
              SELECT sensor_id, max(ts) AS last_seen,
                     arg_max(interval_min, ts) AS interval_min,
                     mode(best_gateway) AS primary_gateway
              FROM up WHERE ts <= TIMESTAMP '{at}' GROUP BY sensor_id
            ), st AS (
              SELECT *, floor((epoch(TIMESTAMP '{at}') - epoch(last_seen))
                              / (interval_min * 60)) >= {twins.MISS_FAIL} AS failed
              FROM tw
            ), dep AS (
              SELECT primary_gateway, count(*) AS dependents,
                     sum(failed::INT) AS dependents_failed
              FROM st GROUP BY primary_gateway
            )
            SELECT st.sensor_id, st.primary_gateway, dep.dependents,
                   dep.dependents_failed
            FROM st JOIN dep USING (primary_gateway) WHERE st.failed
            """,
            up=world.uplinks.select(
                "sensor_id", "ts", "interval_min", "best_gateway"
            ).toPandas(),
        )

    def test_unheard_sensor_is_a_sensor_failure(self, world):
        # T-03 dies before hour 45. If no gateway had ever been listed for
        # its packets, its twin has no primary gateway, no dependents and
        # no gateway to blame.
        t03 = F.col("sensor_id") == "T-03"
        no_gateway = F.filter("gateways", lambda g: F.lit(False))
        unheard = world.uplinks.withColumns({
            "gateways": F.when(t03, no_gateway).otherwise(F.col("gateways")),
            "best_gateway": F.when(~t03, F.col("best_gateway")),
        })
        (r,) = hierarchy.classify(unheard, H(45)).filter(t03).collect()
        assert r["primary_gateway"] is None and r["gateway_status"] is None
        assert r["dependents"] is None and r["dependents_failed"] is None
        assert r["failure_kind"] == hierarchy.KIND_SENSOR

    def test_confusion_matrix_perfect_on_scenario(self, world):
        """E6 acceptance: every injected failure classified correctly."""
        truth = {
            "T-03": hierarchy.KIND_SENSOR,
            "T-07": hierarchy.KIND_SENSOR,
            "V-00": hierarchy.KIND_GATEWAY,
            "V-01": hierarchy.KIND_GATEWAY,
        }
        got = {}
        for at in (H(45), H(53)):
            for r in hierarchy.classify(world.uplinks, at).collect():
                got.setdefault(r["sensor_id"], r["failure_kind"])
        assert got == truth


class TestNetworkGraph:
    def test_nodes_cover_sensors_and_gateways(self, world):
        nodes, _ = hierarchy.network_graph(world.uplinks)
        pdf = nodes.toPandas()
        assert (pdf["kind"] == "sensor").sum() == 14
        assert (pdf["kind"] == "gateway").sum() == 5

    def test_edges_city_consistent(self, world):
        _, edges = hierarchy.network_graph(world.uplinks)
        gw_city = dep.gateways_pdf().set_index("gateway_id")["city"]
        pdf = edges.toPandas()
        assert (pdf["gateway_id"].map(gw_city) == pdf["city"]).all()

    def test_edge_packets_sum_to_gw_receptions(self, world):
        _, edges = hierarchy.network_graph(world.uplinks)
        total = edges.agg(F.sum("packets").alias("s")).collect()[0]["s"]
        expected = world.uplinks.agg(
            F.sum("n_gateways").alias("s")
        ).collect()[0]["s"]
        assert total == expected

    def test_rssi_plausible(self, world):
        _, edges = hierarchy.network_graph(world.uplinks)
        pdf = edges.toPandas()
        assert pdf["rssi_avg"].between(-130, -40).all()
