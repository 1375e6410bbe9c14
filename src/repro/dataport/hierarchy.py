"""Hierarchical failure classification.

§2.3: "Actors are organized hierarchically. On higher levels, failures
can be grouped so that for example a distinction can be drawn between
sensor failures versus a gateway outage that would make a set of
sensors invisible."

At an evaluation instant we combine sensor twins and gateway twins:

* a FAILED sensor whose *primary gateway* is itself FAILED, while most
  of that gateway's dependents are also failed and the sensor is still
  heard by no other gateway → classified ``gateway_outage``;
* otherwise → ``sensor_failure``.

"Dependents" of a gateway are sensors for which it is the modal best
gateway. A sensor with healthy multi-gateway coverage survives a
gateway outage (another gateway still hears it), so only
single-coverage sensors go dark — exactly the confusion the hierarchy
resolves.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.dataport import twins

#: Fraction of a gateway's dependents that must be FAILED to blame the
#: gateway rather than the individual sensors.
OUTAGE_DEPENDENT_FRACTION = 0.6

KIND_SENSOR, KIND_GATEWAY = "sensor_failure", "gateway_outage"


def classify(uplinks: DataFrame, at) -> DataFrame:
    """Classify every FAILED sensor twin at instant ``at``.

    Returns sensor_id, city, primary_gateway, missed_cycles,
    gateway_status, dependents, dependents_failed, failure_kind.
    """
    gt = twins.gateway_twins(uplinks, at).select(
        F.col("gateway_id").alias("primary_gateway"),
        F.col("status").alias("gateway_status"),
    )
    # Dependents are counted over every twin of the same primary
    # gateway; a sensor no gateway heard has none.
    per_gw = lambda c: F.when(
        F.col("primary_gateway").isNotNull(),
        c.over(Window.partitionBy("primary_gateway")),
    )
    is_failed = F.col("status") == twins.STATUS_FAILED
    failed = (
        twins.sensor_twins(uplinks, at)
        .withColumn("dependents", per_gw(F.count(F.lit(1))))
        .withColumn("dependents_failed", per_gw(F.sum(is_failed.cast("long"))))
        .filter(is_failed)
    )
    joined = failed.join(gt, "primary_gateway", "left")
    is_outage = (
        (F.col("gateway_status") == twins.STATUS_FAILED)
        & (
            F.col("dependents_failed")
            >= F.col("dependents") * F.lit(OUTAGE_DEPENDENT_FRACTION)
        )
    )
    return joined.select(
        "sensor_id",
        "city",
        "primary_gateway",
        "missed_cycles",
        "gateway_status",
        "dependents",
        "dependents_failed",
        F.when(is_outage, KIND_GATEWAY).otherwise(KIND_SENSOR).alias("failure_kind"),
    )


def network_graph(uplinks: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Nodes and live links for the Fig 3 network visualization.

    Returns (nodes, edges): nodes are sensors and gateways with last
    activity; edges are (sensor, gateway) pairs with packet counts and
    mean RSSI — "the structure of digital twins for sensors and
    gateways, their location, the connections and live data
    transmission" (§2.3).
    """
    exploded = uplinks.select(
        "sensor_id", "city", "ts", F.explode("gateways").alias("g")
    ).select(
        "sensor_id", "city", "ts",
        F.col("g.gtw_id").alias("gateway_id"),
        F.col("g.rssi").alias("rssi"),
    )
    edges = exploded.groupBy("sensor_id", "gateway_id", "city").agg(
        F.count(F.lit(1)).alias("packets"),
        F.round(F.avg("rssi"), 1).alias("rssi_avg"),
        F.max("ts").alias("last_ts"),
    )
    sensors = uplinks.groupBy("sensor_id", "city").agg(
        F.max("ts").alias("last_ts"), F.count(F.lit(1)).alias("packets")
    ).select(
        F.col("sensor_id").alias("node_id"),
        F.lit("sensor").alias("kind"),
        "city", "last_ts", "packets",
    )
    gws = exploded.groupBy("gateway_id", "city").agg(
        F.max("ts").alias("last_ts"), F.count(F.lit(1)).alias("packets")
    ).select(
        F.col("gateway_id").alias("node_id"),
        F.lit("gateway").alias("kind"),
        "city", "last_ts", "packets",
    )
    return sensors.unionByName(gws), edges
