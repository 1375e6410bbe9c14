"""City deployment layouts: sensors, gateways, road links, stations.

The paper (§3) deploys 12 sensor nodes in Trondheim, Norway and 2 in
Vejle, Denmark, backed by a handful of LoRaWAN gateways per pilot
region, plus one official air-quality station (NILU) that one sensor is
co-located with for grounding/calibration (§2.4).

Everything here is deterministic: positions are fixed constants plus a
seeded jitter so scaled-up deployments (E7 density experiment) remain
reproducible. Coordinates are WGS84 degrees; :func:`local_xy` converts
to metres in a city-local tangent plane for distance computations.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

#: City centres (lat, lon) of the two pilot cities.
CITY_CENTER = {
    "trondheim": (63.4305, 10.3951),
    "vejle": (55.7113, 9.5364),
}

#: Number of sensor nodes per city in the paper's pilot (§3).
PAPER_SENSOR_COUNT = {"trondheim": 12, "vejle": 2}

#: LoRaWAN gateways per city ("a number of gateways covering the pilot
#: regions", §2.1). Offsets are metres east/north of the city centre.
_GATEWAY_OFFSETS = {
    "trondheim": [(0.0, 0.0), (1800.0, 900.0), (-1500.0, 1200.0)],
    "vejle": [(0.0, 0.0), (1200.0, -800.0)],
}

#: Major road links per city used by the here.com traffic feed and as
#: traffic-emission hotspots in the ground-truth field. Offsets are the
#: link midpoint in metres east/north of the centre; ``capacity`` scales
#: how congested the link gets at peak traffic.
_ROAD_LINKS = {
    "trondheim": [
        ("T-E6-south", -400.0, -1200.0, 1.00),
        ("T-E6-north", 600.0, 1500.0, 0.90),
        ("T-elgeseter", 150.0, -500.0, 1.10),
        ("T-innherredsv", 900.0, 400.0, 0.80),
        ("T-bypass", -1700.0, 300.0, 0.60),
    ],
    "vejle": [
        ("V-E45", -900.0, 200.0, 1.00),
        ("V-horsensvej", 400.0, 800.0, 0.70),
    ],
}

#: The official (NILU-style) reference station location per city, metres
#: from centre. Sensor index 0 of each city is co-located with it (§2.4:
#: "we have co-located one of our sensor units to the only station").
_STATION_OFFSET = {"trondheim": (150.0, -500.0), "vejle": (-900.0, 200.0)}

_M_PER_DEG_LAT = 110_540.0


def _m_per_deg_lon(lat: float) -> float:
    return 111_320.0 * np.cos(np.deg2rad(lat))


def local_xy(lat, lon, city: str):
    """Project WGS84 ``lat``/``lon`` to metres east/north of ``city``'s centre."""
    clat, clon = CITY_CENTER[city]
    x = (np.asarray(lon) - clon) * _m_per_deg_lon(clat)
    y = (np.asarray(lat) - clat) * _M_PER_DEG_LAT
    return x, y


def _to_latlon(x: np.ndarray, y: np.ndarray, city: str):
    clat, clon = CITY_CENTER[city]
    return clat + y / _M_PER_DEG_LAT, clon + x / _m_per_deg_lon(clat)


def _registry(rows: list[dict], columns: list[str]) -> pd.DataFrame:
    """A registry frame of ``rows`` placed by ``x_m``/``y_m`` in their
    city, with ``lat``/``lon`` added, in ``columns`` order."""
    for r in rows:
        lat, lon = _to_latlon(np.array(r["x_m"]), np.array(r["y_m"]), r["city"])
        r["lat"], r["lon"] = float(lat), float(lon)
    return pd.DataFrame(rows, columns=columns)


def sensors_pdf(
    *,
    n_trondheim: int | None = None,
    n_vejle: int | None = None,
    seed: int = 10,
) -> pd.DataFrame:
    """Sensor node registry as pandas.

    Defaults to the paper's 12 + 2 deployment. Node 0 of each city is
    pinned to the official station location (co-location for
    calibration); the rest are scattered within ~2.5 km of the centre,
    biased towards road links so traffic signal is observable.

    Columns: sensor_id, city, lat, lon, x_m, y_m, co_located.
    """
    g = np.random.default_rng(seed)
    rows = []
    counts = {
        "trondheim": PAPER_SENSOR_COUNT["trondheim"] if n_trondheim is None else n_trondheim,
        "vejle": PAPER_SENSOR_COUNT["vejle"] if n_vejle is None else n_vejle,
    }
    for city, n in counts.items():
        sx, sy = _STATION_OFFSET[city]
        links = _ROAD_LINKS[city]
        for i in range(n):
            if i == 0:
                x, y = sx, sy
            elif i % 3 == 1 and links:
                # near a road link (traffic-exposed site)
                _, lx, ly, _ = links[(i // 3) % len(links)]
                x = lx + g.normal(0, 150)
                y = ly + g.normal(0, 150)
            else:
                x = g.uniform(-2500, 2500)
                y = g.uniform(-2500, 2500)
            rows.append({"sensor_id": f"{city[0].upper()}-{i:02d}", "city": city,
                         "x_m": float(x), "y_m": float(y), "co_located": i == 0})
    return _registry(rows, ["sensor_id", "city", "lat", "lon", "x_m", "y_m", "co_located"])


def gateways_pdf() -> pd.DataFrame:
    """LoRaWAN gateway registry (gateway_id, city, lat, lon, x_m, y_m)."""
    rows = [{"gateway_id": f"gw-{city[:2]}-{i}", "city": city, "x_m": x, "y_m": y}
            for city, offsets in _GATEWAY_OFFSETS.items() for i, (x, y) in enumerate(offsets)]
    return _registry(rows, ["gateway_id", "city", "lat", "lon", "x_m", "y_m"])


def road_links_pdf() -> pd.DataFrame:
    """Road link registry (link_id, city, x_m, y_m, lat, lon, capacity)."""
    rows = [{"link_id": link_id, "city": city, "x_m": x, "y_m": y, "capacity": cap}
            for city, links in _ROAD_LINKS.items() for link_id, x, y, cap in links]
    return _registry(rows, ["link_id", "city", "x_m", "y_m", "lat", "lon", "capacity"])


def station_pdf() -> pd.DataFrame:
    """Official air-quality reference station per city (one each, §2.4)."""
    rows = [{"station_id": f"st-{city[:2]}", "city": city, "x_m": x, "y_m": y}
            for city, (x, y) in _STATION_OFFSET.items()]
    return _registry(rows, ["station_id", "city", "lat", "lon", "x_m", "y_m"])


def sensors(spark: SparkSession, **kw) -> DataFrame:
    """Spark view of :func:`sensors_pdf`."""
    return spark.createDataFrame(sensors_pdf(**kw))


def gateways(spark: SparkSession) -> DataFrame:
    """Spark view of :func:`gateways_pdf`."""
    return spark.createDataFrame(gateways_pdf())


def road_links(spark: SparkSession) -> DataFrame:
    """Spark view of :func:`road_links_pdf`."""
    return spark.createDataFrame(road_links_pdf())


def stations(spark: SparkSession) -> DataFrame:
    """Spark view of :func:`station_pdf`."""
    return spark.createDataFrame(station_pdf())


def sim_days(sf: float) -> int:
    """Simulated deployment duration in days at scale factor ``sf``.

    SF=0.01 → 4 days (~16k readings, unit-test scale); SF=0.1 → 36 days
    (~150k readings plus per-gateway packet duplication, benchmark
    scale); SF=1.0 → the full year of data the paper collected
    ("historic data ... collected since January 2017", §3).
    """
    return max(2, round(365 * sf))


#: Simulation epoch — the paper collects data "since January 2017" (§3).
SIM_START = pd.Timestamp("2017-01-01 00:00:00")


def time_grid(sf: float) -> pd.DatetimeIndex:
    """The base 5-minute measurement grid (§3) for ``sim_days(sf)`` days."""
    return pd.date_range(SIM_START, periods=sim_days(sf) * 24 * 12, freq="5min")
