"""Ground-truth urban emission + weather field.

The paper measures CO2, NO2, PMx (PM10/PM2.5), temperature, pressure
and humidity (§2.1). Downstream experiments need a *continuous*
ground-truth field — sampleable at any (location, time) — so that
low-cost sensors, the official reference station, satellite overpasses
and grid reconstructions (E7) all observe the same underlying reality.

The field is a sum of deterministic seeded components:

* **Diurnal/weekly traffic intensity** (double rush-hour peak on
  weekdays, flatter weekends) driving NO2 and, weakly, CO2.
* **Boundary-layer CO2 dynamics**: CO2 accumulates at night / early
  morning under a shallow inversion layer and is diluted during the
  day. This deliberately *decouples* CO2 from the traffic jam factor —
  the paper's Fig 5 finding ("traffic is not the only factor ...
  no apparent correlation") emerges from the physics, not from a
  hard-coded answer.
* **Weather**: seasonal + diurnal temperature, slow pressure waves,
  humidity, wind (dilutes pollutants), cloud cover (cuts solar
  charging).
* **Spatial structure**: downtown enhancement decaying with distance
  to the centre, plus hotspots decaying with distance to road links.
* **Smooth seeded noise** (sum of seeded sinusoids), so the field is
  reproducible yet not trivially periodic.

All functions are vectorised over numpy arrays and deterministic in
``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.iot import deployment

#: Pollutant metrics produced by sensor nodes.
POLLUTANTS = ("co2", "no2", "pm10", "pm25")
#: Weather metrics produced by sensor nodes.
WEATHER = ("temperature", "pressure", "humidity")
#: All metrics a node reports.
ALL_METRICS = POLLUTANTS + WEATHER

_CITY_SEED = {"trondheim": 100, "vejle": 200}


def _hours(ts: np.ndarray) -> np.ndarray:
    """Fractional hours since the simulation epoch."""
    ts = np.asarray(ts, dtype="datetime64[s]")
    epoch = np.datetime64(deployment.SIM_START.to_datetime64(), "s")
    return (ts - epoch) / np.timedelta64(3600, "s")


def _hour_of_day(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype="datetime64[s]")
    days = ts.astype("datetime64[D]")
    return (ts - days) / np.timedelta64(3600, "s")


def _day_of_year(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype="datetime64[s]")
    years = ts.astype("datetime64[Y]")
    return (ts - years) / np.timedelta64(86400, "s")


def _is_weekend(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype="datetime64[s]")
    # 1970-01-01 was a Thursday → weekday index (Mon=0) is (days+3) % 7.
    days = ts.astype("datetime64[D]").astype("int64")
    return ((days + 3) % 7) >= 5


def smooth_noise(
    t_hours: np.ndarray, seed: int, *, scale: float = 1.0, n_waves: int = 8
) -> np.ndarray:
    """Smooth deterministic noise: sum of seeded sinusoids.

    Periods span ~3 h to ~200 h so the signal has both synoptic and
    sub-daily variability; output is approximately zero-mean with
    standard deviation ``scale``.
    """
    g = np.random.default_rng(seed)
    periods = np.exp(g.uniform(np.log(3.0), np.log(200.0), n_waves))
    phases = g.uniform(0, 2 * np.pi, n_waves)
    amps = g.uniform(0.5, 1.0, n_waves)
    t = np.asarray(t_hours, dtype="float64")[..., None]
    waves = amps * np.sin(2 * np.pi * t / periods + phases)
    out = waves.sum(axis=-1)
    norm = np.sqrt((amps**2).sum() / 2.0)
    return scale * out / norm


def traffic_intensity(ts: np.ndarray, *, seed: int = 7) -> np.ndarray:
    """City traffic activity in [0, 1]: weekday rush-hour double peak.

    Weekdays peak ~08:00 and ~16:30; weekends have one flatter midday
    bump. A small smooth noise term perturbs day-to-day levels.
    """
    h = _hour_of_day(ts)
    weekend = _is_weekend(ts)
    am = np.exp(-0.5 * ((h - 8.0) / 1.4) ** 2)
    pm = np.exp(-0.5 * ((h - 16.5) / 1.8) ** 2)
    midday = np.exp(-0.5 * ((h - 13.0) / 3.0) ** 2)
    base = np.where(weekend, 0.45 * midday, 0.95 * am + 1.0 * pm)
    base = base + 0.06  # residual night traffic
    noisy = base * (1.0 + 0.15 * smooth_noise(_hours(ts), seed + 17))
    return np.clip(noisy, 0.0, 1.0)


def _boundary_layer_factor(ts: np.ndarray) -> np.ndarray:
    """Inverse mixing-height proxy in [0, 1]: high at night, low midday.

    Controls nocturnal accumulation of CO2 (and mildly PMx). Peaks
    around 04:00–06:00, minimum mid-afternoon.
    """
    h = _hour_of_day(ts)
    return 0.5 + 0.5 * np.cos(2 * np.pi * (h - 5.0) / 24.0)


def _weather(city: str, ts: np.ndarray, *, seed: int) -> dict[str, np.ndarray]:
    """The weather columns of :func:`weather_pdf`, each shaped like ``ts``."""
    th = _hours(ts)
    s = seed + _CITY_SEED[city]
    doy = _day_of_year(ts)
    h = _hour_of_day(ts)
    season = -np.cos(2 * np.pi * (doy - 15) / 365.25)  # min mid-Jan
    base_t = {"trondheim": 5.0, "vejle": 8.5}[city]
    temperature = (
        base_t + 9.0 * season + 3.0 * np.sin(2 * np.pi * (h - 9.0) / 24.0)
        + smooth_noise(th, s + 1, scale=2.5)
    )
    pressure = 1013.0 + smooth_noise(th, s + 2, scale=9.0, n_waves=4)
    humidity = np.clip(
        78.0 - 1.2 * (temperature - base_t) + smooth_noise(th, s + 3, scale=8.0),
        25.0,
        100.0,
    )
    wind = np.clip(3.5 + smooth_noise(th, s + 4, scale=2.0), 0.3, None)
    cloud = np.clip(0.55 + smooth_noise(th, s + 5, scale=0.35), 0.0, 1.0)
    return {
        "temperature": temperature,
        "pressure": pressure,
        "humidity": humidity,
        "wind": wind,
        "cloud": cloud,
    }


def weather_pdf(city: str, ts: np.ndarray, *, seed: int = 0) -> pd.DataFrame:
    """Weather at the city scale: one row per timestamp.

    Columns: ts, temperature (°C), pressure (hPa), humidity (%RH),
    wind (m/s, ≥0.3), cloud (0..1 cover fraction).
    """
    ts = np.asarray(ts, dtype="datetime64[s]")
    return pd.DataFrame(
        {"ts": pd.DatetimeIndex(ts), "city": city, **_weather(city, ts, seed=seed)}
    )


def solar_elevation(lat_deg: float, ts: np.ndarray) -> np.ndarray:
    """Sine of solar elevation (clamped ≥ 0) — standard declination model.

    At Trondheim's latitude (63.4°N) January days are ~5 h short, so
    solar charging windows are narrow in winter — exactly the battery
    behaviour Fig 4 studies.
    """
    doy = _day_of_year(ts)
    h = _hour_of_day(ts)
    decl = np.deg2rad(-23.44) * np.cos(2 * np.pi * (doy + 10) / 365.25)
    lat = np.deg2rad(lat_deg)
    hour_angle = np.deg2rad(15.0 * (h - 12.0))
    sin_elev = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(
        hour_angle
    )
    return np.clip(sin_elev, 0.0, None)


def solar_irradiance(city: str, ts: np.ndarray, *, seed: int = 0) -> np.ndarray:
    """Relative solar irradiance in [0, 1]: elevation × cloud attenuation."""
    lat = deployment.CITY_CENTER[city][0]
    cloud = _weather(city, ts, seed=seed)["cloud"]
    return solar_elevation(lat, ts) * (1.0 - 0.75 * cloud)


def _road_proximity(x_m: np.ndarray, y_m: np.ndarray, city: str) -> np.ndarray:
    """Traffic-exposure weight in [0,1]: exp(-d/300 m) to nearest road link."""
    links = deployment.road_links_pdf()
    links = links[links["city"] == city]
    x = np.asarray(x_m, dtype="float64")[..., None]
    y = np.asarray(y_m, dtype="float64")[..., None]
    d = np.sqrt(
        (x - links["x_m"].to_numpy()) ** 2 + (y - links["y_m"].to_numpy()) ** 2
    )
    return np.exp(-d.min(axis=-1) / 300.0)


def _downtown(x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Urban-core enhancement in [0,1], 1 at centre, e-fold ~1.2 km."""
    d = np.sqrt(np.asarray(x_m) ** 2 + np.asarray(y_m) ** 2)
    return np.exp(-d / 1200.0)


def truth(
    city: str,
    x_m: np.ndarray,
    y_m: np.ndarray,
    ts: np.ndarray,
    *,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Ground truth of every metric in :data:`ALL_METRICS` at local
    position(s) and time(s), keyed by metric.

    ``x_m``/``y_m``/``ts`` broadcast against each other, and every value
    has the broadcast shape and is writable. Weather, traffic and the
    boundary layer are evaluated once per timestamp as passed, road
    proximity and downtown once per position, all shared by the seven
    metrics. Units: CO2 ppm, NO2/PM µg/m³, temperature °C, pressure hPa,
    humidity %RH.
    """
    ts = np.asarray(ts, dtype="datetime64[s]")
    x_m = np.asarray(x_m, dtype="float64")
    y_m = np.asarray(y_m, dtype="float64")
    shape = np.broadcast_shapes(x_m.shape, y_m.shape, ts.shape)
    th = _hours(ts)
    s = seed + _CITY_SEED[city]
    wx = _weather(city, ts, seed=seed)
    dilution = 1.0 / (1.0 + 0.25 * (wx["wind"] - 3.5))  # windy → diluted
    tr = traffic_intensity(ts, seed=seed)
    bl = _boundary_layer_factor(ts)
    prox = _road_proximity(x_m, y_m, city)
    core = _downtown(x_m, y_m)
    # CO2: boundary-layer accumulation dominates; traffic coupling is weak
    # (§2.4: "traffic is not the only factor ... no apparent
    # correlation"). Seasonal term: higher in winter (heating, no
    # vegetation uptake).
    season = 6.0 * np.cos(2 * np.pi * (_day_of_year(ts) - 20) / 365.25)
    co2 = (
        412.0
        + season
        + 30.0 * bl * dilution
        + 6.0 * tr * prox
        + 10.0 * core
        + smooth_noise(th, s + 11, scale=4.0)
    )
    # NO2: strongly traffic-driven (contrast for E3's NO2 column).
    no2 = (
        9.0
        + 55.0 * tr * prox * dilution
        + 10.0 * core * dilution
        + 6.0 * bl
        + smooth_noise(th, s + 12, scale=3.0)
    )
    # PM2.5 is 0.55 of the PM10 level, with its own noise.
    pm = (
        11.0
        + 16.0 * tr * prox * dilution
        + 6.0 * core
        + 4.0 * bl
        + 0.05 * wx["humidity"]
    )
    return {
        "co2": np.clip(co2, 380.0, None),
        "no2": np.clip(no2, 0.5, None),
        "pm10": np.clip(pm + smooth_noise(th, s + 13, scale=2.5), 0.5, None),
        "pm25": np.clip(0.55 * (pm + smooth_noise(th, s + 14, scale=2.5)), 0.5, None),
        "temperature": wx["temperature"] - 2.0 * (1.0 - core) * 0.3,
        "pressure": np.broadcast_to(wx["pressure"], shape).copy(),
        "humidity": np.broadcast_to(wx["humidity"], shape).copy(),
    }
