"""Sensor node simulator: cadence, battery physics, adaptive frequency,
error model, fault behaviour."""
import numpy as np
import pandas as pd
import pytest

from repro.iot import deployment as dep
from repro.iot import field, sensor
from repro.iot.faults import Fault


@pytest.fixture(scope="module")
def readings():
    return sensor.simulate_readings_pdf(sf=0.008, seed=0)


class TestShape:
    def test_columns(self, readings):
        expected = {
            "sensor_id", "city", "ts", "co2", "no2", "pm10", "pm25",
            "temperature", "pressure", "humidity", "battery",
            "interval_min", "f_cnt",
        }
        assert expected == set(readings.columns)

    def test_all_sensors_present(self, readings):
        assert readings["sensor_id"].nunique() == 14

    def test_five_minute_cadence_at_full_battery(self, readings):
        one = readings[readings["sensor_id"] == "T-00"].sort_values("ts")
        gaps = one["ts"].diff().dropna()
        # healthy battery (>30%) for the whole 3-day window → 5-min gaps
        assert (gaps == pd.Timedelta(minutes=5)).all()
        assert (one["interval_min"] == 5).all()

    def test_frame_counter_monotone(self, readings):
        for _, grp in readings.groupby("sensor_id"):
            cnt = grp.sort_values("ts")["f_cnt"].to_numpy()
            assert (np.diff(cnt) == 1).all()
            assert cnt[0] == 0

    def test_deterministic(self, readings):
        again = sensor.simulate_readings_pdf(sf=0.008, seed=0)
        pd.testing.assert_frame_equal(readings, again)

    def test_seed_changes_noise(self, readings):
        other = sensor.simulate_readings_pdf(sf=0.008, seed=1)
        merged = readings.merge(other, on=["sensor_id", "ts"], suffixes=("_a", "_b"))
        assert not np.allclose(merged["co2_a"], merged["co2_b"])


class TestBattery:
    def test_battery_in_range(self, readings):
        assert readings["battery"].between(0, 100).all()

    def test_starts_near_start_level(self, readings):
        first = readings.sort_values("ts").groupby("sensor_id").first()
        assert (first["battery"] <= sensor.BATTERY_START).all()
        assert (first["battery"] > sensor.BATTERY_START - 1).all()

    def test_net_discharge_in_january_trondheim(self, readings):
        # Winter at 63°N: short days, net depletion (Fig 4 context).
        one = readings[readings["sensor_id"] == "T-02"].sort_values("ts")
        assert one["battery"].iloc[-1] < one["battery"].iloc[0]

    def test_daytime_charging_visible(self, readings):
        one = readings[readings["sensor_id"] == "V-00"].sort_values("ts")
        delta = one["battery"].diff()
        hours = one["ts"].dt.hour
        midday = delta[(hours >= 10) & (hours <= 13)]
        night = delta[(hours >= 0) & (hours <= 3)]
        assert midday.mean() > night.mean()

    def test_interval_thresholds(self):
        assert sensor.interval_ticks_for(100.0) == 1
        assert sensor.interval_ticks_for(30.0) == 1
        assert sensor.interval_ticks_for(29.9) == 2
        assert sensor.interval_ticks_for(15.0) == 2
        assert sensor.interval_ticks_for(14.9) == 4
        assert sensor.interval_ticks_for(0.0) == 4


class TestErrorModel:
    def test_calibration_deterministic(self):
        a = sensor.node_calibration("T-05", seed=0)
        b = sensor.node_calibration("T-05", seed=0)
        assert a == b

    def test_calibration_varies_by_node(self):
        a = sensor.node_calibration("T-05", seed=0)
        b = sensor.node_calibration("T-06", seed=0)
        assert a.bias["co2"] != b.bias["co2"]

    def test_stable_seed_is_process_independent(self):
        # Known-value pin: blake2s is stable across processes/platforms.
        assert sensor.stable_seed("calib", "T-00", 0) == sensor.stable_seed(
            "calib", "T-00", 0
        )
        assert sensor.stable_seed("a") != sensor.stable_seed("b")

    def test_measured_tracks_truth(self, readings):
        one = readings[readings["sensor_id"] == "T-00"]
        truth = field.truth(
            "trondheim",
            dep.sensors_pdf().set_index("sensor_id").loc["T-00", "x_m"],
            dep.sensors_pdf().set_index("sensor_id").loc["T-00", "y_m"],
            one["ts"].to_numpy(), seed=0,
        )["co2"]
        r = np.corrcoef(one["co2"], truth)[0, 1]
        assert r > 0.9  # gain/bias/noise, but trend preserved

    def test_pollutant_noise_larger_than_weather(self, readings):
        one = readings[readings["sensor_id"] == "T-00"]
        # residual vs rolling median as a crude noise proxy
        co2_noise = (one["co2"] - one["co2"].rolling(12, center=True).median()).std()
        pres_noise = (
            one["pressure"] - one["pressure"].rolling(12, center=True).median()
        ).std()
        assert co2_noise > 5 * pres_noise


class TestFaults:
    def test_death_stops_transmissions(self):
        t0 = dep.SIM_START + pd.Timedelta(hours=10)
        r = sensor.simulate_readings_pdf(
            sf=0.008, seed=0, faults=[Fault("T-01", "death", t0)]
        )
        one = r[r["sensor_id"] == "T-01"]
        assert one["ts"].max() < t0
        # other sensors unaffected
        assert r[r["sensor_id"] == "T-02"]["ts"].max() > t0

    def test_flatline_freezes_metric(self):
        t0 = dep.SIM_START + pd.Timedelta(hours=10)
        r = sensor.simulate_readings_pdf(
            sf=0.008, seed=0, faults=[Fault("T-01", "flatline", t0, metric="no2")]
        )
        one = r[(r["sensor_id"] == "T-01") & (r["ts"] >= t0)]
        assert one["no2"].nunique() == 1
        assert one["co2"].nunique() > 10  # other channels unaffected

    def test_drift_grows_with_time(self):
        t0 = dep.SIM_START
        base = sensor.simulate_readings_pdf(sf=0.008, seed=0)
        drifted = sensor.simulate_readings_pdf(
            sf=0.008, seed=0,
            faults=[Fault("T-01", "drift", t0, metric="co2", rate_per_hour=0.01)],
        )
        m = base.merge(
            drifted, on=["sensor_id", "ts"], suffixes=("_base", "_drift")
        )
        m = m[m["sensor_id"] == "T-01"].sort_values("ts")
        excess = (m["co2_drift"] - m["co2_base"]).to_numpy()
        assert excess[-1] > excess[len(excess) // 2] > 1.0

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("T-01", "explode", dep.SIM_START)


class TestAdaptiveRate:
    def test_low_battery_slows_cadence(self, monkeypatch):
        # Drive a node with zero irradiance from a nearly-depleted start
        # so it crosses the 30% threshold inside the window.
        monkeypatch.setattr(sensor, "BATTERY_START", 31.0)
        grid = dep.time_grid(0.008)
        row = dep.sensors_pdf().iloc[2]
        truths = {
            m: np.zeros(len(grid)) + 400 for m in field.ALL_METRICS
        }
        irr = np.zeros(len(grid))
        out = sensor._simulate_node(row, grid, irr, truths, [], seed=0)
        assert (out["interval_min"] == 10).any()  # threshold crossed
        # with zero charging the battery only falls; cadence never
        # speeds back up, and interval reflects the battery level
        assert (out["battery"].diff().dropna() <= 0).all()
        levels = out["battery"].to_numpy()
        intervals = out["interval_min"].to_numpy()
        assert (intervals[levels >= 30] == 5).all()
        assert (intervals[(levels < 30) & (levels >= 15)] == 10).all()


def _reference_readings(sf: float, seed: int, faults: list) -> pd.DataFrame:
    """The per-tick simulator: one dict per transmitted tick, with the
    truth sampled per sensor. The array simulator must equal it exactly."""
    grid = dep.time_grid(sf)
    rows = []
    for _, s in dep.sensors_pdf().iterrows():
        sid, city = s["sensor_id"], s["city"]
        irr = field.solar_irradiance(city, grid.values, seed=seed)
        truth = field.truth(city, s["x_m"], s["y_m"], grid.values, seed=seed)
        calib = sensor.node_calibration(sid, seed=seed)
        g = np.random.default_rng(sensor.stable_seed("noise", sid, seed))
        noise = {m: g.normal(0.0, sensor.ERROR_MODEL[m][2], len(grid))
                 for m in field.ALL_METRICS}
        mine = [f for f in faults if f.sensor_id == sid]
        death = min((f.start for f in mine if f.kind == "death"), default=None)
        drift = {f.metric: f for f in mine if f.kind == "drift"}
        flat = {f.metric: f for f in mine if f.kind == "flatline"}
        battery, next_tx, f_cnt, held = sensor.BATTERY_START, 0, 0, {}
        for i, ts in enumerate(grid):
            battery = max(0.0, min(100.0, battery + sensor.CHARGE_PER_TICK_FULL_SUN
                                   * irr[i] - sensor.IDLE_COST_PER_TICK))
            if i < next_tx or battery <= 1.0:
                continue
            if death is None or ts < death:
                rec = {"sensor_id": sid, "city": city, "ts": ts}
                for m in field.ALL_METRICS:
                    gain = calib.gain[m]
                    if m in drift and ts >= drift[m].start:
                        hrs = (ts - drift[m].start) / pd.Timedelta(hours=1)
                        gain *= 1.0 + drift[m].rate_per_hour * hrs
                    val = gain * truth[m][i] + calib.bias[m] + noise[m][i]
                    if m in flat and ts >= flat[m].start:
                        val = held.setdefault(m, val)
                    rec[m] = round(float(val), 3)
                rec["battery"] = round(battery, 3)
                rec["interval_min"] = sensor.interval_ticks_for(battery) * sensor.BASE_INTERVAL_MIN
                rec["f_cnt"] = f_cnt
                rows.append(rec)
                battery = max(0.0, battery - sensor.TX_COST)
                f_cnt += 1
            next_tx = i + sensor.interval_ticks_for(battery)
    return pd.DataFrame(rows).sort_values(["ts", "sensor_id"]).reset_index(drop=True)


class TestMatchesPerTickReference:
    """The array simulator against the per-tick loop on a 2-day window."""

    SF = 0.005  # 2 simulated days
    FAULTS = [
        # A death between two ticks: the node's last row is the tick before.
        Fault("T-03", "death", dep.SIM_START + pd.Timedelta(hours=30, seconds=150)),
        # Drift, then a flatline of the same metric: the held value is drifted.
        Fault("T-05", "drift", dep.SIM_START + pd.Timedelta(hours=6), metric="co2",
              rate_per_hour=0.01),
        Fault("T-05", "flatline", dep.SIM_START + pd.Timedelta(hours=20), metric="co2"),
        Fault("V-01", "flatline", dep.SIM_START + pd.Timedelta(hours=9, minutes=2),
              metric="pm25"),
    ]

    def test_with_faults(self):
        got = sensor.simulate_readings_pdf(sf=self.SF, seed=1, faults=self.FAULTS)
        pd.testing.assert_frame_equal(
            got, _reference_readings(self.SF, 1, self.FAULTS), check_exact=True
        )
        assert got[got["sensor_id"] == "T-03"]["ts"].max() == (
            dep.SIM_START + pd.Timedelta(hours=30)
        )

    def test_low_battery_crosses_every_threshold(self, monkeypatch):
        # The TestAdaptiveRate start (31 %, no sun), with an idle cost high
        # enough that every node falls through 30 % and 15 % and reaches the
        # 1 % gate inside the window.
        monkeypatch.setattr(sensor, "BATTERY_START", 31.0)
        monkeypatch.setattr(sensor, "IDLE_COST_PER_TICK", 0.06)
        monkeypatch.setattr(
            field, "solar_irradiance", lambda city, ts, seed=0: np.zeros(len(ts))
        )
        got = sensor.simulate_readings_pdf(sf=self.SF, seed=0, faults=self.FAULTS)
        assert set(got["interval_min"]) == {5, 10, 20}
        assert got["ts"].max() < dep.SIM_START + pd.Timedelta(days=2, hours=-1)
        pd.testing.assert_frame_equal(
            got, _reference_readings(self.SF, 0, self.FAULTS), check_exact=True
        )


def test_weather_evaluated_once_per_city_and_call(monkeypatch):
    # Per city: one field.truth call for every node and metric, and one
    # solar_irradiance call; each evaluates the city's weather once.
    calls = []
    weather = field._weather

    def counted(city, ts, *, seed):
        calls.append(city)
        return weather(city, ts, seed=seed)

    monkeypatch.setattr(field, "_weather", counted)
    sensor.simulate_readings_pdf(sf=0.005, seed=0)
    assert sorted(calls) == ["trondheim"] * 2 + ["vejle"] * 2
