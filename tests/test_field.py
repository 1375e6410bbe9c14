"""Ground-truth field physics: the properties the analyses depend on."""
import numpy as np
import pandas as pd
import pytest

from repro.iot import deployment as dep
from repro.iot import field

TS_DAY = pd.date_range("2017-06-01", periods=288, freq="5min").values
TS_WINTER = pd.date_range("2017-01-02", periods=288, freq="5min").values


class TestSmoothNoise:
    def test_deterministic(self):
        t = np.arange(0, 100, 0.5)
        np.testing.assert_array_equal(
            field.smooth_noise(t, 1), field.smooth_noise(t, 1)
        )

    def test_seed_sensitive(self):
        t = np.arange(0, 100, 0.5)
        assert not np.allclose(field.smooth_noise(t, 1), field.smooth_noise(t, 2))

    def test_scale(self):
        t = np.arange(0, 5000, 0.25)
        s = field.smooth_noise(t, 3, scale=2.0).std()
        assert 1.0 < s < 3.5

    def test_smooth(self):
        t = np.arange(0, 100, 1 / 12)  # 5-min steps
        x = field.smooth_noise(t, 4)
        assert np.abs(np.diff(x)).max() < 0.2


class TestTrafficIntensity:
    def test_range(self):
        tr = field.traffic_intensity(TS_DAY)
        assert (tr >= 0).all() and (tr <= 1).all()

    def test_weekday_double_peak(self):
        # 2017-06-01 is a Thursday.
        tr = field.traffic_intensity(TS_DAY)
        hours = np.arange(288) / 12.0
        morning = tr[(hours >= 7) & (hours <= 9)].mean()
        evening = tr[(hours >= 15.5) & (hours <= 17.5)].mean()
        night = tr[(hours >= 1) & (hours <= 4)].mean()
        assert morning > 2 * night
        assert evening > 2 * night

    def test_weekend_flatter(self):
        sat = pd.date_range("2017-06-03", periods=288, freq="5min").values
        tr_sat = field.traffic_intensity(sat)
        tr_thu = field.traffic_intensity(TS_DAY)
        assert tr_sat.max() < tr_thu.max()

    def test_weekend_detection(self):
        assert field._is_weekend(np.array(["2017-06-03"], dtype="datetime64[s]"))[0]
        assert field._is_weekend(np.array(["2017-06-04"], dtype="datetime64[s]"))[0]
        assert not field._is_weekend(np.array(["2017-06-05"], dtype="datetime64[s]"))[0]


class TestWeather:
    @pytest.mark.parametrize("city", ["trondheim", "vejle"])
    def test_columns_and_ranges(self, city):
        w = field.weather_pdf(city, TS_DAY)
        assert {"temperature", "pressure", "humidity", "wind", "cloud"} <= set(w.columns)
        assert w["humidity"].between(25, 100).all()
        assert w["cloud"].between(0, 1).all()
        assert (w["wind"] >= 0.3).all()
        assert w["pressure"].between(950, 1080).all()

    def test_summer_warmer_than_winter(self):
        summer = field.weather_pdf("trondheim", TS_DAY)["temperature"].mean()
        winter = field.weather_pdf("trondheim", TS_WINTER)["temperature"].mean()
        assert summer > winter + 5

    def test_vejle_warmer_than_trondheim(self):
        tr = field.weather_pdf("trondheim", TS_DAY)["temperature"].mean()
        ve = field.weather_pdf("vejle", TS_DAY)["temperature"].mean()
        assert ve > tr


class TestSolar:
    def test_night_zero(self):
        night = pd.date_range("2017-06-01 00:00", periods=12, freq="5min").values
        assert field.solar_elevation(63.43, night).max() < 0.05

    def test_midday_positive(self):
        noon = pd.date_range("2017-06-01 12:00", periods=2, freq="5min").values
        assert field.solar_elevation(63.43, noon).min() > 0.5

    def test_winter_days_short_in_trondheim(self):
        irr_w = field.solar_irradiance("trondheim", TS_WINTER)
        irr_s = field.solar_irradiance("trondheim", TS_DAY)
        assert (irr_w > 0.02).sum() < 0.5 * (irr_s > 0.02).sum()

    def test_irradiance_bounded(self):
        irr = field.solar_irradiance("vejle", TS_DAY)
        assert (irr >= 0).all() and (irr <= 1).all()


class TestTruth:
    @pytest.mark.parametrize("metric", field.POLLUTANTS)
    def test_pollutants_positive(self, metric):
        v = field.truth("trondheim", 0.0, 0.0, TS_DAY)[metric]
        assert (v > 0).all()

    def test_co2_floor(self):
        v = field.truth("vejle", 2000.0, 2000.0, TS_DAY)["co2"]
        assert (v >= 380).all()

    def test_deterministic(self):
        a = field.truth("trondheim", 100.0, -50.0, TS_DAY, seed=0)["no2"]
        b = field.truth("trondheim", 100.0, -50.0, TS_DAY, seed=0)["no2"]
        np.testing.assert_array_equal(a, b)

    def test_no2_higher_near_road(self):
        links = dep.road_links_pdf()
        lk = links[links["city"] == "trondheim"].iloc[0]
        near = field.truth("trondheim", lk["x_m"], lk["y_m"], TS_DAY)["no2"].mean()
        far = field.truth("trondheim", 2400.0, -2400.0, TS_DAY)["no2"].mean()
        assert near > 1.5 * far

    def test_co2_nocturnal_accumulation(self):
        # Boundary-layer physics: pre-dawn CO2 exceeds mid-afternoon.
        v = field.truth("trondheim", 0.0, 0.0, TS_DAY)["co2"]
        hours = np.arange(288) / 12.0
        predawn = v[(hours >= 3) & (hours <= 6)].mean()
        afternoon = v[(hours >= 14) & (hours <= 17)].mean()
        assert predawn > afternoon

    def test_co2_traffic_weakly_coupled(self):
        # The Fig 5 design property: at a road-side site, hourly CO2 and
        # traffic intensity correlate only weakly...
        week = pd.date_range("2017-06-05", periods=288 * 7, freq="5min").values
        links = dep.road_links_pdf()
        lk = links[links["link_id"] == "T-elgeseter"].iloc[0]
        co2 = field.truth("trondheim", lk["x_m"], lk["y_m"], week)["co2"]
        tr = field.traffic_intensity(week)
        r_co2 = np.corrcoef(co2, tr)[0, 1]
        assert abs(r_co2) < 0.35

    def test_no2_traffic_strongly_coupled(self):
        # ...while NO2 (the positive control) correlates strongly.
        week = pd.date_range("2017-06-05", periods=288 * 7, freq="5min").values
        links = dep.road_links_pdf()
        lk = links[links["link_id"] == "T-elgeseter"].iloc[0]
        no2 = field.truth("trondheim", lk["x_m"], lk["y_m"], week)["no2"]
        tr = field.traffic_intensity(week)
        assert np.corrcoef(no2, tr)[0, 1] > 0.5

    def test_downtown_enhancement(self):
        down = field.truth("trondheim", 0.0, 0.0, TS_DAY)["co2"].mean()
        edge = field.truth("trondheim", 2400.0, 2400.0, TS_DAY)["co2"].mean()
        assert down > edge

    def test_pm25_below_pm10(self):
        t = field.truth("vejle", 0.0, 0.0, TS_DAY)
        assert t["pm25"].mean() < t["pm10"].mean()

    def test_weather_metrics_match_weather_pdf(self):
        w = field.weather_pdf("vejle", TS_DAY)
        t = field.truth("vejle", 0.0, 0.0, TS_DAY)["pressure"]
        np.testing.assert_allclose(t, w["pressure"].to_numpy())

    def test_broadcasting_positions(self):
        xs = np.array([0.0, 1000.0, -1000.0])
        v = field.truth("trondheim", xs, xs, TS_DAY[0])["no2"]
        assert v.shape == (3,)

    @pytest.mark.parametrize("metric", field.ALL_METRICS)
    def test_broadcast_contract(self, metric):
        # Every call returns exactly ALL_METRICS. (k, 1) positions × (T,)
        # times is a (k, T) writable array whose row j is node j's own
        # series; scalar × vector and vector × scalar calls keep the
        # broadcast shape too.
        xy = np.array([[0.0, 0.0], [1000.0, -500.0], [-2000.0, 1500.0]])
        grid = TS_DAY[:48]
        calls = [
            field.truth("trondheim", xy[:, :1], xy[:, 1:], grid),
            field.truth("trondheim", xy[:, 0], xy[:, 1], grid[0]),
            *(field.truth("trondheim", x, y, grid) for x, y in xy),
        ]
        for t in calls:
            assert tuple(t) == field.ALL_METRICS
        kt, per_time, *series = (t[metric] for t in calls)
        for v, shape in ((kt, (3, 48)), (per_time, (3,))):
            assert v.shape == shape and v.flags.writeable
        for j, one in enumerate(series):
            assert one.shape == (48,) and one.flags.writeable
            np.testing.assert_array_equal(kt[j], one)
            assert per_time[j] == one[0]
