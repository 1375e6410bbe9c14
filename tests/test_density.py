"""Density/cost trade-off (E7): dense low-cost beats one station."""
import numpy as np
import pandas as pd
import pytest

from repro.core import density
from repro.external import citygml
from repro.iot import field
from repro.iot.sensor import ERROR_MODEL, stable_seed
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def table(spark):
    # Small sweep for tests; the full FLEET_SIZES sweep runs in the bench.
    return density.sweep(
        spark, fleet_sizes=(1, 25, 250), day=1, seed=0
    )


class TestObservations:
    def test_reference_grade_single_unit(self):
        obs = density.fleet_observations_pdf(
            "trondheim", 1, density.eval_times(), reference_grade=True
        )
        assert obs["unit_id"].nunique() == 1
        assert len(obs) == 24

    def test_fleet_size_respected(self):
        obs = density.fleet_observations_pdf("trondheim", 50, density.eval_times())
        assert obs["unit_id"].nunique() == 50

    def test_fleet_covers_extent(self):
        obs = density.fleet_observations_pdf("trondheim", 100, density.eval_times())
        pos = obs.drop_duplicates("unit_id")
        # stratified scatter: all four quadrants populated
        assert (pos["x_m"] > 0).any() and (pos["x_m"] < 0).any()
        assert (pos["y_m"] > 0).any() and (pos["y_m"] < 0).any()
        assert pos["x_m"].abs().max() <= 2500

    def test_deterministic(self):
        a = density.fleet_observations_pdf("vejle", 10, density.eval_times(), seed=1)
        b = density.fleet_observations_pdf("vejle", 10, density.eval_times(), seed=1)
        assert a.equals(b)


class TestVectorisedGenerators:
    """The E7 frames equal a per-hour loop: one ``field.truth`` call and
    one noise draw per hour, in hour order."""

    TIMES = density.eval_times(hours=3)

    def test_fleet_matches_per_hour_loop(self):
        n, (gain_s, bias_s, noise_s) = 5, ERROR_MODEL["no2"]
        g = np.random.default_rng(stable_seed("fleet", "trondheim", n, False, 0))
        k = 3  # ceil(sqrt(5))
        cells = g.permutation(k * k)[:n]
        xs = -2500 + (cells % k + g.random(n)) * (5000 / k)
        ys = -2500 + (cells // k + g.random(n)) * (5000 / k)
        gains, biases = 1.0 + g.normal(0, gain_s, n), g.normal(0, bias_s, n)
        want = pd.concat(
            [
                pd.DataFrame({
                    "scenario": "lowcost_5", "unit_id": np.arange(n), "x_m": xs, "y_m": ys,
                    "ts": t,
                    "obs": gains * field.truth("trondheim", xs, ys,
                                               np.full(n, np.datetime64(t, "s")))["no2"]
                    + biases + g.normal(0, noise_s, n),
                })
                for t in self.TIMES
            ],
            ignore_index=True,
        )
        got = density.fleet_observations_pdf("trondheim", n, self.TIMES)
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_truth_grid_matches_per_hour_loop(self):
        grid = citygml.grid_pdf()
        grid = grid[grid["city"] == "trondheim"]
        want = pd.concat(
            [
                pd.DataFrame({
                    "cell_id": grid["cell_id"].to_numpy(),
                    "x_c": grid["x_c"].to_numpy(), "y_c": grid["y_c"].to_numpy(), "ts": t,
                    "truth": field.truth("trondheim", grid["x_c"].to_numpy(),
                                         grid["y_c"].to_numpy(),
                                         np.full(len(grid), np.datetime64(t, "s")))["no2"],
                })
                for t in self.TIMES
            ],
            ignore_index=True,
        )
        got = density.truth_grid_pdf("trondheim", self.TIMES)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


class TestReconstruction:
    def test_idw_interpolates_exactly_at_unit(self, spark):
        # One noiseless unit: every cell gets its value; the cell at the
        # unit's location has ~zero error at that instant only if truth
        # is flat — so instead check the estimate equals the obs.
        times = density.eval_times(hours=2)
        tg = density.truth_grid_pdf("vejle", times)
        obs = density.fleet_observations_pdf(
            "vejle", 1, times, reference_grade=True
        )
        rec = density.idw_reconstruction(spark, obs, tg).toPandas()
        merged = rec.merge(obs, on="ts")
        np.testing.assert_allclose(merged["estimate"], merged["obs"], rtol=1e-9)

    def test_score_fields(self, spark):
        times = density.eval_times(hours=3)
        tg = density.truth_grid_pdf("trondheim", times)
        obs = density.fleet_observations_pdf("trondheim", 10, times)
        s = density.score(density.idw_reconstruction(spark, obs, tg))["lowcost_10"]
        assert set(s) == {"rmse", "bias", "spatial_rmse"}
        assert s["rmse"] > 0


#: IDW over every unit of a scenario at each instant, as DuckDB SQL.
IDW_SQL = f"""
    SELECT scenario, cell_id, ts, truth, sum(w * obs) / sum(w) AS estimate
    FROM (
      SELECT o.scenario, c.cell_id, c.ts, c.truth, o.obs,
             1.0 / ((sqrt((c.x_c - o.x_m) ^ 2 + (c.y_c - o.y_m) ^ 2)
                     + {density.IDW_EPS_M}) ^ 2) AS w
      FROM tg c JOIN obs o USING (ts)
    )
    GROUP BY ALL
"""


class TestScoringOracle:
    """E7 on a small sweep (2 hours; station, co-sited unit, fleets of 1
    and 5) against DuckDB, every scenario in one plan."""

    @pytest.fixture(scope="class")
    def small(self, spark):
        times = density.eval_times(hours=2)
        tg = density.truth_grid_pdf("trondheim", times)
        obs = pd.concat(
            [
                density.fleet_observations_pdf("trondheim", n, times, **kw)
                for n, kw in [(1, {"reference_grade": True}), (1, {"at_station": True}),
                              (1, {}), (5, {})]
            ],
            ignore_index=True,
        )
        return obs, tg, density.idw_reconstruction(spark, obs, tg).cache()

    def test_four_scenarios(self, small):
        obs, _, _ = small
        assert list(obs["scenario"].unique()) == [
            "official_station", "lowcost_1_at_station", "lowcost_1", "lowcost_5"
        ]

    def test_estimate_oracle(self, small):
        obs, tg, rec = small
        assert_equivalent(
            rec.select("scenario", "cell_id", "ts", "truth", "estimate"),
            IDW_SQL, obs=obs, tg=tg,
        )

    def test_score_oracle(self, spark, small):
        obs, tg, rec = small
        got = spark.createDataFrame(
            pd.DataFrame([{"scenario": k, **v} for k, v in density.score(rec).items()])
        )
        assert_equivalent(
            got,
            f"""
            WITH e AS (SELECT *, estimate - truth AS error FROM ({IDW_SQL})),
            o AS (
              SELECT scenario, sqrt(avg(error ^ 2)) AS rmse, avg(error) AS bias
              FROM e GROUP BY scenario
            ),
            s AS (
              SELECT scenario, sqrt(avg(cell_err ^ 2)) AS spatial_rmse
              FROM (SELECT scenario, avg(estimate) - avg(truth) AS cell_err
                    FROM e GROUP BY scenario, cell_id)
              GROUP BY scenario
            )
            SELECT * FROM o JOIN s USING (scenario)
            """,
            obs=obs, tg=tg,
        )


class TestPaperClaim:
    def test_density_compensates_accuracy(self, table):
        """§1: '250 additional sensors for the price of one station';
        'high number ... can compensate for their relatively lower
        accuracy'. At equal budget the dense fleet reconstructs the city
        field far better than the single official station."""
        t = table.set_index("scenario")
        assert (
            t.loc["lowcost_250", "rmse"] < 0.5 * t.loc["official_station", "rmse"]
        )
        assert t.loc["lowcost_250", "cost_usd"] == t.loc["official_station", "cost_usd"]

    def test_station_wins_at_its_own_site_instrument_wise(self, table):
        """Equal siting: reference instrument beats a low-cost unit."""
        t = table.set_index("scenario")
        assert t.loc["official_station", "rmse"] <= t.loc["lowcost_1_at_station", "rmse"]

    def test_rmse_improves_with_density(self, table):
        t = table.set_index("scenario")
        assert t.loc["lowcost_250", "rmse"] < t.loc["lowcost_1", "rmse"]
        assert t.loc["lowcost_250", "spatial_rmse"] < t.loc["lowcost_1", "spatial_rmse"]

    def test_costs(self, table):
        t = table.set_index("scenario")
        assert t.loc["lowcost_1", "cost_usd"] == 2000
        assert t.loc["official_station", "cost_usd"] == 500000
