"""E7 bench: the equal-budget density sweep (station vs 250 units)."""
from repro.core import density


def test_bench_e7_sweep(benchmark, spark_utc):
    def job():
        return density.sweep(spark_utc, day=1, seed=0)

    table = benchmark.pedantic(job, rounds=1, iterations=1, warmup_rounds=0)
    t = table.set_index("scenario")
    # The paper's claim must hold at benchmark scale too.
    assert t.loc["lowcost_250", "rmse"] < t.loc["official_station", "rmse"]


def test_bench_e7_single_idw(benchmark, spark_utc):
    times = density.eval_times()
    tg = density.truth_grid_pdf("trondheim", times)
    obs = density.fleet_observations_pdf("trondheim", 250, times)

    def job():
        return density.score(density.idw_reconstruction(spark_utc, obs, tg))

    s = benchmark.pedantic(job, rounds=2, iterations=1, warmup_rounds=1)
    assert s["lowcost_250"]["rmse"] > 0
