"""E7 — §1 cost/density claim: 250 × $2k low-cost units vs 1 × $500k
station at equal budget, city-field reconstruction error vs ground
truth. Run: spark-submit jobs/e7_density.py [sf].

The sweep reconstructs one simulated day (:data:`DAY`) of the synthetic
field and builds no world, so E7 does not depend on the scale factor: it
takes the ``[sf]`` argument every job takes and ignores it.
"""
from repro.core import density
from repro.runner import get_spark, print_table

#: The simulated day whose field E7 reconstructs.
DAY = 1


def run(spark, *, seed: int = 0):
    return density.sweep(spark, day=DAY, seed=seed)


def main():
    spark = get_spark("e7_density")
    print_table("E7 density vs accuracy (NO2 field reconstruction, Trondheim)",
                run(spark))


if __name__ == "__main__":
    main()
