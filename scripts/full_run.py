"""Full-profile experiment run (README, "Reproducing the paper's evaluation").

Runs every table/figure at the paper's full scale-factor axis (LDBC SF
0.1-30 mapped onto the generator's sizes) and writes the rendered outputs
to ``results/``. Takes ~10-20 minutes on a laptop.

Run:  python scripts/full_run.py
"""

from __future__ import annotations

import pathlib
import time

from repro.bench import experiments as exp

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def save(name: str, text: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.txt").write_text(text + "\n")
    print(f"[{time.strftime('%H:%M:%S')}] wrote results/{name}.txt", flush=True)


def main() -> None:
    start = time.time()
    save("table3", exp.table3_datasets(exp.FULL_SCALE_FACTORS, yago_scale=1.0).text)
    save("table6", exp.table6_paths().text)
    save("reversion", exp.reversion_census().text)
    save("fig15_16_17", exp.fig15_16_17(scale_factor=3).text)

    fig12 = exp.fig12_yago(engine="ra", yago_scale=1.0,
                           timeout_seconds=60.0, repetitions=2)
    save("fig12_ra", fig12.text)
    fig12_sql = exp.fig12_yago(engine="sqlite", yago_scale=1.0,
                               timeout_seconds=60.0, repetitions=2)
    save("fig12_sqlite", fig12_sql.text)

    table5 = exp.table5_feasibility(
        exp.FULL_SCALE_FACTORS, engine="ra", timeout_seconds=2.5, repetitions=1
    )
    save("table5", table5.text)

    fig13 = exp.fig13_ldbc(
        exp.FULL_SCALE_FACTORS, engine="sqlite",
        timeout_seconds=2.5, repetitions=2,
    )
    save("fig13", fig13.text)
    pooled = [run for runs in fig13.data["runs_by_sf"].values() for run in runs]
    save("table7_8", exp.table7_table8(pooled).text)

    fig14 = exp.fig14_backends(
        scale_factors=(0.1, 0.3, 1, 3), timeout_seconds=2.5, repetitions=2
    )
    save("fig14", fig14.text)

    save("ablation", exp.ablation_pipeline(yago_scale=0.6,
                                           timeout_seconds=30.0).text)
    print(f"done in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main()
