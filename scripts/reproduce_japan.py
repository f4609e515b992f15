#!/usr/bin/env python3
"""Refit the Japan links on the bundled dataset and print a summary table.

Runs the annual Phillips scatter, the endpoint-constrained inflation and
unemployment links, the break-year scan, and the lag scan, then writes the
scatter chart. Usage:

    python3 scripts/reproduce_japan.py [--out OUTDIR]
"""

import argparse
from pathlib import Path

from lfphillips import ingest, svg
from lfphillips.estimate import LinkSpec, Predictor, fit, scan_break, scan_lag

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "japan"
POST_BREAK = (1982, 2012)


def show(title, result):
    seg = result.segments[-1]
    slopes = ", ".join(f"{k}={v:+.4f}" for k, v in seg.slopes.items())
    print(f"{title:44s} intercept={seg.intercept:+.4f}  {slopes}  "
          f"R2={result.r2_annual:.3f}  cumR2={result.r2_cumulative:.4f}  "
          f"sigma={result.sigma:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="chart output directory")
    args = parser.parse_args()

    data = ingest.load_all(ingest.load_manifest(DATA / "manifest.json"))

    show("CPI inflation on unemployment (annual OLS)",
         fit(LinkSpec("cpi", (Predictor("unemployment"),), window=POST_BREAK), data))
    show("unemployment on CPI inflation (cumulative)",
         fit(LinkSpec("unemployment", (Predictor("cpi"),),
                      estimator="cumulative", window=POST_BREAK), data))
    show("CPI inflation on labor-force growth (cum.)",
         fit(LinkSpec("cpi", (Predictor("labor_force_growth"),),
                      estimator="cumulative", window=POST_BREAK), data))
    show("GDP deflator on labor-force growth (cum.)",
         fit(LinkSpec("dgdp", (Predictor("labor_force_growth"),),
                      estimator="cumulative", window=POST_BREAK), data))
    show("unemployment on growth, 1977 break",
         fit(LinkSpec("unemployment", (Predictor("labor_force_growth"),),
                      estimator="cumulative", break_year=1977,
                      shared=("intercept",)), data))

    _, best_break = scan_break(
        LinkSpec("cpi", (Predictor("unemployment"),), estimator="cumulative"),
        data, candidate_years=range(1975, 1995))
    print(f"break scan (CPI on unemployment, cumulative SSE): best year {best_break}")

    _, best_lag = scan_lag(
        LinkSpec("cpi", (Predictor("labor_force_growth"),),
                 estimator="cumulative", window=POST_BREAK),
        data, lag_range=range(-3, 4))
    print(f"lag scan (CPI on labor-force growth): best lag {best_lag}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chart = svg.scatter_chart(
        data["unemployment"].window(*POST_BREAK), data["cpi"].window(*POST_BREAK),
        style=svg.ChartStyle(title="CPI inflation vs unemployment, 1982-2012",
                             percent_axis=True),
    )
    target = out / "phillips_scatter.svg"
    ingest.write_atomic(target, chart)
    print(f"scatter chart written to {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
