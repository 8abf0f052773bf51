"""Quickstart — the full DataLens pipeline on a preloaded dataset.

Mirrors the demo walkthrough of the paper: ingest the dirty NASA airfoil
table, profile it, run several detection tools (consolidated into one
deduplicated set), repair with ML imputation, inspect quality metrics,
and persist a DataSheet plus a new Delta version. Last, the repaired
table is ingested again from a SQL database, as §2 allows.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

from repro import DataLens
from repro.ingestion import make_dirty


def main() -> None:
    # A corrupted copy of the NASA airfoil self-noise dataset with a known
    # ground-truth error mask (what an upload of a real dirty CSV gives you).
    bundle = make_dirty("nasa", seed=7)

    workspace = tempfile.mkdtemp(prefix="datalens-quickstart-")
    lens = DataLens(workspace, seed=0)
    session = lens.ingest_frame("nasa", bundle.dirty)
    print(f"workspace: {workspace}")
    print(f"ingested {session.name}: {session.frame.num_rows} rows x "
          f"{session.frame.num_columns} columns "
          f"(delta version {session.delta.latest_version()})")

    # --- Data Profile tab -------------------------------------------------
    report = session.profile()
    overview = report.overview
    print(f"\nprofile: {overview['missing_cells']} missing cells "
          f"({overview['missing_fraction']:.1%}), "
          f"{overview['duplicate_rows']} duplicate rows, "
          f"{len(report.alerts)} quality alerts")
    for alert in report.alerts[:5]:
        print(f"  alert: {alert.message}")

    # --- Error detection (multiple tools, consolidated) --------------------
    cells = session.run_detection(["iqr", "sd", "mv_detector", "fahes"])
    print(f"\ndetection: {len(cells)} suspicious cells after deduplication")
    for tool, result in session.detection_results.items():
        print(f"  {tool:12s} {len(result.cells):5d} cells "
              f"in {result.runtime_seconds:.3f}s")

    # --- Error repair -------------------------------------------------------
    before = session.quality_metrics()
    repaired = session.run_repair("ml_imputer")
    after = session.quality_metrics(repaired)
    print(f"\nrepair: {len(session.repair_result.repairs)} cells repaired "
          f"(new delta version {session.version_after_repair})")
    print("quality before -> after:")
    for key in ("completeness", "validity", "overall"):
        print(f"  {key:13s} {before[key]:.3f} -> {after[key]:.3f}")

    # --- Reproducibility ----------------------------------------------------
    sheet_path = session.save_datasheet()
    print(f"\ndatasheet: {sheet_path}")
    print(f"delta history: {[c.operation for c in session.delta.history()]}")
    print(f"tracked runs: {len(lens.tracking.search_runs('Detection'))} "
          f"detection, {len(lens.tracking.search_runs('Repair'))} repair")

    # --- Database ingestion (§2) --------------------------------------------
    # A database table is ingested like an uploaded file.
    database = Path(workspace) / "airfoil.sqlite"
    columns = ", ".join(f'"{name}"' for name in repaired.column_names)
    slots = ", ".join("?" for _ in repaired.column_names)
    with sqlite3.connect(database) as connection:
        connection.execute(f"CREATE TABLE airfoil ({columns})")
        connection.executemany(
            f"INSERT INTO airfoil VALUES ({slots})",
            (tuple(row.values()) for row in repaired.iter_rows()),
        )
    from_sql = lens.ingest_sql(database, "airfoil")
    print(f"\nSQL ingest of table airfoil: {from_sql.frame.num_rows} rows, "
          f"equal to the repaired table: {from_sql.frame == repaired}")

    # How close did cleaning get to the truth?
    from repro.ml import detection_scores

    scores = detection_scores(cells, bundle.mask)
    print(f"\nagainst ground truth: precision={scores['precision']:.2f} "
          f"recall={scores['recall']:.2f} f1={scores['f1']:.2f}")


if __name__ == "__main__":
    main()
