"""Shared benchmark helpers.

Every benchmark regenerates one table/figure of the paper, prints it, and
writes the rendered text under ``benchmarks/results/``, where
``python -m repro report`` assembles them after a single run.  Accuracy benches honour
``REPRO_FULL=1`` for paper-leaning sample counts.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
