"""Assemble the accuracy report from published benchmark results.

Every benchmark writes its rendered table under ``benchmarks/results/``;
this module stitches those files into one markdown document, which
``python -m repro report`` (``repro-uhd report``) prints after a bench
run.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["build_experiments_markdown", "RESULT_SECTIONS"]

# Ordered (result-file stem, section heading) pairs.
RESULT_SECTIONS: tuple[tuple[str, str], ...] = (
    ("table1_embedded", "Table I — embedded platform performance"),
    ("table2_energy_area", "Table II — energy and area-delay"),
    ("table3_sota", "Table III — energy efficiency vs SOTA"),
    ("table4_mnist", "Table IV — MNIST accuracy"),
    ("table5_datasets", "Table V — accuracy across datasets"),
    ("fig6_accuracy", "Fig. 6 — accuracy monitoring"),
    ("checkpoints", "Design checkpoints ➊➋➌ — block energies"),
    ("ablation_quantization", "Ablation — quantization depth"),
    ("ablation_lds_family", "Ablation — LD family / digital shift"),
    ("ablation_binding", "Ablation — binding vs position-free"),
)


def build_experiments_markdown(results_dir: str | Path) -> str:
    """Markdown report of every published result table.

    Missing sections are listed as "not yet generated" rather than
    silently dropped, so a partial bench run is visible.
    """
    results_dir = Path(results_dir)
    lines = [
        "# Measured results",
        "",
        "Generated from `benchmarks/results/` — run",
        "`pytest benchmarks/ --benchmark-only` to refresh"
        " (`REPRO_FULL=1` for paper-leaning workloads).",
        "",
    ]
    for stem, heading in RESULT_SECTIONS:
        lines.append(f"## {heading}")
        lines.append("")
        path = results_dir / f"{stem}.txt"
        if path.is_file():
            lines.append("```text")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            lines.append("*not yet generated*")
        lines.append("")
    return "\n".join(lines)
