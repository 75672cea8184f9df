"""Reproduction runners: one function per table/figure of the paper.

Each function returns structured rows (lists of dataclasses) that the
benchmarks print and ``python -m repro report`` assembles.  Paper values are attached
wherever the paper states them, so every output is a paper-vs-measured
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..embedded import (
    ArmCoreModel,
    BASELINE_CODE_BYTES,
    UHD_CODE_BYTES,
    baseline_image_ops,
    baseline_memory,
    uhd_image_ops,
    uhd_memory,
)
from ..hardware.area import area_um2, rom_area_um2
from ..hardware.circuits import (
    build_comparator_binarizer,
    build_lfsr_hv_generator,
    build_masking_binarizer,
    build_unary_comparator,
)
from ..hardware.timing import critical_path_ps
from . import energy
from .accuracy import (
    baseline_iteration_accuracies,
    prepare_dataset,
    run_scale,
    uhd_accuracy,
)
from .sota import PAPER_TABLE_III_THIS_WORK, PRIOR_ART_MNIST, SOTA_ENERGY_EFFICIENCY

__all__ = [
    "Table1Row",
    "table1_embedded",
    "Table2Row",
    "table2_energy_area",
    "Table3Row",
    "table3_sota",
    "Table4Row",
    "table4_mnist_accuracy",
    "Table5Row",
    "table5_datasets",
    "fig6a_iteration_series",
    "fig6c_uhd_series",
    "CheckpointResult",
    "checkpoint1_generation",
    "checkpoint2_comparator",
    "checkpoint3_binarize",
]

_MNIST_PIXELS = 784
_DEFAULT_DIMS = (1024, 2048, 8192)


# ----------------------------------------------------------------------
# Table I — embedded platform performance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    design: str
    dim: int
    runtime_s: float
    dynamic_memory_kb: float
    code_memory_kb: float
    paper_runtime_s: float | None
    paper_memory_kb: float | None


_PAPER_TABLE1 = {
    ("baseline", 1024): (0.701, 8496.0),
    ("uhd", 1024): (0.016, 816.0),
    ("baseline", 8192): (5.938, 52401.0),
    ("uhd", 8192): (0.058, 2220.0),
}


def table1_embedded(dims: tuple[int, ...] = (1024, 8192)) -> list[Table1Row]:
    """Runtime / memory of both designs on the ARM-class core model."""
    core = ArmCoreModel()
    baseline_code_kb = sum(BASELINE_CODE_BYTES.values()) / 1024.0
    uhd_code_kb = sum(UHD_CODE_BYTES.values()) / 1024.0
    rows = []
    for dim in dims:
        for design in ("baseline", "uhd"):
            if design == "baseline":
                ops = baseline_image_ops(_MNIST_PIXELS, dim)
                memory = baseline_memory(_MNIST_PIXELS, dim)
                code_kb = baseline_code_kb
            else:
                ops = uhd_image_ops(_MNIST_PIXELS, dim)
                memory = uhd_memory(_MNIST_PIXELS, dim)
                code_kb = uhd_code_kb
            paper = _PAPER_TABLE1.get((design, dim), (None, None))
            rows.append(
                Table1Row(
                    design=design,
                    dim=dim,
                    runtime_s=core.runtime_seconds(ops),
                    dynamic_memory_kb=memory.total_kb,
                    code_memory_kb=code_kb,
                    paper_runtime_s=paper[0],
                    paper_memory_kb=paper[1],
                )
            )
    return rows


# ----------------------------------------------------------------------
# Table II — energy and area-delay of hypervector generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table2Row:
    design: str
    dim: int
    energy_per_hv_pj: float
    energy_per_image_pj: float
    area_delay_m2s: float
    paper_energy_per_hv_pj: float | None
    paper_area_delay_m2s: float | None


_PAPER_TABLE2 = {
    ("uhd", 1024): (0.79, 40.60e-12),
    ("uhd", 2048): (1.58, 81.20e-12),
    ("uhd", 8192): (6.32, 324.80e-12),
    ("baseline", 1024): (171.42, 11.79e-9),
    ("baseline", 2048): (415.41, 25.55e-9),
    ("baseline", 8192): (4023.82, 230.33e-9),
}


def _uhd_datapath_area_um2(levels: int = 16) -> float:
    comparator = area_um2(build_unary_comparator(levels))
    binarizer = area_um2(build_masking_binarizer(_MNIST_PIXELS))
    rom = rom_area_um2(levels * levels)
    return comparator + binarizer + rom


def _baseline_datapath_area_um2(dim: int) -> float:
    compare_bits = max(int(np.ceil(np.log2(dim))), 4)
    generator = area_um2(build_lfsr_hv_generator(width=16, compare_bits=compare_bits))
    binarizer = area_um2(build_comparator_binarizer(_MNIST_PIXELS))
    return 2 * generator + binarizer  # P and L generator lanes


def _datapath_delay_s(netlist_cp_ps: float, cycles: int) -> float:
    return netlist_cp_ps * 1e-12 * cycles


def table2_energy_area(
    dims: tuple[int, ...] = _DEFAULT_DIMS, num_pixels: int = _MNIST_PIXELS
) -> list[Table2Row]:
    """Energy per HV / per image and area-delay for both designs."""
    uhd_cp = max(
        critical_path_ps(build_unary_comparator(16)),
        critical_path_ps(build_masking_binarizer(num_pixels)),
    )
    rows = []
    for dim in dims:
        compare_bits = max(int(np.ceil(np.log2(dim))), 4)
        base_cp = max(
            critical_path_ps(build_lfsr_hv_generator(width=16,
                                                     compare_bits=compare_bits)),
            critical_path_ps(build_comparator_binarizer(num_pixels)),
        )
        for design in ("uhd", "baseline"):
            if design == "uhd":
                hv_fj = energy.uhd_hv_energy_fj(dim)
                image_fj = energy.uhd_image_energy_fj(dim, num_pixels)
                area = _uhd_datapath_area_um2()
                delay = _datapath_delay_s(uhd_cp, dim)
            else:
                hv_fj = energy.baseline_hv_energy_fj(dim)
                image_fj = energy.baseline_image_energy_fj(dim, num_pixels)
                area = _baseline_datapath_area_um2(dim)
                delay = _datapath_delay_s(base_cp, dim)
            paper = _PAPER_TABLE2.get((design, dim), (None, None))
            rows.append(
                Table2Row(
                    design=design,
                    dim=dim,
                    energy_per_hv_pj=hv_fj / 1000.0,
                    energy_per_image_pj=image_fj / 1000.0,
                    area_delay_m2s=area * 1e-12 * delay,
                    paper_energy_per_hv_pj=paper[0],
                    paper_area_delay_m2s=paper[1],
                )
            )
    return rows


# ----------------------------------------------------------------------
# Table III — energy efficiency vs SOTA
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table3Row:
    framework: str
    platform: str
    energy_efficiency: float
    is_this_work: bool


def table3_sota(dim: int = 1024) -> list[Table3Row]:
    """SOTA ranking with this reproduction's own efficiency row computed.

    Our ratio follows the paper's definition: whole-pipeline energy of the
    baseline over uHD on the embedded platform model (memory access +
    generation + binding + bundling all fold into the instruction trace).
    """
    core = ArmCoreModel()
    ours = core.energy_joules(baseline_image_ops(_MNIST_PIXELS, dim)) / core.energy_joules(
        uhd_image_ops(_MNIST_PIXELS, dim)
    )
    rows = [
        Table3Row(fw.name, fw.platform, fw.energy_efficiency, False)
        for fw in SOTA_ENERGY_EFFICIENCY
    ]
    rows.append(Table3Row("This work (measured)", "ARM Microprocessor", ours, True))
    rows.append(
        Table3Row("This work (paper)", "ARM Microprocessor",
                  PAPER_TABLE_III_THIS_WORK, True)
    )
    return sorted(rows, key=lambda r: r.energy_efficiency, reverse=True)


# ----------------------------------------------------------------------
# Table IV — MNIST accuracy: baseline iteration sweep vs single-pass uHD
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table4Row:
    dim: int
    baseline_by_checkpoint: dict[int, float]
    uhd: float
    paper_baseline_i1: float | None
    paper_uhd: float | None


_PAPER_TABLE4 = {
    1024: (82.93, 84.44),
    2048: (86.24, 87.04),
    8192: (88.30, 88.41),
}
_TABLE4_CHECKPOINTS = (1, 5, 20, 50, 75, 100)


def table4_mnist_accuracy(
    dims: tuple[int, ...] = _DEFAULT_DIMS, seed: int = 0, backend: str = "auto"
) -> list[Table4Row]:
    """Baseline average accuracy at iteration checkpoints vs uHD (i = 1)."""
    scale = run_scale()
    data = prepare_dataset("mnist", scale, seed=seed)
    checkpoints = [c for c in _TABLE4_CHECKPOINTS if c <= scale.max_iterations]
    rows = []
    for dim in dims:
        series = baseline_iteration_accuracies(data, dim, max(checkpoints))
        by_checkpoint = {
            c: float(np.mean(series[:c]) * 100.0) for c in checkpoints
        }
        uhd = uhd_accuracy(data, dim, backend=backend) * 100.0
        paper = _PAPER_TABLE4.get(dim, (None, None))
        rows.append(
            Table4Row(
                dim=dim,
                baseline_by_checkpoint=by_checkpoint,
                uhd=uhd,
                paper_baseline_i1=paper[0],
                paper_uhd=paper[1],
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table V — accuracy across the five additional datasets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table5Row:
    dataset: str
    dim: int
    uhd: float
    baseline: float
    paper_uhd: float | None
    paper_baseline: float | None


_PAPER_TABLE5 = {
    ("cifar10", 1024): (39.29, 38.21),
    ("cifar10", 2048): (40.28, 40.26),
    ("cifar10", 8192): (41.97, 41.71),
    ("blood", 1024): (53.05, 48.52),
    ("blood", 2048): (55.86, 51.20),
    ("blood", 8192): (57.88, 51.82),
    ("breast", 1024): (68.59, 68.47),
    ("breast", 2048): (69.23, 69.11),
    ("breast", 8192): (71.15, 70.93),
    ("fashion", 1024): (68.60, 54.19),
    ("fashion", 2048): (70.06, 69.97),
    ("fashion", 8192): (71.37, 70.87),
    ("svhn", 1024): (60.29, 60.06),
    ("svhn", 2048): (61.73, 61.24),
    ("svhn", 8192): (62.87, 62.82),
}
TABLE5_DATASETS = ("cifar10", "blood", "breast", "fashion", "svhn")


def table5_datasets(
    dims: tuple[int, ...] = _DEFAULT_DIMS,
    datasets: tuple[str, ...] = TABLE5_DATASETS,
    seed: int = 0,
    backend: str = "auto",
) -> list[Table5Row]:
    """uHD vs baseline accuracy on the five non-MNIST datasets."""
    from .accuracy import baseline_accuracy

    scale = run_scale()
    rows = []
    for name in datasets:
        data = prepare_dataset(name, scale, seed=seed)
        for dim in dims:
            uhd = uhd_accuracy(data, dim, backend=backend) * 100.0
            base = baseline_accuracy(data, dim, seed=1) * 100.0
            paper = _PAPER_TABLE5.get((name, dim), (None, None))
            rows.append(
                Table5Row(
                    dataset=name,
                    dim=dim,
                    uhd=uhd,
                    baseline=base,
                    paper_uhd=paper[0],
                    paper_baseline=paper[1],
                )
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 6 — accuracy monitoring
# ----------------------------------------------------------------------
def fig6a_iteration_series(dim: int = 1024, seed: int = 0) -> list[float]:
    """Baseline accuracy per random draw (the fluctuation plot), percent."""
    scale = run_scale()
    data = prepare_dataset("mnist", scale, seed=seed)
    series = baseline_iteration_accuracies(data, dim, scale.max_iterations)
    return [a * 100.0 for a in series]


def fig6c_uhd_series(
    dims: tuple[int, ...] = _DEFAULT_DIMS, seed: int = 0, backend: str = "auto"
) -> dict[int, float]:
    """uHD single-pass accuracy per dimension, percent."""
    scale = run_scale()
    data = prepare_dataset("mnist", scale, seed=seed)
    return {dim: uhd_accuracy(data, dim, backend=backend) * 100.0 for dim in dims}


def fig6b_prior_art() -> tuple:
    """The quoted prior-art points of Fig. 6(b)."""
    return PRIOR_ART_MNIST


# ----------------------------------------------------------------------
# Design checkpoints ➊ ➋ ➌
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointResult:
    name: str
    uhd_fj: float
    baseline_fj: float
    paper_uhd_fj: float
    paper_baseline_fj: float

    @property
    def measured_ratio(self) -> float:
        return self.baseline_fj / self.uhd_fj

    @property
    def paper_ratio(self) -> float:
        return self.paper_baseline_fj / self.paper_uhd_fj


def checkpoint1_generation(levels: int = 16) -> CheckpointResult:
    """➊ energy per generated stream bit: UST fetch vs counter+comparator."""
    m = (levels - 1).bit_length()
    return CheckpointResult(
        name="checkpoint1_stream_generation_per_bit",
        uhd_fj=energy.ust_fetch_energy_fj(levels) / levels,
        baseline_fj=energy.counter_generator_energy_per_bit_fj(m),
        paper_uhd_fj=0.77,          # 0.77 fJ
        paper_baseline_fj=167.0,    # 0.167 pJ
    )


def checkpoint2_comparator(dim: int = 1024, levels: int = 16) -> CheckpointResult:
    """➋ energy per hypervector-bit generation: unary vs conventional."""
    compare_bits = max(int(np.ceil(np.log2(dim))), 4)
    uhd = energy.ust_fetch_energy_fj(levels) + energy.unary_compare_energy_fj(levels)
    baseline = energy.lfsr_generate_energy_fj(compare_bits)
    return CheckpointResult(
        name="checkpoint2_hv_bit_generation",
        uhd_fj=uhd,
        baseline_fj=baseline,
        paper_uhd_fj=240.0,         # 0.24 pJ
        paper_baseline_fj=2490.0,   # 2.49 pJ
    )


def checkpoint3_binarize(num_pixels: int = _MNIST_PIXELS) -> CheckpointResult:
    """➌ accumulate+binarize energy per feature: masking vs comparator."""
    return CheckpointResult(
        name="checkpoint3_accumulate_binarize_per_feature",
        uhd_fj=energy.binarizer_energy_per_feature_fj(num_pixels, "masking"),
        baseline_fj=energy.binarizer_energy_per_feature_fj(num_pixels, "comparator"),
        paper_uhd_fj=34700.0,       # 34.7 pJ
        paper_baseline_fj=68700.0,  # 68.7 pJ
    )
