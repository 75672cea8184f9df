"""uHD: Unary Processing for Lightweight and Dynamic Hyperdimensional Computing.

Full reproduction of Aygun, Shoushtari Moghadam & Najafi (DATE 2024).

Quickstart::

    from repro import UHDClassifier, UHDConfig, load_dataset

    data = load_dataset("mnist", n_train=1000, n_test=500).grayscale()
    model = UHDClassifier(data.num_pixels, data.num_classes,
                          UHDConfig(dim=1024))
    model.fit(data.train_images, data.train_labels)
    print(model.score(data.test_images, data.test_labels))

Subpackages: :mod:`repro.api` (the stable public surface: Estimator
protocol, the backend table, versioned model persistence),
:mod:`repro.serve` (serving: stdlib HTTP and a framed binary socket
fast lane in front of a priority-lane scheduler drained by executor
threads that share one warm model, readiness probing — see
``docs/serving.md``),
:mod:`repro.core` (the uHD contribution), :mod:`repro.hdc`
(baseline HDC substrate), :mod:`repro.fastpath` (the bit-packed
backend: packed hypervectors, LUT encoding, popcount inference —
bit-exact with the reference and selected via ``UHDConfig.backend``
from the backend table), :mod:`repro.unary` (unary bit-stream
computing),
:mod:`repro.lds` (low-discrepancy sequences), :mod:`repro.hardware`
(gate-level netlists + 45 nm energy/area model), :mod:`repro.embedded`
(ARM-class cost model for Table I), :mod:`repro.datasets`,
:mod:`repro.eval` (per-table experiment runners + throughput benchmarks).
"""

from . import api
from .api import (
    Backend,
    Estimator,
    ModelFormatError,
    get_backend,
    list_backends,
    load_model,
    save_model,
)
from .core import (
    SobolLevelEncoder,
    StreamingUHD,
    UHDClassifier,
    UHDConfig,
    UnaryDomainEncoder,
    masking_binarize,
)
from .datasets import ImageDataset, load_dataset
from .fastpath import PackedLevelEncoder
from .hdc import BaselineConfig, BaselineHDC, CentroidClassifier

__version__ = "1.7.0"

__all__ = [
    "Backend",
    "BaselineConfig",
    "BaselineHDC",
    "CentroidClassifier",
    "Estimator",
    "ImageDataset",
    "ModelFormatError",
    "PackedLevelEncoder",
    "SobolLevelEncoder",
    "StreamingUHD",
    "UHDClassifier",
    "UHDConfig",
    "UnaryDomainEncoder",
    "api",
    "get_backend",
    "list_backends",
    "load_dataset",
    "load_model",
    "masking_binarize",
    "save_model",
    "__version__",
]
