"""The baseline HDC image classifier the paper compares against.

End-to-end model of Fig. 1: pseudo-random position and level hypervectors
(fresh draws per *iteration*, the knob behind Table IV's ``i = 1..100``
sweep and Fig. 6(a)'s fluctuation plot), record encoding with XOR binding,
bundling, sign binarization, and cosine inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .classifier import CentroidClassifier, accuracy
from .encoding import RecordEncoder, quantize_levels
from .item_memory import LevelItemMemory, RandomItemMemory

__all__ = ["BaselineConfig", "BaselineHDC"]


@dataclass(frozen=True)
class BaselineConfig:
    """Hyper-parameters of the baseline HDC model.

    Attributes
    ----------
    dim:
        Hypervector dimension D (1K-10K in the paper).
    levels:
        Intensity quantization levels (2^n); 16 matches uHD's xi = 16 so
        accuracy comparisons are iso-quantization.
    level_scheme:
        Level item-memory construction: ``"threshold"`` (the paper's
        conventional random-sequence generation; default) or ``"flip"``.
    seed:
        Base seed; ``reseed`` derives per-iteration draws from it.
    binarize:
        Classifier policy — see :class:`repro.hdc.classifier.CentroidClassifier`.
    """

    dim: int = 1024
    levels: int = 16
    level_scheme: str = "threshold"
    seed: int = 0
    binarize: bool = False
    encode_chunk: int = field(default=16, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")


class BaselineHDC:
    """Position-times-level HDC classifier with re-drawable hypervectors."""

    #: the backend-table entry its classifier runs on; the baseline has no
    #: backend setting, so ``load_model`` cannot re-home it onto another
    backend = "auto"

    def __init__(self, num_pixels: int, num_classes: int, config: BaselineConfig) -> None:
        if num_pixels < 1:
            raise ValueError(f"num_pixels must be >= 1, got {num_pixels}")
        self.num_pixels = num_pixels
        self.num_classes = num_classes
        self.config = config
        self._classifier: CentroidClassifier | None = None
        self.reseed(config.seed)

    def reseed(self, seed: int) -> "BaselineHDC":
        """Draw a fresh set of position/level hypervectors (one "iteration").

        Invalidates any previous fit, since class hypervectors built from
        the old codebooks are meaningless under the new ones.
        """
        rng = np.random.default_rng(seed)
        positions = RandomItemMemory(self.num_pixels, self.config.dim, rng)
        levels = LevelItemMemory(
            self.config.levels, self.config.dim, rng, scheme=self.config.level_scheme
        )
        self.encoder = RecordEncoder(positions, levels)
        self.active_seed = seed  # the draw the current codebooks came from
        self._classifier = None
        return self

    # ------------------------------------------------------------------
    # Data plumbing
    # ------------------------------------------------------------------
    def _encode_images(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images)
        flat = images.reshape(images.shape[0], -1)
        if flat.shape[1] != self.num_pixels:
            raise ValueError(
                f"expected {self.num_pixels} pixels per image, got {flat.shape[1]}"
            )
        level_indices = quantize_levels(flat, self.config.levels)
        return self.encoder.encode_batch(level_indices, chunk=self.config.encode_chunk)

    # ------------------------------------------------------------------
    # Train / evaluate
    # ------------------------------------------------------------------
    def fit(self, images: np.ndarray, labels: np.ndarray) -> "BaselineHDC":
        """Single-pass training on a labelled image batch."""
        encoded = self._encode_images(images)
        classifier = CentroidClassifier(
            self.num_classes, self.config.dim, binarize=self.config.binarize
        )
        classifier.fit(encoded, np.asarray(labels))
        self._classifier = classifier  # a fit that raised keeps the old model
        return self

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Class labels for a batch of images."""
        if self._classifier is None:
            raise RuntimeError("model has not been fitted")
        return self._classifier.predict(self._encode_images(images))

    def score(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a labelled image batch."""
        return accuracy(self.predict(images), labels)

    @property
    def classifier(self) -> CentroidClassifier:
        """The underlying centroid classifier (fitted)."""
        if self._classifier is None:
            raise RuntimeError("model has not been fitted")
        return self._classifier

    # ------------------------------------------------------------------
    # Persistence (see repro.api.persistence for the file format)
    # ------------------------------------------------------------------
    def _save_payload(self) -> dict[str, Any]:
        from ..api.persistence import config_to_json

        if self._classifier is None:
            raise RuntimeError("cannot save an unfitted model")
        return {
            "config_json": config_to_json(self.config),
            "num_pixels": self.num_pixels,
            "num_classes": self.num_classes,
            # codebooks are a pure function of this draw's seed, so the
            # seed (not the item memories) is what gets persisted
            "active_seed": self.active_seed,
            "accumulators": self._classifier.accumulators,
        }

    @classmethod
    def _from_payload(cls, payload: dict[str, np.ndarray]) -> "BaselineHDC":
        from ..api.persistence import config_from_json

        config = config_from_json(str(payload["config_json"].item()), BaselineConfig)
        model = cls(int(payload["num_pixels"]), int(payload["num_classes"]), config)
        active_seed = int(payload["active_seed"])
        if active_seed != model.active_seed:  # __init__ already drew config.seed
            model.reseed(active_seed)
        model._classifier = CentroidClassifier(
            model.num_classes, config.dim, binarize=config.binarize
        )
        model._classifier._restore_accumulators(payload["accumulators"])
        return model

    def save(self, path: Any) -> None:
        """Persist config + the active draw's seed + trained accumulators."""
        from ..api.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path: Any) -> "BaselineHDC":
        """Rebuild a fitted baseline saved by :meth:`save`, bit-exactly."""
        from ..api.persistence import load_model

        return load_model(path, expected=cls)
