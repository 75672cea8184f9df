"""End-to-end uHD classifier (encoder + single-pass centroid training).

Mirrors :class:`repro.hdc.baseline.BaselineHDC` so the two models are
drop-in comparable, with the crucial difference the paper exists for:
training is **deterministic** — one pass, no iteration sweep, because the
Sobol codebook is fixed by its seed.

The execution backend is looked up once from ``config.backend`` in
the :mod:`repro.api` backend table: by default the bit-exact packed fast path
encodes, so swapping backends never changes a prediction.  The class
satisfies the :class:`repro.api.Estimator` protocol — fit / predict /
score / save / load — and because training is a single deterministic
pass, :meth:`save`/:meth:`load` round-trip the fitted model bit-exactly
(config + class accumulators; the Sobol codebook is rebuilt from its
seed, never re-learned).

:class:`repro.core.streaming.StreamingUHD` is the same model in its
online mode: a subclass whose ``fit`` folds each batch into the
accumulators instead of starting over.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any

import numpy as np

from ..api.registry import get_backend
from ..hdc.classifier import CentroidClassifier, accuracy
from ..utils.validation import as_image_batch
from .config import UHDConfig

__all__ = ["UHDClassifier"]


class UHDClassifier:
    """The uHD image classifier of Fig. 2/Fig. 5."""

    def __init__(
        self, num_pixels: int, num_classes: int, config: UHDConfig | None = None
    ) -> None:
        self.config = config if config is not None else UHDConfig()
        self.num_pixels = num_pixels
        self.num_classes = num_classes
        self.encoder = get_backend(self.config.backend).make_encoder(
            num_pixels, self.config
        )
        self._classifier: CentroidClassifier | None = None

    def _encode_images(self, images: np.ndarray) -> np.ndarray:
        """Encode through :func:`repro.utils.validation.as_image_batch`,
        the accepted-shape policy the server shares: a ``(pixels,)``
        vector or a square ``(h, h)`` image is a batch of 1.
        """
        return self.encoder.encode_batch(as_image_batch(images, self.num_pixels))

    def _new_classifier(self) -> CentroidClassifier:
        return CentroidClassifier(
            self.num_classes,
            self.config.dim,
            binarize=self.config.binarize,
            backend=self.config.backend,
        )

    @property
    def backend(self) -> str:
        """Name of the backend-table entry this model runs on."""
        return self.config.backend

    def fit(self, images: np.ndarray, labels: np.ndarray) -> "UHDClassifier":
        """Single-pass training (the paper's i = 1).

        A fit that raises (bad images or labels) leaves the model as it was.
        """
        encoded = self._encode_images(images)
        classifier = self._new_classifier()
        classifier.fit(encoded, np.atleast_1d(np.asarray(labels)))
        self._classifier = classifier
        return self

    def retrain(self, images: np.ndarray, labels: np.ndarray, epochs: int = 1) -> int:
        """Optional perceptron refinement (extension; off in the paper)."""
        if self._classifier is None:
            raise RuntimeError("model has not been fitted")
        return self._classifier.retrain(self._encode_images(images),
                                        np.asarray(labels), epochs=epochs)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Class labels via cosine similarity against class hypervectors.

        Packed binarized inference goes through the encoder's
        ``predict_packed`` (on the packed encoder, one fused kernel call
        per batch: pixels in, labels out); every other policy encodes and
        hands the accumulators to the classifier.
        """
        classifier = self.classifier
        images = as_image_batch(images, self.num_pixels)
        if classifier._use_packed():
            return self.encoder.predict_packed(
                images, classifier._packed_class_words()
            )
        return classifier.predict(self.encoder.encode_batch(images))

    def score(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of :meth:`predict` on a labelled batch."""
        return accuracy(self.predict(images), labels)

    @property
    def classifier(self) -> CentroidClassifier:
        """The underlying centroid classifier (fitted)."""
        if self._classifier is None:
            raise RuntimeError("model has not been fitted")
        return self._classifier

    def with_backend(self, backend: str) -> "UHDClassifier":
        """Clone onto another backend-table entry, trained state intact.

        Backends are bit-exact, so the clone predicts identically; this is
        how a serving layer re-homes a model trained elsewhere (e.g. load a
        reference-trained file, serve it packed) without refitting.  The
        clone has this model's type and every other attribute (a stream's
        ``samples_seen`` included).
        """
        clone = copy.copy(self)
        clone.config = replace(self.config, backend=backend)
        clone.encoder = get_backend(backend).make_encoder(
            self.num_pixels, clone.config
        )
        if self._classifier is not None:
            clone._classifier = clone._new_classifier()
            clone._classifier._restore_accumulators(self._classifier.accumulators)
        return clone

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
            "accumulators": self._classifier.accumulators,
        }

    @classmethod
    def _from_payload(cls, payload: dict[str, np.ndarray]) -> "UHDClassifier":
        from ..api.persistence import config_from_json

        config = config_from_json(str(payload["config_json"].item()), UHDConfig)
        model = cls(int(payload["num_pixels"]), int(payload["num_classes"]), config)
        model._classifier = model._new_classifier()
        model._classifier._restore_accumulators(payload["accumulators"])
        return model

    def save(self, path: Any) -> None:
        """Persist config + trained state; loading never re-encodes data."""
        from ..api.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path: Any) -> "UHDClassifier":
        """Rebuild a fitted model saved by :meth:`save`, bit-exactly."""
        from ..api.persistence import load_model

        return load_model(path, expected=cls)
