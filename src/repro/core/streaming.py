"""Streaming (online) uHD training — the "dynamic" in the paper's title.

uHD's centroid training is a pure accumulation, so it supports
single-sample online updates for free: no epochs, no revisiting old data,
no stored dataset.  That is precisely the edge-training scenario the
paper motivates (training on-device is harder than inference; the
baseline needs iterative re-generation, uHD does not).

:class:`StreamingUHD` exposes ``partial_fit`` plus the standard
*prequential* (test-then-train) evaluation protocol used for data-stream
learners.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..api.registry import get_backend
from ..hdc.classifier import CentroidClassifier
from ..utils.validation import as_image_batch
from .config import UHDConfig

__all__ = ["StreamingUHD"]


class StreamingUHD:
    """Online uHD classifier: encode-and-accumulate, one batch at a time.

    The encoder follows ``config.backend`` (looked up in the
    :mod:`repro.api` backend table); the packed fast path is a
    particularly good fit here because its gather table, built on the
    first batch, amortizes over the lifetime of the stream.

    Satisfies the :class:`repro.api.Estimator` protocol: :meth:`fit` folds
    a batch in exactly like :meth:`partial_fit` (for an online learner the
    two are the same accumulation), and :meth:`save`/:meth:`load`
    round-trip the accumulated model bit-exactly — a server can persist a
    half-trained stream and resume it elsewhere.
    """

    def __init__(
        self, num_pixels: int, num_classes: int, config: UHDConfig | None = None
    ) -> None:
        self.config = config if config is not None else UHDConfig()
        self.num_pixels = num_pixels
        self.num_classes = num_classes
        self.encoder = get_backend(self.config.backend).make_encoder(
            num_pixels, self.config
        )
        self.classifier = CentroidClassifier(
            num_classes,
            self.config.dim,
            binarize=self.config.binarize,
            backend=self.config.backend,
        )
        self.samples_seen = 0

    def _as_batch(self, images: np.ndarray) -> np.ndarray:
        """One accepted-shapes policy for *every* entry point.

        ``partial_fit``, ``predict`` and ``score`` all normalize through
        :func:`repro.utils.validation.as_image_batch` (the same helper
        the serving layer uses), so an input accepted at train time can
        never misbehave at predict time: a ``(pixels,)`` vector or an
        unflattened square ``(h, h)`` image becomes a batch of 1 in all
        three, identically.
        """
        return as_image_batch(images, self.num_pixels)

    def partial_fit(self, images: np.ndarray, labels: np.ndarray) -> "StreamingUHD":
        """Fold one batch into the class accumulators (O(batch) work)."""
        images = self._as_batch(images)
        labels = np.atleast_1d(np.asarray(labels))
        if images.shape[0] != labels.size:
            raise ValueError(
                f"got {images.shape[0]} image(s) but {labels.size} label(s)"
            )
        encoded = self.encoder.encode_batch(images)
        self.classifier.fit(encoded, labels)
        self.samples_seen += int(labels.size)
        return self

    def fit(self, images: np.ndarray, labels: np.ndarray) -> "StreamingUHD":
        """Estimator-protocol alias of :meth:`partial_fit` (pure accumulation)."""
        return self.partial_fit(images, labels)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Labels under the model accumulated so far."""
        if self.samples_seen == 0:
            raise RuntimeError("no samples seen yet")
        return self.classifier.predict(
            self.encoder.encode_batch(self._as_batch(images))
        )

    def score(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy under the model accumulated so far."""
        if self.samples_seen == 0:
            raise RuntimeError("no samples seen yet")
        return self.classifier.score(
            self.encoder.encode_batch(self._as_batch(images)), np.asarray(labels)
        )

    def evaluate_prequential(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 32,
        warmup: int = 1,
    ) -> list[float]:
        """Test-then-train over a stream; returns per-batch accuracies.

        Each batch is first *predicted* with the model built from all
        earlier batches, then folded in.  ``warmup`` batches are trained
        on without being scored (the model needs at least one example of
        two classes before prediction is defined).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        images = np.asarray(images)
        labels = np.asarray(labels)
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels disagree in count")
        accuracies: list[float] = []
        for index, start in enumerate(range(0, images.shape[0], batch_size)):
            stop = min(start + batch_size, images.shape[0])
            batch_images = images[start:stop]
            batch_labels = labels[start:stop]
            if index >= warmup and self.samples_seen > 0:
                predictions = self.predict(batch_images)
                accuracies.append(float(np.mean(predictions == batch_labels)))
            self.partial_fit(batch_images, batch_labels)
        return accuracies

    # ------------------------------------------------------------------
    # Persistence (see repro.api.persistence for the file format)
    # ------------------------------------------------------------------
    def _save_payload(self) -> dict[str, Any]:
        from ..api.persistence import config_to_json

        if self.samples_seen == 0:
            raise RuntimeError("cannot save a stream that has seen no samples")
        return {
            "config_json": config_to_json(self.config),
            "num_pixels": self.num_pixels,
            "num_classes": self.num_classes,
            "samples_seen": self.samples_seen,
            "accumulators": self.classifier.accumulators,
        }

    @classmethod
    def _from_payload(cls, payload: dict[str, np.ndarray]) -> "StreamingUHD":
        from ..api.persistence import config_from_json

        config = config_from_json(str(payload["config_json"].item()), UHDConfig)
        model = cls(int(payload["num_pixels"]), int(payload["num_classes"]), config)
        model.classifier._restore_accumulators(payload["accumulators"])
        model.samples_seen = int(payload["samples_seen"])
        return model

    def save(self, path: Any) -> None:
        """Persist the accumulated stream state (resumable elsewhere)."""
        from ..api.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path: Any) -> "StreamingUHD":
        """Resume a stream saved by :meth:`save`; accumulation continues."""
        from ..api.persistence import load_model

        return load_model(path, expected=cls)
