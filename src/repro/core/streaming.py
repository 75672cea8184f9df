"""Streaming (online) uHD training — the "dynamic" in the paper's title.

uHD's centroid training is a pure accumulation, so it supports
single-sample online updates for free: no epochs, no revisiting old data,
no stored dataset.  That is precisely the edge-training scenario the
paper motivates (training on-device is harder than inference; the
baseline needs iterative re-generation, uHD does not).

Because the codebook is fixed by its seed, online training and
single-pass ``fit`` are the same bundling, so :class:`StreamingUHD` is
:class:`~repro.core.model.UHDClassifier` in its online mode: it adds
``partial_fit``, the ``samples_seen`` count and the standard
*prequential* (test-then-train) evaluation protocol used for
data-stream learners, and inherits everything else — encoding, predict,
score, backend re-homing and persistence.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .model import UHDClassifier

__all__ = ["StreamingUHD"]


class StreamingUHD(UHDClassifier):
    """Online uHD classifier: encode-and-accumulate, one batch at a time.

    The packed backend is a particularly good fit here because its
    gather table, built on the first batch, amortizes over the lifetime
    of the stream.  :meth:`fit` folds a batch in exactly like
    :meth:`partial_fit` (for an online learner the two are the same
    accumulation), and :meth:`save`/:meth:`load` round-trip the
    accumulated model bit-exactly — a server can persist a half-trained
    stream and resume it elsewhere.
    """

    #: images folded in so far; saved with the model
    samples_seen = 0

    def partial_fit(self, images: np.ndarray, labels: np.ndarray) -> "StreamingUHD":
        """Fold one batch into the class accumulators (O(batch) work)."""
        labels = np.atleast_1d(np.asarray(labels))
        encoded = self._encode_images(images)
        # CentroidClassifier.fit validates before it adds, so a batch that
        # raises leaves the stream as it was, first batch included
        classifier = self._classifier or self._new_classifier()
        classifier.fit(encoded, labels)
        self._classifier = classifier
        self.samples_seen += int(labels.size)
        return self

    fit = partial_fit

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
    # Persistence: the UHDClassifier payload plus ``samples_seen``
    # ------------------------------------------------------------------
    def _save_payload(self) -> dict[str, Any]:
        return {**super()._save_payload(), "samples_seen": self.samples_seen}

    @classmethod
    def _from_payload(cls, payload: dict[str, np.ndarray]) -> "StreamingUHD":
        model = super()._from_payload(payload)
        model.samples_seen = int(payload["samples_seen"])
        return model
