"""The public estimator contract every trainable model in repro satisfies.

``Estimator`` is a structural (duck-typed) protocol, not a base class:
:class:`repro.core.model.UHDClassifier` (with its online mode
:class:`repro.core.streaming.StreamingUHD`, a subclass),
:class:`repro.hdc.baseline.BaselineHDC` and
:class:`repro.hdc.classifier.CentroidClassifier` all satisfy it without
inheriting from it, and so can any third-party model.  Code written
against the protocol — evaluation, persistence — stays ignorant of
which concrete model (or which execution backend) is behind it.  The
serving layer is narrower: :class:`repro.serve.UHDServer` fronts
``UHDClassifier`` models only and refuses any other file.

The contract is deliberately tiny — uHD's single-iteration training means
a fitted model is fully described by its config plus one integer array of
class accumulators, so ``save``/``load`` (see
:mod:`repro.api.persistence`) round-trip bit-exactly and a server
can go from cold start to serving without ever seeing training data.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["Estimator"]


@runtime_checkable
class Estimator(Protocol):
    """fit / predict / score / save / load — the serving-layer contract.

    ``X`` is whatever raw input the concrete model encodes (images for
    the image classifiers, pre-encoded hypervectors for
    :class:`~repro.hdc.classifier.CentroidClassifier`); ``y`` is a 1-D
    integer label array aligned with ``X``.

    Example — code written against the protocol serves any model::

        from repro.api import Estimator, load_model

        def accuracy(model: Estimator, X, y) -> float:
            return model.score(X, y)

        accuracy(load_model("mnist-2048.npz"), test_images, test_labels)
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator":
        """Train on a labelled batch and return self."""
        ...

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Winner-take-all class labels for a batch."""
        ...

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy in ``[0, 1]`` on a labelled batch."""
        ...

    def save(self, path: Any) -> None:
        """Persist config + trained state (versioned ``.npz``, bit-exact)."""
        ...

    @classmethod
    def load(cls, path: Any) -> "Estimator":
        """Rebuild a fitted model from :meth:`save` output without retraining."""
        ...
