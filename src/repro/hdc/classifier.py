"""Centroid classifier over hypervectors (training + inference of Fig. 1).

Training is single-pass: every encoded image is bundled into its class
accumulator.  Inference picks the class with the highest cosine similarity.

Binarization policy
-------------------
``binarize=True`` applies the paper's sign rule (popcount vs. TOB = H/2)
to class hypervectors and queries.  That rule assumes the bundled bits are
*balanced*; it holds for the baseline's bound vectors (P XOR L is
Rademacher) but **degenerates for uHD on dark images**: level-only
accumulators sit far below zero in every dimension, so sign-at-zero maps
every class to the constant all-(-1) vector and accuracy collapses to
chance.  The accuracy experiments therefore default to ``binarize=False``
(cosine on the integer centroids — the "subtractor" reading of the paper's
binarization and the usual software practice); the accuracy tables that
``python -m repro report`` assembles are measured that way.  The hardware energy model is unaffected: it charges
the full popcount + masking-logic datapath either way.

``retrain`` implements the perceptron-style refinement several prior HDC
works use ("w/ retrain" rows of Fig. 6(b)); the paper's headline results
are single-pass, so it is off by default everywhere.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..api.registry import get_backend
from .ops import binarize
from .similarity import classify, cosine_similarity

__all__ = ["CentroidClassifier"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Share of ``predictions`` equal to ``labels``, in ``[0, 1]``.

    The one scoring rule: every model's ``score`` applies it to its own
    ``predict``, so scoring never takes a second label path.
    """
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("labels must be one per encoded vector")
    if labels.size == 0:
        raise ValueError("cannot score an empty set")
    return float(np.mean(predictions == labels))


class CentroidClassifier:
    """Class-hypervector store with single-pass fit and cosine inference.

    The non-binarized path subtracts each vector's scalar mean before
    the cosine — i.e. Pearson correlation.  A level-only accumulator
    carries the image's overall brightness as a large shared component;
    centering removes it so similarity ranks by
    *pattern*, which matters on datasets whose per-image brightness varies
    (colour scenes).  For the baseline's bound vectors the mean is already
    ~0 and centering is a no-op, so the comparison stays fair.

    Under ``binarize=True`` and ``backend != "reference"`` inference runs
    on packed words (class HVs and queries XORed and popcounted, see
    :mod:`repro.fastpath.inference`): predictions match the reference
    cosine path wherever the ranking is well-defined (exact integer-dot
    ties are decided by rounding noise in the reference and by lowest
    class index here — see :meth:`predict`), similarity values equal up
    to one float ulp.
    """

    def __init__(
        self,
        num_classes: int,
        dim: int,
        binarize: bool = False,
        backend: str = "auto",
    ) -> None:
        if num_classes < 2 or dim < 1:
            raise ValueError("num_classes must be >= 2 and dim >= 1")
        self.num_classes = num_classes
        self.dim = dim
        self.binarize = binarize
        self._backend = get_backend(backend)
        self._accumulators = np.zeros((num_classes, dim), dtype=np.int64)
        self._fitted = False
        self._packed_classes: np.ndarray | None = None

    @property
    def backend(self) -> str:
        """Name of the backend-table entry this classifier runs on."""
        return self._backend.name

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, encoded: np.ndarray, labels: np.ndarray) -> "CentroidClassifier":
        """Single-pass bundling of encoded vectors into class accumulators."""
        encoded = np.asarray(encoded)
        labels = np.asarray(labels)
        if encoded.ndim != 2 or encoded.shape[1] != self.dim:
            raise ValueError(f"encoded must be (n, {self.dim})")
        if labels.shape != (encoded.shape[0],):
            raise ValueError("labels must be one per encoded vector")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        for cls in range(self.num_classes):
            mask = labels == cls
            if mask.any():
                self._accumulators[cls] += encoded[mask].sum(axis=0, dtype=np.int64)
        self._fitted = True
        self._packed_classes = None
        return self

    def retrain(
        self, encoded: np.ndarray, labels: np.ndarray, epochs: int = 1
    ) -> int:
        """Perceptron-style refinement; returns total corrections applied.

        For each misclassified vector the true class accumulator gains the
        vector and the predicted class loses it, as in AdaptHD-style
        retraining.
        """
        self._require_fitted()
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        encoded = np.asarray(encoded)
        labels = np.asarray(labels)
        corrections = 0
        for _ in range(epochs):
            predictions = self.predict(encoded)
            wrong = np.flatnonzero(predictions != labels)
            if wrong.size == 0:
                break
            for idx in wrong:
                self._accumulators[labels[idx]] += encoded[idx]
                self._accumulators[predictions[idx]] -= encoded[idx]
            corrections += int(wrong.size)
            self._packed_classes = None
        return corrections

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def class_hypervectors(self) -> np.ndarray:
        """Sign-binarized class hypervectors, shape ``(num_classes, dim)``."""
        self._require_fitted()
        return binarize(self._accumulators)

    @property
    def accumulators(self) -> np.ndarray:
        """Raw (non-binarized) class accumulators — read-only view."""
        view = self._accumulators.view()
        view.setflags(write=False)
        return view

    def _packed_class_words(self) -> np.ndarray:
        """Packed binarized class HVs, rebuilt lazily after any mutation."""
        from ..fastpath.inference import pack_accumulators

        self._require_fitted()
        if self._packed_classes is None:
            self._packed_classes = pack_accumulators(self._accumulators)
        return self._packed_classes

    def _use_packed(self) -> bool:
        return self._backend.use_packed_inference(self.binarize)

    def similarities(self, encoded: np.ndarray) -> np.ndarray:
        """Cosine similarity of queries to every class representative.

        Under ``binarize=True`` both sides are sign-binarized first;
        otherwise the mean-centred integer vectors are compared.
        The packed backend computes the binarized cosine as ``dot / D``
        (equal to the reference value up to one float ulp).
        """
        self._require_fitted()
        queries = np.atleast_2d(np.asarray(encoded))
        if self.binarize:
            if self._use_packed():
                from ..fastpath.inference import pack_accumulators, packed_cosine

                return packed_cosine(
                    pack_accumulators(queries), self._packed_class_words(), self.dim
                )
            return cosine_similarity(binarize(queries), self.class_hypervectors)
        queries = queries - queries.mean(axis=1, keepdims=True)
        references = (self._accumulators
                      - self._accumulators.mean(axis=1, keepdims=True))
        return cosine_similarity(queries, references)

    def predict(self, encoded: np.ndarray) -> np.ndarray:
        """Winner-take-all class labels for a batch of encoded vectors.

        Identical labels on every backend wherever the ranking is
        well-defined: the packed path ranks by the integer dot product, a
        monotone transform of the binarized cosine.  Where two classes sit
        at *exactly* the same integer dot the ranking has no answer — the
        reference argmax then follows float rounding noise in the cosines
        (which varies with BLAS blocking, i.e. with the batch shape), while
        the packed path deterministically picks the lowest class index.
        """
        if self._use_packed():
            from ..fastpath.inference import packed_predict

            class_words = self._packed_class_words()  # raises when unfitted
            queries = np.atleast_2d(np.asarray(encoded))
            return packed_predict(queries, class_words, self.dim)
        return classify(self.similarities(encoded))

    def score(self, encoded: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy in ``[0, 1]``."""
        return accuracy(self.predict(encoded), labels)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("classifier has not been fitted")

    # ------------------------------------------------------------------
    # Persistence (see repro.api.persistence for the file format)
    # ------------------------------------------------------------------
    def _save_payload(self) -> dict[str, Any]:
        self._require_fitted()
        return {
            "num_classes": self.num_classes,
            "dim": self.dim,
            "binarize": self.binarize,
            "backend": self.backend,
            "accumulators": self._accumulators,
        }

    @classmethod
    def _from_payload(cls, payload: dict[str, np.ndarray]) -> "CentroidClassifier":
        from ..api.persistence import ModelFormatError, saved_backend

        # older files carry a "center" flag; only centred inference remains
        if "center" in payload and not bool(payload["center"]):
            raise ModelFormatError(
                "payload field 'center' is False: only centred cosine "
                "inference is supported"
            )
        model = cls(
            int(payload["num_classes"]),
            int(payload["dim"]),
            binarize=bool(payload["binarize"]),
            backend=saved_backend(str(payload["backend"].item())),
        )
        model._restore_accumulators(payload["accumulators"])
        return model

    def _restore_accumulators(self, accumulators: np.ndarray) -> None:
        """Install trained state (the save/load path; no data re-encoding)."""
        accumulators = np.asarray(accumulators)
        if accumulators.shape != (self.num_classes, self.dim):
            from ..api.persistence import ModelFormatError

            raise ModelFormatError(
                f"accumulators have shape {accumulators.shape}, expected "
                f"({self.num_classes}, {self.dim})"
            )
        self._accumulators = accumulators.astype(np.int64, copy=True)
        self._packed_classes = None
        self._fitted = True

    def save(self, path: Any) -> None:
        """Persist the fitted classifier (versioned ``.npz``, bit-exact)."""
        from ..api.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path: Any) -> "CentroidClassifier":
        """Rebuild a fitted classifier saved by :meth:`save`."""
        from ..api.persistence import load_model

        return load_model(path, expected=cls)
