"""Argument validation helpers with uniform error messages."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["as_image_batch", "require_positive", "require_in_range"]


def as_image_batch(images: Any, num_pixels: int | None) -> "np.ndarray":
    """Normalize user-supplied images to a ``(batch, num_pixels)`` array.

    The single accepted-shape policy of every image-facing entry point
    (``UHDServer.submit``, ``UHDClassifier.fit/retrain/predict/score``,
    which ``StreamingUHD.partial_fit`` reaches through the encode step
    it inherits), so train and predict time can never disagree about
    what a "single image" is:

    * ``(pixels,)`` — one flattened image → batch of 1;
    * ``(h, h)`` with ``h * h == num_pixels`` — one unflattened square
      image → batch of 1 (the only 2-D shape reinterpreted: a same-sized
      non-square array, e.g. a ``(2, 392)`` batch of half-width rows,
      raises the pixel-count error instead of silently becoming one
      image);
    * ``(n, pixels)`` — a flat batch, passed through;
    * ``(n, h, w, ...)`` — a batch of unflattened images, flattened.

    Raises ``ValueError`` when the per-image pixel count disagrees with
    ``num_pixels`` (skipped when ``num_pixels`` is None).
    """
    import numpy as np

    arr = np.asarray(images)
    if arr.ndim == 1:
        arr = arr[None, :]  # single sample
    elif (
        arr.ndim == 2
        and num_pixels is not None
        and arr.shape[1] != num_pixels
        and arr.size == num_pixels
        and arr.shape[0] == arr.shape[1]
    ):
        arr = arr.reshape(1, -1)
    if arr.ndim > 2:
        # explicit trailing size: reshape(0, -1) is ambiguous on numpy
        arr = arr.reshape(arr.shape[0], int(np.prod(arr.shape[1:])))
    if arr.ndim != 2:
        raise ValueError(
            f"images must be (n, pixels), (n, h, w) or a single (pixels,) "
            f"vector, got shape {np.asarray(images).shape}"
        )
    if num_pixels is not None and arr.shape[1] != num_pixels:
        raise ValueError(
            f"images have {arr.shape[1]} pixels, model expects {num_pixels}"
        )
    return arr


def require_positive(value: float, name: str) -> None:
    """Raise ValueError unless ``value > 0``."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def require_in_range(value: float, lo: float, hi: float, name: str) -> None:
    """Raise ValueError unless ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
