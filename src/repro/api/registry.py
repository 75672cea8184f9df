"""The backend table: every name ``UHDConfig.backend`` accepts.

The three backends are bit-exact renderings of one datapath and differ
in only two decisions: which **encoder** implements ``encode_batch`` for
a workload, and whether binarized **inference** runs on packed words.

* ``reference`` — always the original elementwise NumPy paths.
* ``packed`` — force packed *encoding*, raising where it cannot apply
  (non-quantized, too many pixels) so a forced selection never silently
  degrades; inference runs packed only under ``binarize=True`` (the
  centered-cosine default has no packed form — by design, not fallback).
* ``auto`` (default) — packed wherever it is bit-exact and supported,
  reference everywhere else.

Threads are not a backend decision: every backend encodes on its
caller's thread, so parallelism belongs to the caller (in serving,
``workers``).  This module imports nothing heavy, so
``repro.core.config`` can validate against :data:`BACKENDS` without
pulling in the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig
    from ..core.encoder import SobolLevelEncoder

__all__ = ["BACKENDS", "Backend", "get_backend", "list_backends"]

#: every backend name, the default (``auto``) first
BACKENDS = ("auto", "packed", "reference")


@dataclass(frozen=True)
class Backend:
    """One entry of :data:`BACKENDS`: encoder choice + inference policy.

    Values are immutable and shared, so every model and thread that
    selects a name gets the same object from :func:`get_backend`.

    Example::

        from repro.api import get_backend

        backend = get_backend("auto")
        backend.encoder_kind(config, 784)         # 'packed' when quantized
        encoder = backend.make_encoder(784, config)
        backend.use_packed_inference(binarize=True)   # True
    """

    #: ``UHDConfig(backend=name)`` selects this entry
    name: str

    def encoder_kind(self, config: "UHDConfig", num_pixels: int) -> str:
        """``"packed"`` or ``"reference"`` — which encode path applies.

        Raises ``ValueError`` when ``packed`` is forced onto a workload
        it cannot serve (so a forced selection never silently degrades).
        """
        if self.name == "reference":
            return "reference"
        from ..fastpath.encoder import PackedLevelEncoder

        if self.name == "auto":
            fits = config.quantized and num_pixels <= PackedLevelEncoder.MAX_PIXELS
            return "packed" if fits else "reference"
        if not config.quantized:
            raise ValueError(
                f"backend={self.name!r} requires quantized=True (the packed "
                "encoder exploits the xi-level codes)"
            )
        if num_pixels > PackedLevelEncoder.MAX_PIXELS:
            raise ValueError(
                f"backend={self.name!r} supports up to "
                f"{PackedLevelEncoder.MAX_PIXELS} pixels, got {num_pixels}"
            )
        return "packed"

    def make_encoder(
        self, num_pixels: int, config: "UHDConfig"
    ) -> "SobolLevelEncoder":
        """The encoder ``encode_batch`` runs on (per :meth:`encoder_kind`)."""
        if self.encoder_kind(config, num_pixels) == "packed":
            from ..fastpath.encoder import PackedLevelEncoder

            return PackedLevelEncoder(num_pixels, config)
        from ..core.encoder import SobolLevelEncoder

        return SobolLevelEncoder(num_pixels, config)

    def use_packed_inference(self, binarize: bool) -> bool:
        """Whether classifier inference runs on packed words."""
        return binarize and self.name != "reference"


_TABLE = {name: Backend(name) for name in BACKENDS}


def list_backends() -> tuple[str, ...]:
    """Every backend name (:data:`BACKENDS`).

    Example::

        >>> from repro.api import list_backends
        >>> list_backends()
        ('auto', 'packed', 'reference')
    """
    return BACKENDS


def get_backend(name: str) -> Backend:
    """The table entry named ``name``.

    Raises ``ValueError`` listing the choices for any other name.

    Example — build the encoder a config selects::

        from repro.api import get_backend

        encoder = get_backend(config.backend).make_encoder(num_pixels, config)
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: choose one of {BACKENDS}")
    return _TABLE[name]
