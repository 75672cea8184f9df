"""Configuration of the uHD system (paper Section III)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ..api.registry import BACKENDS

__all__ = ["UHDConfig"]

_LDS_FAMILIES = ("sobol", "halton")


@dataclass(frozen=True)
class UHDConfig:
    """Hyper-parameters of the uHD encoder/classifier.

    Attributes
    ----------
    dim:
        Hypervector dimension D (the paper sweeps 1K / 2K / 8K).
    levels:
        Quantization levels xi for intensities and Sobol scalars
        (Fig. 3(a); xi = 16 -> M = 4-bit storage, N = 16-bit unary streams).
        The paper uses powers of two; other values are accepted (and warn)
        — see :attr:`quantization_bits` for how M rounds up then.
    quantized:
        When true (paper default) comparisons happen between M-bit codes —
        the arithmetic twin of the unary-domain datapath.  When false the
        encoder compares full-precision scalars (an ablation; the paper
        notes quantization does not affect accuracy).
    lds:
        Low-discrepancy family: ``"sobol"`` (the paper) or ``"halton"``
        (ablation).
    seed:
        Seed of the Sobol direction integers.  uHD is deterministic given
        this seed — the "single-iteration training" property.
    digital_shift:
        Optional per-dimension digital shift of the LD sequences (extra
        decorrelation; off in the paper).
    binarize:
        Classifier policy — see
        :class:`repro.hdc.classifier.CentroidClassifier` for why the
        accuracy path defaults to non-binarized centroids.
    backend:
        Execution backend, one of the closed table
        :data:`repro.api.registry.BACKENDS`: ``"auto"`` (default; packed
        fast path wherever it is bit-exact and supported), ``"packed"``
        (force packed *encoding*, raising where it cannot apply;
        inference additionally needs ``binarize=True``) or
        ``"reference"`` (always the original elementwise NumPy path).
    """

    dim: int = 1024
    levels: int = 16
    quantized: bool = True
    lds: str = "sobol"
    seed: int = 2024
    digital_shift: bool = False
    binarize: bool = False
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.lds not in _LDS_FAMILIES:
            raise ValueError(f"lds must be one of {_LDS_FAMILIES}, got {self.lds!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.levels & (self.levels - 1):
            warnings.warn(
                f"levels={self.levels} is not a power of two: the stored "
                f"scalar width rounds up to M={self.quantization_bits} bits "
                f"(covering {1 << self.quantization_bits} codes, of which "
                f"only {self.levels} occur), while the unary stream length "
                f"stays N={self.stream_length}; accuracy is unaffected but "
                "the Fig. 3(a) memory model assumes M = log2(levels) exactly",
                UserWarning,
                stacklevel=2,
            )

    @property
    def quantization_bits(self) -> int:
        """M, the stored scalar width of Fig. 3(a): ``ceil(log2(levels))``.

        Equal to ``log2(levels)`` for the paper's power-of-two ``xi``;
        for other ``levels`` values M **rounds up** to the next integer
        bit width (e.g. ``levels=20 -> M=5``), so ``2**M`` can exceed the
        number of codes actually produced.
        """
        return int(self.levels - 1).bit_length()

    @property
    def stream_length(self) -> int:
        """N, the unary bit-stream length — exactly ``levels`` (= xi).

        Unlike :attr:`quantization_bits` this does **not** round to a
        power of two: one unary slot exists per quantization level.
        """
        return self.levels
