"""Golden digests of the Sobol codebook (ARCHITECTURE contract 4).

uHD never stores a hypervector: every process, ``load_model`` included,
regenerates the codebook from the config seed.  A saved model is only
correct if that regeneration is a *fixed* function of the seed, and a
save/load round trip cannot show a change to it (both sides would move
together).  The first ten sha256 digests were recorded at commit
5349c83, with the per-bit scalar direction draws and the bit-loop point
generator; the rest (the paper's other dimensions and levels, the 32x32
datasets' pixel count, seed 7 as perfbench uses it, the digital-shift
constants) were recorded at commit 356bc5c, the last generator with the
Gray, recurrence and ``max_bits`` options.  Any later generator must
reproduce them all exactly.

Each case hashes dtype, shape and little-endian bytes, so the same
digest must hold on every supported NumPy version.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import UHDConfig
from repro.core.encoder import SobolLevelEncoder
from repro.fastpath import PackedLevelEncoder
from repro.lds import SobolEngine, sobol_sequences


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    h = hashlib.sha256()
    h.update(f"{little.dtype.str}{array.shape}".encode())
    h.update(little.tobytes())
    return h.hexdigest()


def _directions(engine: SobolEngine) -> np.ndarray:
    return engine._directions


def _codes(pixels: int = 784, **config) -> np.ndarray:
    return SobolLevelEncoder(pixels, UHDConfig(**config)).quantized_codes


CASES = {
    # row d depends only on (seed, d): every H <= MAX_PIXELS is a prefix
    "directions_max_pixels": lambda: _directions(
        SobolEngine(PackedLevelEncoder.MAX_PIXELS, seed=2024)
    ),
    "sequences_784x1024_f64": lambda: sobol_sequences(784, 1024),
    "sequences_784x1024_f32": lambda: sobol_sequences(784, 1024, dtype=np.float32),
    "codes_levels16": lambda: _codes(levels=16),
    "codes_levels256": lambda: _codes(levels=256),
    "sequences_seed0": lambda: sobol_sequences(784, 1024, seed=0),
    "sequences_seed1": lambda: sobol_sequences(784, 1024, seed=1),
    "sequences_seed99": lambda: sobol_sequences(784, 1024, seed=99),
    "sequences_digital_shift": lambda: sobol_sequences(
        784, 1024, digital_shift=True
    ),
    # points 1000..2499: the doubling's middle bits, not only its prefix
    "integers_mid_stream_natural": lambda: SobolEngine(784).integers(2500)[1000:],
    # the paper's D sweep (1K / 2K / 8K) and its other power-of-two levels
    "codes_dim2048": lambda: _codes(dim=2048),
    "codes_dim8192": lambda: _codes(dim=8192),
    "codes_levels2": lambda: _codes(levels=2),
    "codes_levels4": lambda: _codes(levels=4),
    "codes_levels8": lambda: _codes(levels=8),
    "codes_levels32": lambda: _codes(levels=32),
    "codes_levels64": lambda: _codes(levels=64),
    "codes_levels128": lambda: _codes(levels=128),
    # 32x32 grayscale (CIFAR-10, SVHN), seed and shift options of UHDConfig
    "codes_pixels1024": lambda: _codes(1024),
    "codes_seed7": lambda: _codes(seed=7),
    "codes_digital_shift": lambda: _codes(digital_shift=True),
    # perfbench's throughput stream
    "random_784_seed7_1024": lambda: SobolEngine(784, seed=7).random(1024),
    "directions_seed0": lambda: _directions(SobolEngine(784, seed=0)),
    "directions_seed7": lambda: _directions(SobolEngine(784, seed=7)),
    "shift_seed2024": lambda: SobolEngine(784, digital_shift=True)._shift,
    "shift_seed7": lambda: SobolEngine(784, seed=7, digital_shift=True)._shift,
}

GOLDEN = {
    "codes_digital_shift": (
        "6c547157a3545a3d071b3eede09cf3e4e0656fd857cf46b57bb3ab978a9c6dd5"
    ),
    "codes_dim2048": (
        "06957dbebd92510ce66251abce9d99c9d47d49b9b3d0e73de984b2fbad172eaf"
    ),
    "codes_dim8192": (
        "13ec2dda7aba18cd2b376da9888db78ae13d77dd6223af3c1c0a723cf1b384d5"
    ),
    "codes_levels128": (
        "c48059f2bb2c18e87398210cc08dcfb616c0bb5a93832b46431e50c44e1dd8cc"
    ),
    "codes_levels16": (
        "c34bf178346c56240d77deb417df855a4ec09d17fa8500532a7213ac02db3c7d"
    ),
    "codes_levels2": (
        "0b0f89540e0204756752b5eb57d1b5a5bdc91a1d1edace11571a973cc7ec8a12"
    ),
    "codes_levels256": (
        "b960212b2e65093e8c89d3236b702981344ee63c4871df0323dec9f7bedc911d"
    ),
    "codes_levels32": (
        "46cdb8f4441d10e371566898f7eda3d17fa7c58764fe087a7087bb850f525870"
    ),
    "codes_levels4": (
        "f6a0206c29ca24fec8ef832c17a502e7b09fb6da12ce7a3a74cbe3273b4e22b9"
    ),
    "codes_levels64": (
        "dc61ad80d8eb4cfefd4b0c0438416d9d463fa1cf283a939ce779ec75fbf0bbcf"
    ),
    "codes_levels8": (
        "e3648b5eb03d17e4ed521a750edb887b4a20f272ee9a3b69fc207f0204b6675b"
    ),
    "codes_pixels1024": (
        "7ddffbecdc1c9633ca4ddee4469a16ff9e365ca45ba2614186da09196bb6403c"
    ),
    "codes_seed7": (
        "2c03a276d82a8e72681cce1841a81ae78aa9ddb518f79af46625fc6d979acbbc"
    ),
    "directions_max_pixels": (
        "5acf176c4a1fba1713359a7191e46f312d652935f218d2b8d5df37bb7c8c2325"
    ),
    "directions_seed0": (
        "56c76c54b209a29b17377a44917b3ef7e40cc5f2b236f8cf961a7634b9876670"
    ),
    "directions_seed7": (
        "dc7acbc9006ad89367b590ef1a6fbf3810e776b0897311421fdee3805070bb59"
    ),
    "integers_mid_stream_natural": (
        "837b44325b263407b945c20fc88c50d6ea5157817141ce80f4d4dea664432aa9"
    ),
    "random_784_seed7_1024": (
        "034cec6a0f18610926c1398072f3be776c9d6fc1e08fca62d1428c51fb09a7e0"
    ),
    "sequences_784x1024_f32": (
        "c989538f740fb35c8fae1df214c693be26a4cae4e50fdfc7eb6a9f7e84b4e27f"
    ),
    "sequences_784x1024_f64": (
        "eb8f38f70999101dc566302e521bdd5c5a4606925fc7ce59dab82a4be465eed9"
    ),
    "sequences_digital_shift": (
        "6836dcbc27f090a935facb0f03c9cdb4869c91d156caff3267073230216cb3dc"
    ),
    "sequences_seed0": (
        "5c1e1c63a072dffed2cbf0f2c13fcdb19e8338ba6025f5523317f0fc04483c5d"
    ),
    "sequences_seed1": (
        "0776f9860f2f0df57507c4563035143adc68ed595c25e11ecc020b067e057f9a"
    ),
    "sequences_seed99": (
        "33bc5cac4cbd0985c4cb8d49b497e3b569be364118b3e7789a5fdb839c712703"
    ),
    "shift_seed2024": (
        "09906890163b858402b9e4692195686ef21af35c33dc3a6af40a815077dde755"
    ),
    "shift_seed7": (
        "d8f1f635951867c987db35f1f189cdde1090ba0eed8726538d3504eddc89a0c0"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_codebook_matches_golden_digest(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
