"""Golden digests of the Sobol codebook (ARCHITECTURE contract 4).

uHD never stores a hypervector: every process, ``load_model`` included,
regenerates the codebook from the config seed.  A saved model is only
correct if that regeneration is a *fixed* function of the seed, and a
save/load round trip cannot show a change to it (both sides would move
together).  These sha256 digests were recorded at commit 5349c83, with
the per-bit scalar direction draws and the bit-loop point generator, and
any later generator must reproduce them exactly.

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


def _codes(levels: int) -> np.ndarray:
    return SobolLevelEncoder(784, UHDConfig(dim=1024, levels=levels)).quantized_codes


CASES = {
    # row d depends only on (seed, d): every H <= MAX_PIXELS is a prefix
    "directions_max_pixels": lambda: _directions(
        SobolEngine(PackedLevelEncoder.MAX_PIXELS, seed=2024)
    ),
    "sequences_784x1024_f64": lambda: sobol_sequences(784, 1024),
    "sequences_784x1024_f32": lambda: sobol_sequences(784, 1024, dtype=np.float32),
    "codes_levels16": lambda: _codes(16),
    "codes_levels256": lambda: _codes(256),
    "sequences_seed0": lambda: sobol_sequences(784, 1024, seed=0),
    "sequences_seed1": lambda: sobol_sequences(784, 1024, seed=1),
    "sequences_seed99": lambda: sobol_sequences(784, 1024, seed=99),
    "sequences_digital_shift": lambda: sobol_sequences(
        784, 1024, digital_shift=True
    ),
    "integers_gray": lambda: SobolEngine(784, order="gray").integers(1024),
    "integers_mid_stream_natural": lambda: SobolEngine(784)
    .fast_forward(1000)
    .integers(1500),
    "integers_mid_stream_gray_shifted": lambda: SobolEngine(
        784, order="gray", digital_shift=True
    )
    .fast_forward(777)
    .integers(1234),
    "recurrence_directions_64": lambda: _directions(
        SobolEngine(64, init="recurrence")
    ),
    "recurrence_integers_64": lambda: SobolEngine(64, init="recurrence").integers(
        1024
    ),
    "max_bits1_directions": lambda: _directions(SobolEngine(200, max_bits=1)),
    # n beyond the period 2^max_bits: the stream wraps
    "max_bits1_integers": lambda: SobolEngine(200, max_bits=1).integers(8),
    "max_bits31_directions": lambda: _directions(SobolEngine(200, max_bits=31)),
    "max_bits31_integers": lambda: SobolEngine(200, max_bits=31).integers(1024),
    "max_bits33_directions": lambda: _directions(SobolEngine(200, max_bits=33)),
    "max_bits33_integers": lambda: SobolEngine(200, max_bits=33).integers(1024),
    "max_bits62_directions": lambda: _directions(SobolEngine(200, max_bits=62)),
    "max_bits62_integers": lambda: SobolEngine(200, max_bits=62).integers(1024),
}

GOLDEN = {
    "codes_levels16": (
        "c34bf178346c56240d77deb417df855a4ec09d17fa8500532a7213ac02db3c7d"
    ),
    "codes_levels256": (
        "b960212b2e65093e8c89d3236b702981344ee63c4871df0323dec9f7bedc911d"
    ),
    "directions_max_pixels": (
        "5acf176c4a1fba1713359a7191e46f312d652935f218d2b8d5df37bb7c8c2325"
    ),
    "integers_gray": (
        "e7e051922ce7a04857420d4c5c66f9594eb70a5da6d27aa2391a36fd7772d927"
    ),
    "integers_mid_stream_gray_shifted": (
        "96c08b78ea138e3d829da9cb7f493054b3e7b9824d470a964a066ecaf1876c34"
    ),
    "integers_mid_stream_natural": (
        "837b44325b263407b945c20fc88c50d6ea5157817141ce80f4d4dea664432aa9"
    ),
    "max_bits1_directions": (
        "4d6ac560d662c997ce265de35036f329fa46c3a19be688aadaa47287d698e429"
    ),
    "max_bits1_integers": (
        "1be9bd2165cd72ffdf5f07d715ffb4172cd12ba9d7914395fb0e62226b00c8be"
    ),
    "max_bits31_directions": (
        "9bfe3017069a963cef657a70f21c904624e2b2f321046ec0c0900583d991959b"
    ),
    "max_bits31_integers": (
        "7b249b0278a52d4502798d5bba8ea93935a068f35da71c214b5add01116d2a6e"
    ),
    "max_bits33_directions": (
        "cb915f291cad948129c6e132f048b89e6222ef43e2d70fa17189c65ad322721a"
    ),
    "max_bits33_integers": (
        "a5eda1944174edfcda9ff5a7f9bc5f0b636966bb0bcca690a202a98d7728522a"
    ),
    "max_bits62_directions": (
        "662155dc1b600998a1db10e44af314c68eb44ed613a23be5155ee5c09bc6e7c3"
    ),
    "max_bits62_integers": (
        "d80c49548adfec54039bcce8bb7a0026c278b93dbe3672c2dbbca18415983416"
    ),
    "recurrence_directions_64": (
        "9a7adb22cf160a468f904c8e47dd1ec97cd3d1323f280716a11c5d1438623a01"
    ),
    "recurrence_integers_64": (
        "58f735952ce43004ebaa8cd69e6f4b4c6dbbefe0b75911770845d71ccfbe3d83"
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_codebook_matches_golden_digest(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
