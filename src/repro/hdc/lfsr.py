"""Linear-feedback shift registers — the baseline's hardware RNG.

The paper's baseline design uses LFSR modules for hypervector generation
(Section IV).  This is the software model; the gate-level netlist used for
energy accounting is built by :func:`repro.hardware.components.build_lfsr`.

Taps are the classic maximal-length feedback polynomials (Xilinx XAPP052
table), so a width-``w`` register sweeps all ``2^w - 1`` non-zero states —
a property the tests verify directly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LFSR", "MAXIMAL_TAPS"]

# Maximal-length Fibonacci taps (1-based bit positions, MSB = width).
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
}


class LFSR:
    """Fibonacci LFSR with maximal-length taps.

    Parameters
    ----------
    width:
        Register width in bits; must be a key of :data:`MAXIMAL_TAPS`.
    seed:
        Initial non-zero state (default: all ones).
    taps:
        Override the feedback taps (1-based positions); callers doing so
        are responsible for maximality.
    """

    def __init__(
        self,
        width: int,
        seed: int | None = None,
        taps: tuple[int, ...] | None = None,
    ) -> None:
        if taps is None:
            if width not in MAXIMAL_TAPS:
                raise ValueError(
                    f"no maximal taps tabulated for width {width}; "
                    f"available: {sorted(MAXIMAL_TAPS)}"
                )
            taps = MAXIMAL_TAPS[width]
        if any(not 1 <= t <= width for t in taps):
            raise ValueError(f"taps must lie in [1, {width}], got {taps}")
        self.width = width
        self.taps = tuple(taps)
        self._mask = (1 << width) - 1
        state = self._mask if seed is None else seed & self._mask
        if state == 0:
            raise ValueError("LFSR state must be non-zero")
        self._state = state

    @property
    def state(self) -> int:
        """Current register contents."""
        return self._state

    def step(self) -> int:
        """Advance one clock; returns the output bit (the last stage).

        XAPP052 convention: stages shift toward higher indices, the XOR of
        the tapped stages feeds stage 1.  Stage ``i`` lives at bit
        ``i - 1``, so the register shifts left and the feedback enters at
        bit 0.
        """
        out = (self._state >> (self.width - 1)) & 1
        feedback = 0
        for t in self.taps:
            feedback ^= (self._state >> (t - 1)) & 1
        self._state = ((self._state << 1) | feedback) & self._mask
        return out

    def next_state(self) -> int:
        """Advance one clock; returns the new state (a pseudo-random word)."""
        self.step()
        return self._state

    def uniform(self) -> float:
        """One pseudo-random value in ``(0, 1)`` from the next state."""
        return self.next_state() / float(1 << self.width)

    def sequence(self, n: int) -> np.ndarray:
        """The next ``n`` uniform values as a float64 vector."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return np.fromiter((self.uniform() for _ in range(n)), dtype=np.float64, count=n)

    def period(self, limit: int | None = None) -> int:
        """Number of steps until the state recurs (2^width - 1 when maximal).

        ``limit`` bounds the search; defaults to ``2^width`` steps.
        """
        if limit is None:
            limit = 1 << self.width
        start = self._state
        probe = LFSR(self.width, seed=start, taps=self.taps)
        for count in range(1, limit + 1):
            probe.next_state()
            if probe.state == start:
                return count
        raise RuntimeError(f"no recurrence within {limit} steps")
