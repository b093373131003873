"""Synthetic handwritten-digit archive for the benchmark.

No real MNIST archive ships with the repository and nothing may be
downloaded, so the benchmark renders its own, in the style of the test
suite's stand-in: each digit 0-9 is a 5x7 bitmap glyph, upscaled 3x, placed
at a random offset inside a 28x28 canvas with a random stroke intensity.
Labels are i.i.d. uniform over 0-9. The archive is a pure function of its
seed, and the program only ever sees it as IDX files.
"""

import numpy as np

GLYPHS = (
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
)
SIDE = 28
SCALE = 3


def render(n, seed):
    """(images, labels): (n, 28, 28) uint8 glyph renderings and uint8 digits."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    bitmaps = np.array([[[int(c) for c in row] for row in glyph]
                        for glyph in GLYPHS], dtype=np.uint8)
    glyphs = np.kron(bitmaps, np.ones((SCALE, SCALE), dtype=np.uint8))
    gh, gw = glyphs.shape[1:]
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    oy = rng.integers(0, SIDE - gh + 1, size=n)
    ox = rng.integers(0, SIDE - gw + 1, size=n)
    intensity = rng.integers(160, 256, size=n).astype(np.uint8)
    images = np.zeros((n, SIDE, SIDE), dtype=np.uint8)
    rows = oy[:, None, None] + np.arange(gh)[None, :, None]
    cols = ox[:, None, None] + np.arange(gw)[None, None, :]
    images[np.arange(n)[:, None, None], rows, cols] = \
        glyphs[labels] * intensity[:, None, None]
    return images, labels
