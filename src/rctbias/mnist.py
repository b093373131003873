"""Colored-digit benchmark with a designed average treatment effect.

Starting from a grayscale digit archive (IDX format), every image gets a
background color B (1 green, 0 red) and a pen color P (1 white, 0 black).
The outcome is y = 1[digit > d]. Colors are drawn per image from the
conditional P(B, P | Y) obtained by Bayes' rule from the designed table

    P(Y=1 | B, P) = p_y + 0.2 * (2B - 1)   for white pen (P=1)
    P(Y=1 | B, P) = p_y + 0.1 * (2B - 1)   for black pen (P=0)

with p_y = (9 - d) / 10 and B, P uniform a priori. The construction fixes
the conditional effects of the background at 0.4 (white pen) and 0.2
(black pen) and the average effect at 0.3.

The nominal p_y assumes uniformly distributed digits; real archives
deviate slightly, so a generated dataset's outcome rate is close to p_y
but rarely equal to it. Color draws use one uniform per image from a
counter-based Philox stream keyed by the dataset seed (draw i is a pure
function of the seed and the image index), so generation is reproducible
regardless of scheduling.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DomainError, IdxFormatError
from .scm import Dataset

IDX_DTYPE_UBYTE = 0x08
IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

BACKGROUND_COLORS = {1: (0, 255, 0), 0: (255, 0, 0)}   # green / red
PEN_COLORS = {1: (255, 255, 255), 0: (0, 0, 0)}        # white / black
COLORIZE_CHUNK = 256  # images per table lookup in colorize

# cell order used for the categorical color draw
_CELLS = ((1, 1), (0, 1), (1, 0), (0, 0))


# --------------------------------------------------------------------------
# IDX container

def read_idx(path) -> np.ndarray:
    """Parse an IDX file of unsigned bytes (1 to 4 dimensions)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4:
        raise IdxFormatError(
            f"{path}: truncated header, {len(raw)} bytes before offset 4")
    zero0, zero1, dtype, ndim = struct.unpack(">BBBB", raw[:4])
    if zero0 != 0 or zero1 != 0:
        raise IdxFormatError(
            f"{path}: bad magic {raw[:4].hex()} at offset 0 "
            "(first two bytes must be zero)")
    if dtype != IDX_DTYPE_UBYTE:
        raise IdxFormatError(
            f"{path}: unsupported dtype byte 0x{dtype:02x} at offset 2 "
            "(only unsigned byte, 0x08, is supported)")
    if not 1 <= ndim <= 4:
        raise IdxFormatError(
            f"{path}: unsupported dimension count {ndim} at offset 3")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxFormatError(
            f"{path}: truncated header, {len(raw)} bytes before offset {header_len}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = int(np.prod(dims, dtype=np.int64))
    payload = len(raw) - header_len
    if payload != expected:
        raise IdxFormatError(
            f"{path}: payload of {payload} bytes at offset {header_len} does "
            f"not match dimensions {dims} ({expected} bytes expected)")
    return np.frombuffer(raw, dtype=np.uint8, offset=header_len).reshape(dims)


def write_idx(path, array: np.ndarray) -> None:
    """Write an unsigned-byte array (1 to 4 dimensions) as an IDX file."""
    array = np.asarray(array)
    if array.dtype != np.uint8:
        raise IdxFormatError(f"IDX writer requires uint8 data, got {array.dtype}")
    if not 1 <= array.ndim <= 4:
        raise IdxFormatError(f"IDX writer supports 1-4 dimensions, got {array.ndim}")
    with open(path, "wb") as fh:
        fh.write(_idx_header(array.shape))
        fh.write(np.ascontiguousarray(array).tobytes())


def _idx_header(shape) -> bytes:
    """The IDX header of an unsigned-byte array of the given shape."""
    return (struct.pack(">BBBB", 0, 0, IDX_DTYPE_UBYTE, len(shape))
            + struct.pack(f">{len(shape)}I", *shape))


@dataclass(frozen=True)
class MnistArchive:
    """Raw grayscale digits: (n, H, W) pixel bytes plus digit labels 0-9."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise IdxFormatError(
                f"image count {len(self.images)} does not match label count "
                f"{len(self.labels)}")
        self.images.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return len(self.images)


def load_idx(images_path, labels_path) -> MnistArchive:
    """Load an image/label archive pair, enforcing the canonical magic
    numbers (0x00000803 for images, 0x00000801 for labels) and the count
    cross-check."""
    images = read_idx(images_path)
    if images.ndim != 3:
        raise IdxFormatError(
            f"{images_path}: expected images magic 0x{IMAGES_MAGIC:08x} "
            f"(3 dimensions), found {images.ndim} dimensions")
    labels = read_idx(labels_path)
    if labels.ndim != 1:
        raise IdxFormatError(
            f"{labels_path}: expected labels magic 0x{LABELS_MAGIC:08x} "
            f"(1 dimension), found {labels.ndim} dimensions")
    return MnistArchive(images=images, labels=labels)


# --------------------------------------------------------------------------
# designed population

def _design(d: int):
    """The exact design of threshold d: p_y = (9 - d) / 10 and the table
    P(Y=1 | B=b, P=p) = p_y + shift * (2b - 1) over _CELLS, where the
    background shift is 0.2 under a white pen and 0.1 under a black one."""
    p_y = Fraction(9 - d, 10)
    shift = {1: Fraction(2, 10), 0: Fraction(1, 10)}   # by pen bit
    return p_y, {(b, p): p_y + shift[p] * (2 * b - 1) for b, p in _CELLS}


@dataclass(frozen=True)
class PopulationSpec:
    """Digit threshold, nominal outcome rate, the four-cell conditional
    outcome table and the designed conditional/average effects."""

    d: int
    p_y: float
    table: dict                 # (b, p) -> P(Y=1 | B=b, P=p)
    cate_pen_white: float
    cate_pen_black: float
    ate: float


def build_population(d: int) -> PopulationSpec:
    """Population spec for a digit threshold d in {1, ..., 7}.

    Built in exact rational arithmetic, then converted, so the d=3 table is
    exactly {0.8, 0.4, 0.7, 0.5} in floating point. Verifies the designed
    effects (0.4 white-pen, 0.2 black-pen, 0.3 average) before returning.
    """
    if not (isinstance(d, (int, np.integer)) and 1 <= d <= 7):
        raise DomainError(
            f"digit threshold must be an integer in 1..7, got {d!r} "
            "(outside that range the conditional table leaves [0, 1])")
    p_y, table_frac = _design(d)
    cate_white = table_frac[(1, 1)] - table_frac[(0, 1)]
    cate_black = table_frac[(1, 0)] - table_frac[(0, 0)]
    ate = Fraction(1, 2) * cate_white + Fraction(1, 2) * cate_black
    assert cate_white == Fraction(4, 10) and cate_black == Fraction(2, 10)
    assert ate == Fraction(3, 10)
    return PopulationSpec(
        d=int(d), p_y=float(p_y),
        table={cell: float(v) for cell, v in table_frac.items()},
        cate_pen_white=float(cate_white), cate_pen_black=float(cate_black),
        ate=float(ate))


def _cell_distributions(spec: PopulationSpec):
    """Cumulative P(B, P | Y=y) over _CELLS for y = 1 and y = 0."""
    p_y, q = _design(spec.d)
    given_1 = [q[c] * Fraction(1, 4) / p_y for c in _CELLS]
    given_0 = [(1 - q[c]) * Fraction(1, 4) / (1 - p_y) for c in _CELLS]
    assert sum(given_1) == 1 and sum(given_0) == 1
    cum1 = np.cumsum([float(v) for v in given_1])
    cum0 = np.cumsum([float(v) for v in given_0])
    return cum1, cum0


def draw_colors(y: np.ndarray, spec: PopulationSpec, seed: int):
    """Per-image (background, pen) bits drawn from P(B, P | Y) by inverse
    transform of one Philox uniform per image."""
    y = np.asarray(y)
    cum1, cum0 = _cell_distributions(spec)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(len(y))
    cell = np.where(y == 1, np.searchsorted(cum1, u), np.searchsorted(cum0, u))
    cell = np.minimum(cell, len(_CELLS) - 1)
    b_of_cell = np.array([c[0] for c in _CELLS], dtype=np.int8)
    p_of_cell = np.array([c[1] for c in _CELLS], dtype=np.int8)
    return b_of_cell[cell], p_of_cell[cell]


def _blend_table() -> np.ndarray:
    """(background, pen, ink value) -> RGB bytes, shape (2, 2, 256, 3): the
    float32 blend of ``colorize`` evaluated once for every possible pixel."""
    v = np.arange(256, dtype=np.float32)[:, None] / np.float32(255.0)
    bg = np.array([BACKGROUND_COLORS[0], BACKGROUND_COLORS[1]],
                  dtype=np.float32)[:, None, None, :]
    pen = np.array([PEN_COLORS[0], PEN_COLORS[1]],
                   dtype=np.float32)[None, :, None, :]
    return np.rint(v * pen + (1.0 - v) * bg).astype(np.uint8)


_BLEND_TABLE = _blend_table()


def colorize(gray: np.ndarray, b, p) -> np.ndarray:
    """Blend an (n, H, W) stack of grayscale images into (n, H, W, 3)
    channel-last RGB bytes, with per-image bit vectors ``b`` and ``p``.
    A generated dataset calls it on the rows a stage reads (ColoredStack).

    Per pixel with ink value v in 0..255 the output is the convex blend
    (v/255) * pen_color + (1 - v/255) * background_color, computed in
    float32 and rounded to the nearest integer channel value.

    A pixel's output depends only on (b, p, v), so the blend is evaluated
    once per possible pixel and each image is a lookup into that table: no
    float copy of the stack is made. The lookup takes rows of the flat
    (1024, 3) table at ``(b*2 + p) << 8 | v``, COLORIZE_CHUNK images at a
    time, so the index array stays small.
    """
    gray = np.asarray(gray)
    cell = (np.asarray(b).astype(np.intp) * 2
            + np.asarray(p).astype(np.intp)) << 8
    table = _BLEND_TABLE.reshape(-1, 3)
    out = np.empty(gray.shape + (3,), dtype=np.uint8)
    for lo in range(0, len(gray), COLORIZE_CHUNK):
        index = gray[lo:lo + COLORIZE_CHUNK].astype(np.intp)
        index |= cell[lo:lo + COLORIZE_CHUNK, None, None]
        np.take(table, index, axis=0, out=out[lo:lo + COLORIZE_CHUNK])
    return out


class ColoredStack:
    """``colorize`` of a read-only grayscale stack, on demand: indexing by
    a slice or an integer array colors just those rows, and only
    ``np.asarray`` builds the whole (n, H, W, 3) RGB stack."""

    ndim = 4

    def __init__(self, gray: np.ndarray, b: np.ndarray, p: np.ndarray):
        self.gray, self.b, self.p = gray, b, p
        self.shape = gray.shape + (3,)

    def __len__(self) -> int:
        return len(self.gray)

    def __getitem__(self, rows) -> np.ndarray:
        return colorize(self.gray[rows], self.b[rows], self.p[rows])

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)


class CausalMnistDataset:
    """Ordered collection of colored-digit records, stored column-wise."""

    def __init__(self, images, digits, y, b, p, s, spec: PopulationSpec,
                 seed: int):
        self.images = images
        self.digits = np.asarray(digits)
        self.y = np.asarray(y)
        self.b = np.asarray(b)
        self.p = np.asarray(p)
        self.s = np.asarray(s)
        self.spec = spec
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.digits)

    def as_rct_dataset(self) -> Dataset:
        """View the benchmark as an RCT dataset: the background bit is the
        treatment, the pen bit fills the experimental-setting slot, images
        are the observations."""
        return Dataset(w=self.p, t=self.b, x=self.images, y=self.y, s=self.s)

    def save(self, out_dir) -> None:
        """Write the dataset directory: an IDX blob of (n, 3, H, W) planes,
        a metadata CSV (index,digit,y,b,p,s) and a JSON spec sidecar. The
        planes are colored and written COLORIZE_CHUNK images at a time."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        n, h, w, c = self.images.shape
        with open(out_dir / "images.idx", "wb") as fh:
            fh.write(_idx_header((n, c, h, w)))
            for lo in range(0, n, COLORIZE_CHUNK):
                rgb = self.images[lo:lo + COLORIZE_CHUNK]
                fh.write(rgb.transpose(0, 3, 1, 2).tobytes())
        with open(out_dir / "metadata.csv", "w", newline="") as fh:
            fh.write("index,digit,y,b,p,s\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.digits[i]},{self.y[i]},{self.b[i]},"
                         f"{self.p[i]},{self.s[i]}\n")
        sidecar = {
            "seed": self.seed,
            "d": self.spec.d,
            "p_y": self.spec.p_y,
            "table": {f"b={b},p={p}": v
                      for (b, p), v in sorted(self.spec.table.items())},
            "cate_pen_white": self.spec.cate_pen_white,
            "cate_pen_black": self.spec.cate_pen_black,
            "ate": self.spec.ate,
        }
        with open(out_dir / "spec.json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=2)
            fh.write("\n")


def generate(archive: MnistArchive, spec: PopulationSpec,
             seed: int) -> CausalMnistDataset:
    """Color an archive according to the population spec.

    One record per source image, in archive order: the outcome is computed
    from the digit and the color bits are drawn from the Bayes conditional.
    The images are a ColoredStack, blended only when a stage reads them, so
    no RGB copy of the archive is made. The annotation flag starts at 1.
    Raises DomainError unless 0 <= seed < 2**64, the range ScmConfig allows.
    """
    if not 0 <= seed < 2 ** 64:
        raise DomainError(
            f"seed must be an unsigned 64-bit integer, got {seed}")
    y = (archive.labels > spec.d).astype(np.int8)
    b, p = draw_colors(y, spec, seed)
    s = np.ones(len(y), dtype=np.int8)
    return CausalMnistDataset(images=ColoredStack(archive.images, b, p),
                              digits=archive.labels.copy(), y=y, b=b, p=p,
                              s=s, spec=spec, seed=seed)
