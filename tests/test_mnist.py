import csv
import json
import struct
import tracemalloc

import numpy as np
import pytest

from rctbias import (DomainError, IdxFormatError, build_population, colorize,
                     draw_colors, generate, load_idx, read_idx, write_idx)
from rctbias import mnist, models
from rctbias.mnist import (BACKGROUND_COLORS, PEN_COLORS, ColoredStack,
                           MnistArchive)

CONV_ARCH = {"kind": "convnet", "height": 28, "width": 28, "channels": 3}


class TestIdxFormat:
    def test_round_trip_all_ranks(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in ((17,), (5, 7), (6, 28, 28), (4, 3, 28, 28)):
            arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
            path = tmp_path / ("a%d.idx" % len(shape))
            write_idx(path, arr)
            assert np.array_equal(read_idx(path), arr)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x12\x34\x08\x01" + struct.pack(">I", 0))
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx(path)

    def test_rejects_unsupported_dtype(self, tmp_path):
        path = tmp_path / "float.idx"
        path.write_bytes(b"\x00\x00\x0d\x01" + struct.pack(">I", 0))
        with pytest.raises(IdxFormatError, match="dtype"):
            read_idx(path)

    def test_rejects_truncated_payload_with_offset(self, tmp_path):
        path = tmp_path / "short.idx"
        header = b"\x00\x00\x08\x03" + struct.pack(">III", 2, 28, 28)
        path.write_bytes(header + b"\x00" * 100)  # needs 1568 bytes
        with pytest.raises(IdxFormatError, match="offset 16"):
            read_idx(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError, match="truncated"):
            read_idx(path)

    def test_load_idx_rejects_swapped_files(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        write_idx(tmp_path / "images.idx", images)
        write_idx(tmp_path / "labels.idx", labels)
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(tmp_path / "labels.idx", tmp_path / "images.idx")

    def test_load_idx_rejects_count_mismatch(self, tmp_path):
        write_idx(tmp_path / "images.idx", np.zeros((3, 28, 28), dtype=np.uint8))
        write_idx(tmp_path / "labels.idx", np.zeros(5, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")

    def test_loads_valid_pair(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10).astype(np.uint8)
        write_idx(tmp_path / "images.idx", images)
        write_idx(tmp_path / "labels.idx", labels)
        archive = load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")
        assert len(archive) == 10
        assert archive.images.shape == (10, 28, 28)
        assert np.array_equal(archive.labels, labels)


class TestBuildPopulation:
    def test_reference_threshold(self):
        spec = build_population(3)
        assert spec.p_y == 0.6
        assert spec.table == {(1, 1): 0.8, (0, 1): 0.4, (1, 0): 0.7,
                              (0, 0): 0.5}
        assert spec.cate_pen_white == 0.4
        assert spec.cate_pen_black == 0.2
        assert spec.ate == 0.3

    def test_all_valid_thresholds_give_probability_tables(self):
        for d in range(1, 8):
            spec = build_population(d)
            assert all(0.0 <= v <= 1.0 for v in spec.table.values())
            assert spec.ate == 0.3

    def test_rejects_out_of_range(self):
        for bad in (0, 8, -1, 3.5):
            with pytest.raises(DomainError):
                build_population(bad)


class TestDrawColors:
    def test_deterministic(self):
        spec = build_population(3)
        y = np.random.default_rng(2).integers(0, 2, 1000).astype(np.int8)
        b1, p1 = draw_colors(y, spec, seed=5)
        b2, p2 = draw_colors(y, spec, seed=5)
        assert np.array_equal(b1, b2) and np.array_equal(p1, p2)

    def test_conditional_cell_frequencies(self):
        # the (b, p) draw given y must follow the Bayes table within 3
        # standard errors per cell
        spec = build_population(3)
        n = 60000
        rng = np.random.default_rng(3)
        y = (rng.random(n) < 0.6).astype(np.int8)
        b, p = draw_colors(y, spec, seed=7)
        from rctbias.mnist import _cell_distributions, _CELLS
        cum1, cum0 = _cell_distributions(spec)
        probs = {1: np.diff(np.concatenate([[0.0], cum1])),
                 0: np.diff(np.concatenate([[0.0], cum0]))}
        for y_val in (0, 1):
            mask = y == y_val
            count = mask.sum()
            for i, (bv, pv) in enumerate(_CELLS):
                expected = probs[y_val][i]
                observed = ((b[mask] == bv) & (p[mask] == pv)).mean()
                se = np.sqrt(expected * (1 - expected) / count)
                assert abs(observed - expected) < 3 * se + 1e-9


class TestColorize:
    def test_zero_ink_shows_background(self):
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        green = colorize(img, b=[1], p=[0])
        assert (green[0, 0, 0] == (0, 255, 0)).all()
        red = colorize(img, b=[0], p=[1])
        assert (red[0, 0, 0] == (255, 0, 0)).all()

    def test_full_ink_shows_pen(self):
        img = np.full((1, 28, 28), 255, dtype=np.uint8)
        white = colorize(img, b=[0], p=[1])
        assert (white[0, 5, 5] == (255, 255, 255)).all()
        black = colorize(img, b=[1], p=[0])
        assert (black[0, 5, 5] == (0, 0, 0)).all()

    def test_half_ink_blend(self):
        img = np.full((1, 28, 28), 128, dtype=np.uint8)
        out = colorize(img, b=[0], p=[0])  # black pen over red background
        assert (out[0, 3, 3] == (127, 0, 0)).all()

    def test_color_bits_recoverable(self):
        # one pure-background and one pure-ink pixel identify (b, p)
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        img[0, 10, 10] = 255
        for b in (0, 1):
            for p in (0, 1):
                out = colorize(img, b=[b], p=[p])
                bg_pixel = tuple(out[0, 0, 0])
                ink_pixel = tuple(out[0, 10, 10])
                assert bg_pixel == ((0, 255, 0) if b else (255, 0, 0))
                assert ink_pixel == ((255, 255, 255) if p
                                     else (0, 0, 0))


def float_blend(gray, b, p):
    """The float32 blend colorize is defined by, computed on the whole stack."""
    v = gray.astype(np.float32) / np.float32(255.0)
    bg = np.array([BACKGROUND_COLORS[0], BACKGROUND_COLORS[1]],
                  dtype=np.float32)[b]
    pen = np.array([PEN_COLORS[0], PEN_COLORS[1]], dtype=np.float32)[p]
    blend = (v[..., None] * pen[:, None, None, :]
             + (1.0 - v[..., None]) * bg[:, None, None, :])
    return np.rint(blend).astype(np.uint8)


class TestColorizeMatchesFloatBlend:
    def test_every_ink_value_and_color_pair(self):
        gray = np.tile(np.arange(256, dtype=np.uint8).reshape(16, 16), (4, 1, 1))
        b = np.array([0, 0, 1, 1], dtype=np.int8)
        p = np.array([0, 1, 0, 1], dtype=np.int8)
        assert np.array_equal(colorize(gray, b, p), float_blend(gray, b, p))

    def test_random_stack(self):
        rng = np.random.default_rng(11)
        gray = rng.integers(0, 256, size=(300, 28, 28), dtype=np.uint8)
        b = rng.integers(0, 2, size=300).astype(np.int8)
        p = rng.integers(0, 2, size=300).astype(np.int8)
        out = colorize(gray, b, p)
        assert out.dtype == np.uint8 and out.shape == (300, 28, 28, 3)
        assert np.array_equal(out, float_blend(gray, b, p))


class TestColorizeMatchesBroadcastIndex:
    @pytest.mark.parametrize("n", [0, 4, mnist.COLORIZE_CHUNK + 5])
    def test_every_ink_value_and_color_pair(self, n):
        # every image holds all 256 ink values; (b, p) cycles through the
        # four pairs, so n >= 4 covers all 1,024 table rows
        gray = np.tile(np.arange(256, dtype=np.uint8).reshape(16, 16),
                       (n, 1, 1))
        gray[1::3] = gray[1::3].transpose(0, 2, 1)  # differ beyond (b, p)
        b = (np.arange(n) // 2 % 2).astype(np.int8)
        p = (np.arange(n) % 2).astype(np.int8)
        want = mnist._BLEND_TABLE[b[:, None, None], p[:, None, None], gray]
        got = colorize(gray, b, p)
        assert got.shape == (n, 16, 16, 3) and got.dtype == np.uint8
        assert np.array_equal(got, want)


def gray_stack(n, seed):
    """n random read-only grayscale images, and (b, p) bits that cycle
    through the four color cells."""
    gray = np.random.default_rng(seed).integers(0, 256, size=(n, 28, 28),
                                                dtype=np.uint8)
    gray.setflags(write=False)
    b = (np.arange(n) // 2 % 2).astype(np.int8)
    p = (np.arange(n) % 2).astype(np.int8)
    return gray, b, p


def conv_predictor():
    return models.Predictor(architecture=CONV_ARCH,
                            params=models.init_params(CONV_ARCH, seed=0))


class TestColoredStack:
    @pytest.mark.parametrize("n", [4, mnist.COLORIZE_CHUNK + 5,
                                   2 * mnist.COLORIZE_CHUNK + 3])
    def test_indexing_equals_whole_archive_colorize(self, n):
        gray, b, p = gray_stack(n, seed=n)
        whole = colorize(gray, b, p)
        stack = ColoredStack(gray, b, p)
        assert (stack.shape, stack.ndim, len(stack)) == (whole.shape, 4, n)
        got = np.asarray(stack)
        assert got.dtype == np.uint8 and np.array_equal(got, whole)
        for rows in (slice(None), slice(1, n - 1), slice(n - 3, None),
                     slice(None, None, 3), slice(n, None)):
            assert np.array_equal(stack[rows], whole[rows])
        index = np.random.default_rng(n).permutation(n)[:n // 2 + 1]
        assert np.array_equal(stack[index], whole[index])

    def test_generate_colors_on_demand(self, digit_archive):
        ds = generate(digit_archive, build_population(3), seed=6)
        assert isinstance(ds.images, ColoredStack)
        assert np.array_equal(np.asarray(ds.images),
                              colorize(digit_archive.images, ds.b, ds.p))
        rct = ds.as_rct_dataset()
        assert rct.x is ds.images
        rows = np.flatnonzero(ds.p == 0)[:300]
        sub = rct.subset(rows)
        assert isinstance(sub.x, np.ndarray) and not sub.x.flags.writeable
        assert np.array_equal(sub.x, colorize(digit_archive.images[rows],
                                              ds.b[rows], ds.p[rows]))

    def test_predict_soft_equals_the_materialized_stack(self):
        # two whole 55-image batches and a ragged one of 17
        gray, b, p = gray_stack(2 * 55 + 17, seed=3)
        stack = ColoredStack(gray, b, p)
        pred = conv_predictor()
        assert np.array_equal(models.predict_soft(pred, stack),
                              models.predict_soft(pred, np.asarray(stack)))

    def test_generate_and_predict_never_hold_the_rgb_stack(self,
                                                           monkeypatch):
        # one scoring thread, so one batch's buffers are alive at a time
        monkeypatch.setattr(models, "_usable_cores", lambda: 1)
        n = 20000
        gray, _, _ = gray_stack(n, seed=5)
        labels = (np.arange(n) % 10).astype(np.uint8)
        spec, pred = build_population(3), conv_predictor()

        def traced_peak(archive):
            tracemalloc.start()
            try:
                ds = generate(archive, spec, seed=8)
                models.predict_soft(pred, ds.as_rct_dataset().x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_batch = traced_peak(MnistArchive(gray[:55], labels[:55]))
        whole = traced_peak(MnistArchive(gray, labels))
        rgb_stack = n * 28 * 28 * 3   # 47 MB
        assert whole - one_batch < rgb_stack / 20


class TestGenerate:
    def test_outcome_is_threshold_of_digit(self, digit_archive):
        spec = build_population(3)
        ds = generate(digit_archive, spec, seed=0)
        assert np.array_equal(ds.y, (digit_archive.labels > 3).astype(np.int8))

    def test_bit_identical_regeneration(self, digit_archive):
        spec = build_population(3)
        a = generate(digit_archive, spec, seed=9)
        b = generate(digit_archive, spec, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.b, b.b) and np.array_equal(a.p, b.p)

    def test_records_and_annotation_default(self, digit_archive):
        ds = generate(digit_archive, build_population(3), seed=1)
        assert len(ds) == len(digit_archive)
        assert ds.images.shape == (len(digit_archive), 28, 28, 3)
        assert (ds.s == 1).all()
        assert np.array_equal(ds.y, ds.digits > 3)

    def test_designed_ate_over_seeds(self, digit_archive):
        spec = build_population(3)
        ads = []
        for seed in range(30):
            ds = generate(digit_archive, spec, seed=seed)
            y = ds.y.astype(float)
            ads.append(y[ds.b == 1].mean() - y[ds.b == 0].mean())
        assert abs(np.mean(ads) - 0.3) < 0.01

    def test_as_rct_dataset_mapping(self, digit_archive):
        ds = generate(digit_archive, build_population(3), seed=2)
        rct = ds.as_rct_dataset()
        assert np.array_equal(rct.t, ds.b)
        assert np.array_equal(rct.w, ds.p)
        assert np.array_equal(rct.y, ds.y)
        assert rct.x.shape == (len(ds), 28, 28, 3)

    def test_save_load_round_trip(self, digit_archive, tmp_path):
        spec = build_population(3)
        small = MnistArchive(images=digit_archive.images[:200],
                             labels=digit_archive.labels[:200])
        ds = generate(small, spec, seed=4)
        out = tmp_path / "dataset"
        ds.save(out)
        planes = read_idx(out / "images.idx")
        assert np.array_equal(planes.transpose(0, 2, 3, 1), ds.images)
        with open(out / "metadata.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for column, values in (("digit", ds.digits), ("b", ds.b),
                               ("p", ds.p)):
            assert [int(row[column]) for row in rows] == values.tolist()
        sidecar = json.loads((out / "spec.json").read_text())
        assert sidecar["seed"] == ds.seed
        assert sidecar["table"] == {f"b={b},p={p}": v
                                    for (b, p), v in spec.table.items()}
