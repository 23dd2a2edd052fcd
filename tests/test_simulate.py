"""Simulator tests: conversions, projection, reconstruction, MA pairs, datasets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import map_coordinates

from ctmar import simulate
from ctmar.simulate import (
    HU_MAX,
    HU_MIN,
    PhantomImage,
    SimParams,
    Sinogram,
    _SAMPLE_BLOCK,
    _bilinear,
    _default_detectors,
    fbp_reconstruct,
    hu_to_mu,
    jaw_phantom,
    load_manifest,
    load_pair,
    make_dataset,
    mu_to_hu,
    radon_forward,
    random_metal_mask,
    simulate_ma_pair,
    smooth_phantom,
)


def psnr(a, b, data_range):
    mse = float(((a - b) ** 2).mean())
    return 10.0 * math.log10(data_range ** 2 / mse)


class TestHuToMu:
    def test_air(self):
        img = PhantomImage(np.full((4, 4), -1000.0), spacing=1.0)
        np.testing.assert_allclose(hu_to_mu(img), 0.0)

    def test_water(self):
        img = PhantomImage(np.zeros((4, 4)), spacing=1.0)
        np.testing.assert_allclose(hu_to_mu(img), 0.0192)

    def test_window_top(self):
        img = PhantomImage(np.full((2, 2), 2800.0), spacing=1.0)
        np.testing.assert_allclose(hu_to_mu(img), 0.0192 * 3.8)

    def test_clipping_applies_before_conversion(self):
        img = PhantomImage(np.array([[30000.0, -5000.0]] * 2), spacing=1.0)
        mu = hu_to_mu(img)
        np.testing.assert_allclose(mu[:, 0], 0.0192 * 3.8)
        np.testing.assert_allclose(mu[:, 1], 0.0)
        assert (mu >= 0).all()


def radon_reference(mu, params, spacing=1.0):
    """The full-grid projector: every march step of every sub-ray is sampled."""
    mu = np.asarray(mu, dtype=np.float64)
    size = mu.shape[0]
    n_det = _default_detectors(size)
    center = (size - 1) / 2.0
    det = np.arange(n_det) - (n_det - 1) / 2.0
    step = 0.5
    half_span = size * math.sqrt(2.0) / 2.0
    march = np.arange(-half_span, half_span + step, step)
    sub = np.concatenate([det - 0.25, det + 0.25])
    sino = np.empty((params.n_angles, n_det), dtype=np.float64)
    angles = np.arange(params.n_angles) * math.pi / params.n_angles
    for i, theta in enumerate(angles):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        px = center + sub[:, None] * cos_t - march[None, :] * sin_t
        py = center + sub[:, None] * sin_t + march[None, :] * cos_t
        samples = map_coordinates(mu, [py.ravel(), px.ravel()], order=1,
                                  mode="constant", cval=0.0)
        rays = samples.reshape(2, n_det, march.size).sum(axis=2) * step * spacing
        sino[i] = 0.5 * (rays[0] + rays[1])
    return Sinogram(values=sino, spacing=spacing)


@st.composite
def projector_cases(draw):
    """An image and SimParams. Images: all-zero, one pixel on a corner or
    an edge, a small blob of either sign anywhere, dense random, or dense
    with negative values; sizes 8-48. Angle counts are even (theta = pi/2
    is sampled) and odd."""
    size = draw(st.integers(8, 48))
    kind = draw(st.sampled_from(["zero", "pixel", "blob", "dense", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = np.zeros((size, size))
    if kind == "pixel":
        edge = draw(st.sampled_from([0, size - 1]))
        along = draw(st.integers(0, size - 1))
        r, c = (edge, along) if draw(st.booleans()) else (along, edge)
        mu[r, c] = rng.uniform(0.1, 2.0)
    elif kind == "blob":
        h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        r, c = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        mu[r:r + h, c:c + w] = rng.uniform(-1.0, 1.0, size=mu[r:r + h, c:c + w].shape)
    elif kind == "dense":
        mu = rng.random((size, size))
    elif kind == "negative":
        mu = rng.normal(size=(size, size))
    return mu, SimParams(n_angles=draw(st.integers(8, 25)))


class TestBilinear:
    @pytest.mark.parametrize("size", [1, 2, 5, 16])
    def test_bit_equal_to_map_coordinates(self, size):
        """Every row coordinate meets every column coordinate: exactly 0
        and size-1, just inside and outside both, (-1, 0), (size-1, size),
        integers, half-integers and -0.0; then more random samples than
        one block holds. Pixels are of both signs, 0.0 and -0.0."""
        rng = np.random.default_rng(size)
        mu = rng.normal(size=(size, size))
        mu[rng.random((size, size)) < 0.3] = -0.0
        mu[rng.random((size, size)) < 0.2] = 0.0
        last = size - 1.0
        edges = np.array([0.0, -0.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
                          -0.5, -0.999, -1.0, last, np.nextafter(last, 0.0),
                          np.nextafter(last, size), last + 0.5, last + 0.999, float(size),
                          *np.arange(0.0, size, 0.5), *rng.uniform(-1.5, size + 0.5, 7)])
        rows, cols = (a.ravel() for a in np.meshgrid(edges, edges))
        extra = rng.uniform(-1.5, size + 0.5, (2, _SAMPLE_BLOCK + 123))
        rows, cols = np.concatenate([rows, extra[0]]), np.concatenate([cols, extra[1]])
        want = map_coordinates(mu, [rows, cols], order=1, mode="constant", cval=0.0)
        got = _bilinear(mu, rows, cols)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRadonForward:
    # a floating-point warning, such as a division by a zero direction
    # component, fails the case too
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=projector_cases(), spacing=st.sampled_from([1.0, 1.25, 2.5]))
    def test_matches_full_grid_reference(self, case, spacing):
        mu, params = case
        got = radon_forward(mu, params, spacing).values
        assert np.array_equal(got, radon_reference(mu, params, spacing).values)

    def test_slack_absorbs_narrowed_intervals(self, monkeypatch):
        """No sample comes within rounding distance of the box edge in this
        geometry, so narrow every ray/box interval by 1e-3 instead: the
        step of slack at each end must still keep every non-zero sample."""
        slab = simulate._slab

        def narrowed(origin, direction, lo, hi):
            t0, t1 = slab(origin, direction, lo, hi)
            return t0 + 1e-3, t1 - 1e-3

        monkeypatch.setattr(simulate, "_slab", narrowed)
        rng = np.random.default_rng(12)
        for size, (r0, r1, c0, c1) in ((40, (9, 20, 14, 31)), (33, (3, 30, 5, 12)),
                                       (24, (11, 13, 2, 22))):
            # dense inside a box away from the image border, where
            # map_coordinates reads the margin's samples
            mu = np.zeros((size, size))
            mu[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0))
            params = SimParams(n_angles=36)
            assert np.array_equal(radon_forward(mu, params).values,
                                  radon_reference(mu, params).values)

    def test_zero_image(self):
        sino = radon_forward(np.zeros((32, 32)), SimParams(n_angles=16))
        np.testing.assert_array_equal(sino.values, 0.0)

    def test_rotational_symmetry_of_centered_disk(self):
        size = 97
        ys, xs = np.mgrid[0:size, 0:size]
        c = (size - 1) / 2
        r = np.sqrt((ys - c) ** 2 + (xs - c) ** 2)
        disk = 0.02 / (1.0 + np.exp((r - 22.0) / 3.0))   # flat core, smooth edge
        sino = radon_forward(disk, SimParams(n_angles=24), 1.0)
        mean_prof = sino.values.mean(axis=0)
        dev = np.abs(sino.values - mean_prof).max() / mean_prof.max()
        assert dev < 1e-3

    def test_single_pixel_mass_conservation(self):
        size, mu_val, spacing = 65, 0.5, 2.5
        mu = np.zeros((size, size))
        mu[32, 32] = mu_val
        sino = radon_forward(mu, SimParams(n_angles=32), spacing)
        mass = sino.values.sum(axis=1)
        expected = mu_val * spacing ** 2 / spacing
        assert np.abs(mass / expected - 1.0).max() < 0.02

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = rng.random((48, 48))
        b = rng.random((48, 48))
        p = SimParams(n_angles=12)
        combo = radon_forward(2.0 * a + 3.0 * b, p).values
        parts = 2.0 * radon_forward(a, p).values + 3.0 * radon_forward(b, p).values
        np.testing.assert_allclose(combo, parts, rtol=1e-6, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            radon_forward(np.zeros((8, 16)), SimParams())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        mu = np.zeros((8, 8))
        mu[3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            radon_forward(mu, SimParams())

    def test_nonnegative_for_nonnegative_input(self):
        rng = np.random.default_rng(1)
        sino = radon_forward(rng.random((32, 32)), SimParams(n_angles=16))
        assert (sino.values >= 0).all()


class TestFBP:
    def test_zero_sinogram(self):
        sino = Sinogram(values=np.zeros((16, 40)), spacing=1.0)
        np.testing.assert_array_equal(fbp_reconstruct(sino, 24), 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        s1 = rng.random((16, 40))
        s2 = rng.random((16, 40))
        left = fbp_reconstruct(Sinogram(2.0 * s1 + 0.5 * s2, 1.0), 24)
        right = (2.0 * fbp_reconstruct(Sinogram(s1, 1.0), 24)
                 + 0.5 * fbp_reconstruct(Sinogram(s2, 1.0), 24))
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_roundtrip_psnr_on_smooth_phantom(self):
        phantom = smooth_phantom(128, seed=3)
        mu = hu_to_mu(phantom)
        sino = radon_forward(mu, SimParams(n_angles=360), phantom.spacing)
        recon = fbp_reconstruct(sino, 128)
        assert psnr(mu_to_hu(recon), phantom.pixels, HU_MAX - HU_MIN) >= 30.0

    def test_constant_disk_level_recovered(self):
        size = 64
        ys, xs = np.mgrid[0:size, 0:size]
        c = (size - 1) / 2
        disk = (((ys - c) ** 2 + (xs - c) ** 2) <= 20 ** 2) * 0.02
        sino = radon_forward(disk, SimParams(n_angles=180), 1.25)
        recon = fbp_reconstruct(sino, size)
        inner = ((ys - c) ** 2 + (xs - c) ** 2) <= 14 ** 2
        assert abs(recon[inner].mean() - 0.02) < 0.0005


class TestSimulateMAPair:
    def test_no_metal_no_hardening_is_roundtrip(self):
        phantom = smooth_phantom(64, seed=4)
        # with an empty mask the beam hardening never runs
        ma = simulate_ma_pair(phantom, np.zeros((64, 64), bool), SimParams())
        assert psnr(ma.pixels, phantom.pixels, HU_MAX - HU_MIN) >= 30.0

    def test_metal_produces_streaks_outside_mask(self):
        rng = np.random.default_rng(5)
        phantom = jaw_phantom(64, rng)
        mask = random_metal_mask(phantom, rng)
        ma = simulate_ma_pair(phantom, mask, SimParams())
        diff = ma.pixels - phantom.pixels
        assert diff[~mask].std() > 0.0
        assert psnr(ma.pixels, phantom.pixels, HU_MAX - HU_MIN) < 35.0

    def test_mask_pixels_saturate_window(self):
        rng = np.random.default_rng(6)
        phantom = jaw_phantom(64, rng)
        mask = random_metal_mask(phantom, rng)
        ma = simulate_ma_pair(phantom, mask, SimParams())
        assert (ma.pixels[mask] >= 2800.0).all()
        assert ma.pixels.max() <= HU_MAX
        assert ma.pixels.min() >= HU_MIN

    def test_undersized_mask_rejected(self):
        phantom = smooth_phantom(64, seed=7)
        mask = np.zeros((64, 64), bool)
        mask[30:33, 30] = True          # 3 px: too small to count as an implant
        with pytest.raises(ValueError):
            simulate_ma_pair(phantom, mask, SimParams())

    def test_mask_shape_mismatch_rejected(self):
        phantom = smooth_phantom(64, seed=8)
        with pytest.raises(ValueError):
            simulate_ma_pair(phantom, np.zeros((32, 32), bool), SimParams())


class TestPhantoms:
    def test_jaw_phantom_window_and_teeth(self):
        rng = np.random.default_rng(9)
        ph = jaw_phantom(64, rng)
        assert ph.pixels.shape == (64, 64)
        assert ph.pixels.min() >= HU_MIN and ph.pixels.max() <= HU_MAX
        assert (ph.pixels > 1200.0).sum() > 20      # bright tooth structures exist

    def test_metal_mask_sizes(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ph = jaw_phantom(64, rng)
            mask = random_metal_mask(ph, rng)
            assert 10 <= mask.sum() <= 400


class TestMakeDataset:
    def test_file_count_and_manifest(self, tmp_path):
        out = tmp_path / "ds"
        manifest = make_dataset(4, 32, seed=1, out_dir=out)
        tensors = sorted(p.name for p in out.glob("*.mtsr"))
        assert len(tensors) == 8
        assert len(manifest.pairs) == 4
        loaded = load_manifest(out)
        assert [vars(p) for p in loaded.pairs] == [vars(p) for p in manifest.pairs]
        splits = {p.split for p in loaded.pairs}
        assert splits <= {"train", "val", "test"}
        assert all(p.mask_pixel_count >= 10 for p in loaded.pairs)

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        make_dataset(3, 32, seed=9, out_dir=a)
        make_dataset(3, 32, seed=9, out_dir=b)
        for pa in sorted(a.iterdir()):
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_ma_slices_meet_metal_criterion(self, tmp_path):
        out = tmp_path / "ds"
        manifest = make_dataset(3, 32, seed=2, out_dir=out)
        for record in manifest.pairs:
            ma, _clean = load_pair(out, record)[0], None
            assert (ma >= 2800.0).sum() >= 10

    def test_indivisible_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_dataset(2, 30, seed=0, out_dir=tmp_path / "x")

    def test_load_pair_returns_ma_then_clean(self, tmp_path):
        out = tmp_path / "ds"
        manifest = make_dataset(1, 32, seed=3, out_dir=out)
        ma, clean = load_pair(out, manifest.pairs[0])
        assert ma.shape == clean.shape == (32, 32)
        # the MA slice saturates at the implant, the clean slice need not
        assert (ma >= 2800.0).sum() >= 10
