"""Simulator tests: conversions, projection, reconstruction, MA pairs, datasets."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, map_coordinates

from ctmar import simulate
from ctmar.simulate import (
    FIELD_MM,
    HU_MAX,
    HU_MIN,
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
        np.testing.assert_allclose(hu_to_mu(np.full((4, 4), -1000.0)), 0.0)

    def test_water(self):
        np.testing.assert_allclose(hu_to_mu(np.zeros((4, 4))), 0.0192)

    def test_window_top(self):
        np.testing.assert_allclose(hu_to_mu(np.full((2, 2), 2800.0)), 0.0192 * 3.8)

    def test_clipping_applies_before_conversion(self):
        mu = hu_to_mu(np.array([[30000.0, -5000.0]] * 2))
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
    an edge, a small blob of either sign anywhere, dense random, dense
    with negative values, a filled ellipse at any centre, axes and angle
    (the phantom's body), or two pixels in opposite corners (where the
    diagonal half-planes bind); sizes 8-48. Angle counts are even (theta =
    pi/2 is sampled) and odd."""
    size = draw(st.integers(8, 48))
    kind = draw(st.sampled_from(["zero", "pixel", "blob", "dense", "negative", "ellipse",
                                 "corners"]))
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
    elif kind == "ellipse":
        cy, cx = rng.uniform(0.0, size - 1.0, 2)
        ry, rx = rng.uniform(1.0, size / 2.0, 2)
        simulate._fill_ellipse(mu, cy, cx, ry, rx, rng.uniform(0.1, 2.0),
                               angle=rng.uniform(0.0, math.pi))
    elif kind == "corners":
        c0, c1 = (0, size - 1) if draw(st.booleans()) else (size - 1, 0)
        mu[0, c0], mu[size - 1, c1] = rng.uniform(0.1, 2.0, 2)
    return mu, SimParams(n_angles=draw(st.integers(8, 25)))


def phantom_with_metal(seed, size=128):
    """A jaw phantom's attenuation with an implant inserted as simulate_ma_pair
    inserts it, and the implant's mask."""
    rng = np.random.default_rng(seed)
    clean = jaw_phantom(size, rng)
    mask = random_metal_mask(clean, rng)
    mu = hu_to_mu(clean)
    mu[mask] = simulate.MU_WATER * (1.0 + simulate.METAL_HU / 1000.0)
    return mu, mask


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
        """No sample comes within rounding distance of a half-plane's edge in
        this geometry, so narrow every ray/half-plane interval by 1e-3
        instead: the step of slack at each end must still keep every
        non-zero sample. A disc's diagonal half-planes cut its box's
        corners, so its case narrows those too."""
        slab = simulate._slab

        def narrowed(origin, direction, lo, hi):
            t0, t1 = slab(origin, direction, lo, hi)
            return t0 + 1e-3, t1 - 1e-3

        monkeypatch.setattr(simulate, "_slab", narrowed)
        rng = np.random.default_rng(12)
        supports = []
        for size, (r0, r1, c0, c1) in ((40, (9, 20, 14, 31)), (33, (3, 30, 5, 12)),
                                       (24, (11, 13, 2, 22))):
            support = np.zeros((size, size), dtype=bool)
            support[r0:r1, c0:c1] = True
            supports.append(support)
        ys, xs = np.mgrid[0:40, 0:40]
        supports.append((ys - 19.3) ** 2 + (xs - 21.7) ** 2 <= 9.0 ** 2)
        for support in supports:
            # dense inside a box or a disc away from the image border, where
            # map_coordinates reads the margin's samples
            mu = np.zeros(support.shape)
            mu[support] = rng.random(support.sum())
            params = SimParams(n_angles=36)
            assert np.array_equal(radon_forward(mu, params, 1.0).values,
                                  radon_reference(mu, params).values)

    def test_matches_full_grid_reference_on_a_phantom(self):
        """The dataset's traffic: a 128² phantom with its implant, and the
        implant's mask, at the default 180 angles."""
        mu, mask = phantom_with_metal(0)
        spacing = FIELD_MM / 128
        for image in (mu, mask.astype(np.float64)):
            assert np.array_equal(radon_forward(image, SimParams(), spacing).values,
                                  radon_reference(image, SimParams(), spacing).values)

    def test_samples_are_mostly_non_zero(self, monkeypatch):
        """The projector's useful work over its attempted work: at least 93 %
        of the samples it passes to _bilinear for 128² phantoms with an
        implant are non-zero. The non-zero pixels' bounding box kept 81-82 %."""
        bilinear = simulate._bilinear
        kept = non_zero = 0

        def counting(mu, rows, cols):
            nonlocal kept, non_zero
            out = bilinear(mu, rows, cols)
            kept += out.size
            non_zero += np.count_nonzero(out)
            return out

        monkeypatch.setattr(simulate, "_bilinear", counting)
        for seed in range(4):
            radon_forward(phantom_with_metal(seed)[0], SimParams(), FIELD_MM / 128)
        assert non_zero / kept >= 0.93

    def test_zero_image(self):
        sino = radon_forward(np.zeros((32, 32)), SimParams(n_angles=16), 1.0)
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
        combo = radon_forward(2.0 * a + 3.0 * b, p, 1.0).values
        parts = 2.0 * radon_forward(a, p, 1.0).values + 3.0 * radon_forward(b, p, 1.0).values
        np.testing.assert_allclose(combo, parts, rtol=1e-6, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            radon_forward(np.zeros((8, 16)), SimParams(), 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        mu = np.zeros((8, 8))
        mu[3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            radon_forward(mu, SimParams(), 1.0)

    def test_nonnegative_for_nonnegative_input(self):
        rng = np.random.default_rng(1)
        sino = radon_forward(rng.random((32, 32)), SimParams(n_angles=16), 1.0)
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
        sino = radon_forward(mu, SimParams(n_angles=360), FIELD_MM / 128)
        recon = fbp_reconstruct(sino, 128)
        assert psnr(mu_to_hu(recon), phantom, HU_MAX - HU_MIN) >= 30.0

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
    def test_metal_produces_streaks_outside_mask(self):
        rng = np.random.default_rng(5)
        phantom = jaw_phantom(64, rng)
        mask = random_metal_mask(phantom, rng)
        ma = simulate_ma_pair(phantom, mask)
        diff = ma - phantom
        assert diff[~mask].std() > 0.0
        assert psnr(ma, phantom, HU_MAX - HU_MIN) < 35.0

    def test_mask_pixels_saturate_window(self):
        rng = np.random.default_rng(6)
        phantom = jaw_phantom(64, rng)
        mask = random_metal_mask(phantom, rng)
        ma = simulate_ma_pair(phantom, mask)
        assert (ma[mask] >= 2800.0).all()
        assert ma.max() <= HU_MAX
        assert ma.min() >= HU_MIN

    def test_undersized_mask_rejected(self):
        phantom = smooth_phantom(64, seed=7)
        for n_pixels in (0, 3):         # too few to count as an implant
            mask = np.zeros((64, 64), bool)
            mask[30:30 + n_pixels, 30] = True
            with pytest.raises(ValueError, match=f"has {n_pixels} pixels"):
                simulate_ma_pair(phantom, mask)

    def test_mask_shape_mismatch_rejected(self):
        phantom = smooth_phantom(64, seed=8)
        with pytest.raises(ValueError):
            simulate_ma_pair(phantom, np.zeros((32, 32), bool))


class TestPhantoms:
    @pytest.mark.parametrize("size", range(8, 257, 8))
    def test_gaussian_blur_bit_equal_to_scipy(self, size):
        """The phantoms' numpy blur under both sigma rules (jaw_phantom's and
        smooth_phantom's) repeats scipy's gaussian_filter to the last bit."""
        img = np.random.default_rng(size).uniform(HU_MIN, HU_MAX, size=(size, size))
        for sigma in (max(0.6, size / 128.0), size / 48.0):
            np.testing.assert_array_equal(simulate._gaussian_blur(img, sigma).view(np.int64),
                                          gaussian_filter(img, sigma).view(np.int64))

    def test_jaw_phantom_window_and_teeth(self):
        rng = np.random.default_rng(9)
        ph = jaw_phantom(64, rng)
        assert ph.shape == (64, 64)
        assert ph.min() >= HU_MIN and ph.max() <= HU_MAX
        assert (ph > 1200.0).sum() > 20      # bright tooth structures exist

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
            ma, _clean = load_pair(out, record, manifest.size)[0], None
            assert (ma >= 2800.0).sum() >= 10

    def test_indivisible_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_dataset(2, 30, seed=0, out_dir=tmp_path / "x")

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_manifest_refused(self, tmp_path, data):
        """Drop, retype or change one field of the top level or of one pair of
        a written manifest: load_manifest refuses it with a ValueError naming
        the manifest, unless the JSON is unchanged. The seed and a pair's
        mask_pixel_count record how the data were drawn, which the files cannot
        confirm, so another integer there loads."""
        out = tmp_path / "ds"
        if not out.exists():
            make_dataset(3, 8, seed=4, out_dir=out)
            (tmp_path / "good.json").write_bytes((out / "manifest.json").read_bytes())
        good = json.loads((tmp_path / "good.json").read_text())
        edited = json.loads((tmp_path / "good.json").read_text())
        where = data.draw(st.sampled_from(["top", 0, 1, 2]), label="where")
        target = edited if where == "top" else edited["pairs"][where]
        key = data.draw(st.sampled_from(sorted(target)), label="field")
        old = target[key]
        retyped = [json.dumps(old), [old], {"value": old}, None]
        retyped += [float(old), bool(old)] if type(old) is int else []
        retyped += [int(old)] if type(old) is float else []
        seen = [v for k, v in good.items() if k != "pairs"] + \
            [v for pair in good["pairs"] for v in pair.values()]
        action = data.draw(st.sampled_from(["drop", "retype", "change"]), label="action")
        if action == "drop":
            del target[key]
        else:
            target[key] = data.draw(st.sampled_from(retyped) if action == "retype" else st.one_of(
                st.sampled_from(seen), st.integers(-3, 10 ** 6), st.text(max_size=20),
                st.floats(allow_nan=False, allow_infinity=False),
                st.lists(st.integers(0, 3), max_size=3)), label="value")
        (out / "manifest.json").write_text(json.dumps(edited))
        unchecked = key in ("seed", "mask_pixel_count") and type(target.get(key)) is int
        if json.dumps(edited, sort_keys=True) == json.dumps(good, sort_keys=True) or unchecked:
            load_manifest(out)
        else:
            with pytest.raises(ValueError, match=re.escape(f"{out / 'manifest.json'}: ")):
                load_manifest(out)

    @pytest.mark.parametrize("text", [b"{not json", b'{"size": "\xff"}', b"[" * 100_000],
                             ids=["not-json", "not-utf8", "nested"])
    def test_unreadable_manifest_refused(self, tmp_path, text):
        """A manifest that is not UTF-8 JSON is refused with a ValueError
        that starts with its path, like every other manifest refusal."""
        out = tmp_path / "ds"
        make_dataset(1, 8, seed=1, out_dir=out)
        (out / "manifest.json").write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(f"{out / 'manifest.json'}: not UTF-8 JSON")):
            load_manifest(out)

    @pytest.mark.parametrize("link_to", ["0001_clean.mtsr", "0002_ma.mtsr", "../outside.mtsr"])
    def test_linked_slice_refused(self, tmp_path, link_to):
        """A slice file linked to another of the dataset's slices, or out of its
        directory, is refused, though the manifest names it as make_dataset does."""
        out = tmp_path / "ds"
        make_dataset(3, 8, seed=1, out_dir=out)
        (tmp_path / "outside.mtsr").write_bytes((out / "0001_clean.mtsr").read_bytes())
        (out / "0002_clean.mtsr").unlink()
        (out / "0002_clean.mtsr").symlink_to(link_to)
        with pytest.raises(ValueError, match="name a file twice or outside"):
            load_manifest(out)

    def test_load_pair_returns_ma_then_clean(self, tmp_path):
        out = tmp_path / "ds"
        manifest = make_dataset(1, 32, seed=3, out_dir=out)
        ma, clean = load_pair(out, manifest.pairs[0], manifest.size)
        assert ma.shape == clean.shape == (32, 32)
        # the MA slice saturates at the implant, the clean slice need not
        assert (ma >= 2800.0).sum() >= 10
