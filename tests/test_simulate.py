"""Simulator tests: conversions, projection, reconstruction, MA pairs, datasets."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from ctmar import simulate
from ctmar.simulate import (
    FIELD_MM,
    HU_MAX,
    HU_MIN,
    SimParams,
    Sinogram,
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


@st.composite
def projector_cases(draw):
    """An image and SimParams. Images: all-zero, one pixel on a corner or
    an edge, a small blob of either sign anywhere, dense random, dense
    with negative values, a filled ellipse at any centre, axes and angle
    (the phantom's body), or two pixels in opposite corners, whose shadows
    reach the ends of the detector row; sizes 8-48. Angle counts are even
    (theta = pi/2 is sampled) and odd."""
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


def clip_polygon(polygon, a, b, c):
    """The part of ``polygon`` (a list of (x, y) vertices) where a x + b y <= c,
    by Sutherland-Hodgman: keep the inside vertices and add a vertex where an
    edge crosses the line."""
    out = []
    for k, p in enumerate(polygon):
        q = polygon[k - 1]
        fp, fq = a * p[0] + b * p[1] - c, a * q[0] + b * q[1] - c
        if (fp <= 0.0) != (fq <= 0.0):
            t = fq / (fq - fp)
            out.append((q[0] + t * (p[0] - q[0]), q[1] + t * (p[1] - q[1])))
        if fp <= 0.0:
            out.append(p)
    return out


def polygon_area(polygon):
    """The shoelace formula."""
    return 0.5 * abs(sum(p[0] * q[1] - q[0] * p[1]
                         for p, q in zip(polygon, polygon[1:] + polygon[:1])))


def strip_areas(size, row, col, n_angles):
    """The area of pixel (row, col)'s unit square inside each detector's strip
    of radon_forward's geometry, by clipping the square to the strip."""
    n_det = _default_detectors(size)
    center = (size - 1) / 2.0
    x, y = col - center, row - center
    square = [(x - 0.5, y - 0.5), (x + 0.5, y - 0.5), (x + 0.5, y + 0.5), (x - 0.5, y + 0.5)]
    areas = np.zeros((n_angles, n_det))
    for i in range(n_angles):
        theta = i * math.pi / n_angles
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        for j in range(n_det):
            lo = j - (n_det - 1) / 2.0 - 0.5
            strip = clip_polygon(clip_polygon(square, cos_t, sin_t, lo + 1.0),
                                 -cos_t, -sin_t, -lo)
            areas[i, j] = polygon_area(strip)
    return areas


def fbp_interp(sino, size):
    """fbp_reconstruct with np.interp's back-projection over a full coordinate
    grid per angle, zero outside the detector row: the oracle for the
    index-lookup loop."""
    n_angles, n_det = sino.values.shape
    padded = max(64, 1 << int(math.ceil(math.log2(2 * n_det))))
    spectrum = np.fft.rfft(sino.values / sino.spacing, n=padded, axis=1)
    spectrum *= np.fft.rfft(simulate._ramp_kernel(padded)).real
    filtered = np.fft.irfft(spectrum, n=padded, axis=1)[:, :n_det]
    center = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size]
    xs = xs - center
    ys = ys - center
    recon = np.zeros((size, size))
    for i, theta in enumerate(np.arange(n_angles) * math.pi / n_angles):
        t = xs * math.cos(theta) + ys * math.sin(theta) + (n_det - 1) / 2.0
        recon += np.interp(t.ravel(), np.arange(n_det), filtered[i],
                           left=0.0, right=0.0).reshape(size, size)
    return recon * (math.pi / n_angles)


def fill_ellipse_whole_grid(img, cy, cx, ry, rx, value, angle):
    """_fill_ellipse's test on every pixel of the image: the oracle for its window."""
    ys, xs = np.mgrid[0:img.shape[0], 0:img.shape[1]]
    y, x = ys - cy, xs - cx
    ca, sa = math.cos(angle), math.sin(angle)
    u = (x * ca + y * sa) / rx
    v = (-x * sa + y * ca) / ry
    img[u * u + v * v <= 1.0] = value


def metal_cases():
    """(mu, mask): jaw phantoms at 32, 64 and 128 with their metal inserted, as
    simulate_ma_pair projects them, and a disc cut by the image's corner, with
    metal and without; without, the disc lies in air, where mu is zero."""
    metal = simulate.MU_WATER * (1.0 + simulate.METAL_HU / 1000.0)
    for size in (32, 64, 128):
        rng = np.random.default_rng([21, size])
        clean = jaw_phantom(size, rng)
        mask = random_metal_mask(clean, rng)
        yield np.where(mask, metal, hu_to_mu(clean)), mask
    ys, xs = np.mgrid[0:64, 0:64]
    corner = ys ** 2 + (xs - 3) ** 2 <= 30
    body = hu_to_mu(jaw_phantom(64, np.random.default_rng(22)))
    assert not body[corner].any()
    yield np.where(corner, metal, body), corner
    yield body, corner


class TestRadonForward:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_single_pixel_matches_exact_strip_areas(self, data):
        """One unit pixel anywhere projects to the areas of its square inside
        each detector's strip, which polygon clipping computes independently."""
        size = data.draw(st.integers(8, 40), label="size")
        row, col = (data.draw(st.integers(0, size - 1), label=k) for k in ("row", "col"))
        n_angles = data.draw(st.integers(8, 25), label="n_angles")
        mu = np.zeros((size, size))
        mu[row, col] = 1.0
        got = radon_forward(mu, SimParams(n_angles=n_angles), 1.0).values
        assert np.abs(got - strip_areas(size, row, col, n_angles)).max() <= 1e-12

    # a floating-point warning, such as a division by a zero shadow edge,
    # fails the case too
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=projector_cases(), spacing=st.sampled_from([1.0, 1.25, 2.5]))
    def test_every_row_conserves_mass(self, case, spacing):
        """Each angle's row sums to mu.sum() * spacing, to within 1e-12 of the
        image's absolute mass (its mass, for an image of one sign)."""
        mu, params = case
        rows = radon_forward(mu, params, spacing).values.sum(axis=1)
        np.testing.assert_allclose(rows, mu.sum() * spacing, rtol=0.0,
                                   atol=1e-12 * np.abs(mu).sum() * spacing)

    def test_uniform_disc_matches_chord_lengths(self):
        """A uniform disc of radius 40 px at 128², 36 angles: every ray more
        than 2 px inside the rim is within 2 % of the central chord's 2 mu r of
        the exact line integral 2 mu sqrt(r^2 - t^2). The worst ray is off by
        0.0250 (the bilinear march this projector replaced: 0.0211) against a
        bound of 0.032. perfbench's synth check runs the same case."""
        size, radius, mu_disc = 128, 40.0, 0.02
        c = (size - 1) / 2.0
        ys, xs = np.mgrid[0:size, 0:size]
        disc = np.where((ys - c) ** 2 + (xs - c) ** 2 <= radius ** 2, mu_disc, 0.0)
        sino = radon_forward(disc, SimParams(n_angles=36), 1.0).values
        t = np.arange(sino.shape[1]) - (sino.shape[1] - 1) / 2.0
        inner = np.abs(t) <= radius - 2.0
        exact = 2.0 * mu_disc * np.sqrt(radius ** 2 - t[inner] ** 2)
        assert np.abs(sino[:, inner] - exact).max() <= 0.02 * 2.0 * mu_disc * radius

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

    def test_metal_trace_equals_projection_of_mask(self):
        """The hits summed in the image's own pass equal the mask's separate
        projection above 1e-9, and tracing leaves the sinogram's bytes alone,
        also for a mask in air, whose pixels the image alone does not project."""
        for mu, mask in metal_cases():
            params, spacing = SimParams(), FIELD_MM / mu.shape[0]
            traced = radon_forward(mu, params, spacing, traced=mask)
            expected = radon_forward(mask.astype(float), params, spacing).values > 1e-9
            np.testing.assert_array_equal(traced.hits, expected)
            np.testing.assert_array_equal(traced.values, radon_forward(mu, params, spacing).values)
            assert radon_forward(mu, params, spacing).hits is None

    def test_nonnegative_for_nonnegative_input(self):
        rng = np.random.default_rng(1)
        sino = radon_forward(rng.random((32, 32)), SimParams(n_angles=16), 1.0)
        assert (sino.values >= 0).all()


class TestFBP:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=projector_cases())
    def test_back_projection_equals_interp(self, case):
        """The index-lookup back-projection repeats np.interp's to the bit."""
        mu, params = case
        sino = radon_forward(mu, params, 1.0)
        size = mu.shape[0]
        np.testing.assert_array_equal(fbp_reconstruct(sino, size), fbp_interp(sino, size))

    def test_back_projection_equals_interp_on_jaw_phantom(self):
        mu = hu_to_mu(jaw_phantom(128, np.random.default_rng(23)))
        sino = radon_forward(mu, SimParams(), FIELD_MM / 128)
        np.testing.assert_array_equal(fbp_reconstruct(sino, 128), fbp_interp(sino, 128))

    def test_too_few_detectors_refused(self):
        with pytest.raises(ValueError, match="24x24 needs 34 detectors, got 30"):
            fbp_reconstruct(Sinogram(values=np.ones((16, 30)), spacing=1.0), 24)

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

    def test_peak_memory(self, traced_memory):
        """One 128² pair peaks at 2.24 MiB of numpy buffers and the phantom at
        0.65 MiB; perfbench's synth run has little memory headroom."""
        rng = np.random.default_rng(24)
        clean = jaw_phantom(128, rng)
        mask = random_metal_mask(clean, rng)
        assert traced_memory(lambda: simulate_ma_pair(clean, mask))[2] <= 2.5 * 2 ** 20
        assert traced_memory(lambda: jaw_phantom(128, rng))[2] <= 1.25 * 2 ** 20


class TestPhantoms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_windowed_fill_equals_whole_grid_fill(self, data):
        """Ellipses anywhere, also clipped by the image or outside it, fill the
        same pixels as the test on every pixel."""
        size = data.draw(st.integers(8, 64), label="size")
        centre = st.floats(-size / 2.0, 1.5 * size)
        radius = st.floats(0.3, float(size))
        cy, cx, ry, rx = (data.draw(s, label=k) for s, k in
                          ((centre, "cy"), (centre, "cx"), (radius, "ry"), (radius, "rx")))
        angle = data.draw(st.floats(0.0, 2.0 * math.pi), label="angle")
        img = np.random.default_rng(size).uniform(HU_MIN, HU_MAX, (size, size))
        expected = img.copy()
        simulate._fill_ellipse(img, cy, cx, ry, rx, 1234.5, angle=angle)
        fill_ellipse_whole_grid(expected, cy, cx, ry, rx, 1234.5, angle)
        np.testing.assert_array_equal(img, expected)

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

    def test_seeds_share_no_clean_slice(self, tmp_path):
        """Datasets from seeds 0-7, 2 pairs each, hold 16 different clean
        slices: no two (seed, pair) draws share a generator."""
        digests = set()
        for seed in range(8):
            out = tmp_path / str(seed)
            make_dataset(2, 16, seed=seed, out_dir=out)
            digests |= {p.read_bytes() for p in out.glob("*_clean.mtsr")}
        assert len(digests) == 16

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
