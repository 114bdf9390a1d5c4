"""Tests for the retinal vessel segmentation application and its VCGRA mapping."""

import numpy as np
import pytest

from repro.apps.filters import (
    convolve2d,
    gaussian_kernel,
    matched_filter_kernels,
    texture_kernel,
    threshold_image,
)
from repro.apps.images import generate_fundus
from repro.apps.mapping import VCGRAFilterEngine, kernel_to_applications
from repro.apps.preprocessing import (
    extract_green_channel,
    histogram_equalization,
    preprocess,
    remove_optic_disc,
    remove_outer_region,
)
from repro.apps.retina import RetinalVesselSegmentation, SegmentationConfig
from repro.core.grid import VCGRAArchitecture
from repro.core.pe import ProcessingElementSpec
from repro.flopoco.format import FPFormat


class TestSyntheticFundus:
    def test_generation_is_reproducible(self):
        a = generate_fundus(size=48, seed=3)
        b = generate_fundus(size=48, seed=3)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.vessel_mask, b.vessel_mask)

    def test_shapes_and_ranges(self):
        f = generate_fundus(size=64, seed=1)
        assert f.rgb.shape == (64, 64, 3)
        assert f.vessel_mask.shape == (64, 64)
        assert 0.0 <= f.rgb.min() and f.rgb.max() <= 1.0
        assert f.vessel_mask.sum() > 0
        assert f.fov_mask.sum() > 0.5 * 64 * 64 * 0.5

    def test_vessels_are_dark_in_green_channel(self):
        f = generate_fundus(size=64, seed=2)
        green = f.rgb[:, :, 1]
        vessels = green[f.vessel_mask]
        background = green[f.fov_mask & ~f.vessel_mask]
        assert vessels.mean() < background.mean()

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            generate_fundus(size=8)


class TestPreprocessing:
    def test_green_channel_extraction(self):
        f = generate_fundus(size=32, seed=0)
        green = extract_green_channel(f.rgb)
        assert np.array_equal(green, f.rgb[:, :, 1])
        with pytest.raises(ValueError):
            extract_green_channel(np.zeros((4, 4)))

    def test_histogram_equalization_spreads_values(self):
        rng = np.random.default_rng(0)
        img = 0.4 + 0.05 * rng.random((32, 32))
        eq = histogram_equalization(img)
        assert eq.max() - eq.min() > (img.max() - img.min())

    def test_histogram_equalization_constant_image(self):
        img = np.full((16, 16), 0.5)
        assert np.array_equal(histogram_equalization(img), img)

    def test_optic_disc_removal_reduces_peak(self):
        f = generate_fundus(size=64, seed=4)
        green = f.rgb[:, :, 1]
        removed, center = remove_optic_disc(green, mask=f.fov_mask)
        cy, cx = center
        # detected disc centre should be near the true one
        true_cy, true_cx = f.optic_disc_center
        assert abs(cy - true_cy) < 12 and abs(cx - true_cx) < 12
        assert removed.max() <= green.max()

    def test_outer_region_removal(self):
        f = generate_fundus(size=48, seed=0)
        out = remove_outer_region(f.rgb[:, :, 1], f.fov_mask, border=2)
        outside = out[~f.fov_mask]
        assert np.allclose(outside, outside[0])

    def test_full_preprocess_masks_outside(self):
        f = generate_fundus(size=48, seed=0)
        pre = preprocess(f.rgb, f.fov_mask)
        assert pre.shape == f.rgb[:, :, 1].shape
        assert np.allclose(pre[~f.fov_mask], 0.0)


class TestFilters:
    def test_gaussian_kernel_properties(self):
        k = gaussian_kernel(5)
        assert k.shape == (5, 5)
        assert k.sum() == pytest.approx(1.0)
        assert k[2, 2] == k.max()
        with pytest.raises(ValueError):
            gaussian_kernel(4)

    def test_matched_filter_bank(self):
        kernels = matched_filter_kernels(size=16, orientations=7)
        assert len(kernels) == 7
        for k in kernels:
            assert k.shape == (16, 16)
            assert abs(k[k != 0].mean()) < 1e-6  # zero-mean on support

    def test_matched_filter_responds_to_oriented_line(self):
        kernels = matched_filter_kernels(size=15, sigma=1.5, orientations=4)
        img = np.zeros((31, 31))
        img[15, :] = 1.0  # horizontal bright line
        responses = [convolve2d(img, k)[15, 15] for k in kernels]
        # the horizontally-oriented kernel (index 0) must respond the most
        assert int(np.argmax(responses)) == 0

    def test_texture_kernel_zero_mean(self):
        k = texture_kernel(9, thickness=2.0)
        assert abs(k.sum()) < 1e-9
        with pytest.raises(ValueError):
            texture_kernel(2)

    def test_convolve2d_matches_manual_dot(self):
        rng = np.random.default_rng(0)
        img = rng.random((12, 12))
        k = rng.random((3, 3))
        out = convolve2d(img, k)
        manual = sum(
            img[4 + di, 7 + dj] * k[1 + di, 1 + dj]
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
        )
        assert out[4, 7] == pytest.approx(manual)
        assert out.shape == img.shape

    def test_threshold_percentile(self):
        img = np.arange(100, dtype=float).reshape(10, 10)
        mask = threshold_image(img, percentile=90)
        assert mask.sum() == 10


class TestKernelMapping:
    def arch(self, rows=4, cols=4):
        return VCGRAArchitecture(rows=rows, cols=cols,
                                 pe_spec=ProcessingElementSpec(fmt=FPFormat(6, 14)))

    def test_small_kernel_single_configuration(self):
        apps = kernel_to_applications(list(range(12)), self.arch())
        assert len(apps) == 1
        app, taps = apps[0]
        assert len(taps) == 12
        assert len(app.operations) == 12

    def test_large_kernel_splits_into_configurations(self):
        apps = kernel_to_applications(list(range(25)), self.arch())
        assert len(apps) == 2  # 16 + 9 taps
        total = sum(len(taps) for _, taps in apps)
        assert total == 25

    def test_engine_matches_numpy_small_kernel(self):
        rng = np.random.default_rng(5)
        img = rng.random((10, 10))
        kernel = gaussian_kernel(3)
        engine = VCGRAFilterEngine(kernel, arch=self.arch())
        got = engine.apply(img)
        want = convolve2d(img, kernel)
        assert np.allclose(got, want, atol=1e-3)

    def test_engine_matches_numpy_multi_configuration_kernel(self):
        rng = np.random.default_rng(6)
        img = rng.random((8, 8))
        kernel = rng.normal(size=(5, 5))  # 25 taps -> 2 configurations on 4x4
        engine = VCGRAFilterEngine(kernel, arch=self.arch())
        got = engine.apply(img)
        want = convolve2d(img, kernel)
        assert np.allclose(got, want, atol=2e-3)
        assert engine.report.num_configurations == 2

    def test_engine_window_validation(self):
        engine = VCGRAFilterEngine(gaussian_kernel(3), arch=self.arch())
        with pytest.raises(ValueError):
            engine.apply_window(np.zeros((2, 2)))

    def test_reconfiguration_cost_scales_with_configurations(self):
        small = VCGRAFilterEngine(gaussian_kernel(3), arch=self.arch())
        large = VCGRAFilterEngine(np.ones((5, 5)), arch=self.arch())
        assert large.reconfiguration_time_ms() > small.reconfiguration_time_ms()


class TestPipeline:
    def test_numpy_pipeline_segments_vessels(self):
        fundus = generate_fundus(size=72, seed=7, vessel_depth=0.4)
        pipeline = RetinalVesselSegmentation(SegmentationConfig(
            matched_size=11, texture_size=7, denoise_sizes=(5,), orientations=5))
        result = pipeline.run(fundus)
        metrics = result.metrics(fundus.vessel_mask, fundus.fov_mask)
        # A matched-filter pipeline on clean synthetic data must do much
        # better than chance at picking up vessel pixels.
        assert metrics["sensitivity"] > 0.35
        assert metrics["specificity"] > 0.7
        assert metrics["accuracy"] > 0.7

    def test_pipeline_records_stage_times(self):
        fundus = generate_fundus(size=48, seed=1)
        pipeline = RetinalVesselSegmentation(SegmentationConfig(
            matched_size=9, texture_size=5, denoise_sizes=(5,), orientations=3))
        result = pipeline.run(fundus)
        for stage in ("preprocess", "denoise", "matched_filters", "texture", "threshold"):
            assert stage in result.stage_seconds

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            RetinalVesselSegmentation(SegmentationConfig(backend="tpu"))

    def test_vcgra_backend_matches_numpy_backend(self):
        fundus = generate_fundus(size=24, seed=2)
        cfg_np = SegmentationConfig(
            denoise_sizes=(3,), matched_size=5, texture_size=3,
            orientations=2, backend="numpy")
        cfg_hw = SegmentationConfig(
            denoise_sizes=(3,), matched_size=5, texture_size=3,
            orientations=2, backend="vcgra", fmt=FPFormat(6, 18))
        res_np = RetinalVesselSegmentation(cfg_np).run(fundus)
        res_hw = RetinalVesselSegmentation(cfg_hw).run(fundus)
        # FloPoCo arithmetic is lower precision than float64 but the responses
        # must agree closely and the final masks should be nearly identical.
        assert np.allclose(res_hw.matched_response, res_np.matched_response, atol=5e-3)
        disagreement = np.count_nonzero(res_hw.vessel_mask != res_np.vessel_mask)
        assert disagreement <= 0.02 * res_np.vessel_mask.size
