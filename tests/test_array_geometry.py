"""Unit tests for the uniform-linear-array geometry helpers."""

import numpy as np
import pytest

from mmwsec.analysis import dirichlet_B
from mmwsec.array_geometry import ArrayConfig, array_response, steering_phase, steering_phases


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(1)
    with pytest.raises(ValueError):
        ArrayConfig(8, spacing_over_wavelength=0.0)
    cfg = ArrayConfig(8)
    assert cfg.spacing_over_wavelength == 0.5


def test_config_rejects_grating_lobe_spacing():
    # Beyond half a wavelength the beam couples fully to a second direction:
    # at d/lambda = 1 a path at 60 deg gives |B| = N at 120 deg, whose cosine
    # differs, so the alignment labels would call that symbol unaligned.
    assert ArrayConfig(8, spacing_over_wavelength=0.5).spacing_over_wavelength == 0.5
    for spacing in (0.51, 1.0):
        with pytest.raises(ValueError, match="grating lobes"):
            ArrayConfig(8, spacing_over_wavelength=spacing)


def test_steering_phase_broadside_is_zero():
    cfg = ArrayConfig(16)
    for n in (0, 7, 15):
        assert steering_phase(n, cfg, 90.0) == pytest.approx(0.0, abs=1e-12)


def test_steering_phase_two_element_endfire():
    # N=2, d/lambda=0.5, theta=0: phases are +/- pi/2
    cfg = ArrayConfig(2)
    assert steering_phase(0, cfg, 0.0) == pytest.approx(np.pi / 2)
    assert steering_phase(1, cfg, 0.0) == pytest.approx(-np.pi / 2)


def test_steering_phase_center_symmetry():
    cfg = ArrayConfig(32)
    for theta in (10.0, 40.0, 123.4):
        assert steering_phase(15, cfg, theta) == pytest.approx(
            -steering_phase(16, cfg, theta)
        )


def test_steering_phase_index_range():
    cfg = ArrayConfig(4)
    with pytest.raises(ValueError):
        steering_phase(4, cfg, 40.0)
    with pytest.raises(ValueError):
        steering_phase(-1, cfg, 40.0)


def test_array_response_unit_norm_and_conjugate_symmetry():
    cfg = ArrayConfig(32)
    for theta in (1.0, 40.0, 90.0, 179.0):
        a = array_response(cfg, theta)
        assert np.vdot(a, a).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(a, np.conj(a[::-1]), atol=1e-12)


def test_array_response_broadside_entries():
    cfg = ArrayConfig(16)
    a = array_response(cfg, 90.0)
    assert np.allclose(a, np.full(16, 1 / 4.0), atol=1e-12)


def test_coupling_matches_interception_kernel():
    # |a(t1)^H a(t2)| * N reproduces the direct kernel summation
    cfg = ArrayConfig(32)
    rng = np.random.default_rng(7)
    for _ in range(50):
        t1, t2 = rng.uniform(1, 180, size=2)
        coupled = np.vdot(array_response(cfg, t1), array_response(cfg, t2))
        assert abs(coupled) * 32 == pytest.approx(
            abs(dirichlet_B(t1, t2, cfg)), abs=1e-9
        )


def test_steered_weights_coherent_gain():
    for n in (2, 16, 32, 64):
        cfg = ArrayConfig(n)
        for theta in (1.0, 40.0, 55.0, 90.0, 180.0):
            w = array_response(cfg, theta)
            assert np.vdot(array_response(cfg, theta), w) == pytest.approx(1.0 + 0.0j, abs=1e-12)
            assert np.allclose(np.abs(w), 1 / np.sqrt(n), atol=1e-12)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_two_element_cross_coupling_null():
    # hand evaluation: a(0)^H w(90) = (e^{j pi/2} + e^{-j pi/2}) / 2 = 0
    cfg = ArrayConfig(2)
    assert np.vdot(array_response(cfg, 0.0), array_response(cfg, 90.0)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_steering_phases_vector_matches_scalar():
    cfg = ArrayConfig(8)
    phases = steering_phases(cfg, 33.0)
    for n in range(8):
        assert phases[n] == pytest.approx(steering_phase(n, cfg, 33.0))
