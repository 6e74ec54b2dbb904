"""Uniform linear array geometry: element positions, steering phases,
response vectors, phase differences and the cosine alignment test.

Angles are accepted in degrees everywhere and converted to radians
internally.  Antennas are indexed n = 0..N-1 and the phase reference is
the array center, so elements n and N-1-n carry opposite phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COS_ALIGN_TOL = 1e-12


@dataclass(frozen=True)
class ArrayConfig:
    """Transmit array geometry.

    Attributes
    ----------
    n_antennas : int
        Number of elements N, at least 2.
    spacing_over_wavelength : float
        Element spacing d/lambda in (0, 0.5]; default half wavelength.  Wider
        spacing admits grating lobes: full coupling to directions of another
        cosine, which the alignment labels would miss.
    """

    n_antennas: int
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        if self.n_antennas < 2:
            raise ValueError(f"n_antennas must be >= 2, got {self.n_antennas}")
        check_spacing(self.spacing_over_wavelength)


def check_spacing(spacing: float, name: str = "spacing_over_wavelength"):
    """Raise ValueError, naming the setting, unless 0 < spacing <= 0.5."""
    if not 0 < spacing <= 0.5:
        raise ValueError(
            f"{name} must lie in (0, 0.5], as wider spacing creates grating lobes; got {spacing}"
        )


def centered_indices(n: int) -> np.ndarray:
    """Element positions (N-1)/2 - n about the array center, n = 0..N-1."""
    return (n - 1) / 2.0 - np.arange(n)


def steering_phase(n, cfg: ArrayConfig, theta_deg):
    """Phase shift (radians) of antenna n when steering toward theta_deg.

    Returns ((N-1)/2 - n) * 2*pi * (d/lambda) * cos(theta).  `n` may be an
    integer or an index array.
    """
    n = np.asarray(n)
    if np.any(n < 0) or np.any(n >= cfg.n_antennas):
        raise ValueError(f"antenna index out of range 0..{cfg.n_antennas - 1}")
    centered = centered_indices(cfg.n_antennas)[n]
    return centered * 2.0 * np.pi * cfg.spacing_over_wavelength * np.cos(np.deg2rad(theta_deg))


def steering_phases(cfg: ArrayConfig, theta_deg):
    """All N steering phases toward theta_deg as a float vector."""
    return steering_phase(np.arange(cfg.n_antennas), cfg, theta_deg)


def array_response(cfg: ArrayConfig, theta_deg) -> np.ndarray:
    """Unit-norm array response a(theta), entries (1/sqrt(N)) e^{j phase}; also
    the full-array beam steered at theta."""
    return np.exp(1j * steering_phases(cfg, theta_deg)) / np.sqrt(cfg.n_antennas)


def phase_diff(theta_x_deg, theta_e_deg, cfg: ArrayConfig):
    """gamma(theta_x, theta_e) = 2 pi (d/lambda) (cos theta_x - cos theta_e);
    either angle may be an array."""
    return (
        2.0
        * np.pi
        * cfg.spacing_over_wavelength
        * (np.cos(np.deg2rad(theta_x_deg)) - np.cos(np.deg2rad(theta_e_deg)))
    )


def cos_aligned(theta_a_deg, theta_b_deg):
    """Alignment event: the two angles share a cosine within tolerance;
    array angles broadcast to a boolean array."""
    return abs(np.cos(np.deg2rad(theta_a_deg)) - np.cos(np.deg2rad(theta_b_deg))) < COS_ALIGN_TOL
