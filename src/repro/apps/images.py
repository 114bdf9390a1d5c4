"""Synthetic fundus image generation.

The paper evaluates on retinal fundus photographs (the standard public sets
are DRIVE/STARE-like images), which we cannot redistribute.  The segmentation
pipeline only relies on two structural properties of those images:

* vessels are dark, curvilinear structures whose cross-section is
  approximately Gaussian (the basis of the matched-filter approach of
  Chaudhuri et al. that the paper implements), and
* the background is a bright, roughly circular field of view with a brighter
  optic disc and smooth illumination gradients.

The generator below synthesizes RGB images with exactly those properties --
a textured circular fundus, an optic disc, and a branching vessel tree drawn
with Gaussian profiles -- together with the ground-truth vessel mask, which
real datasets provide only through manual annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SyntheticFundus", "generate_fundus"]


@dataclass
class SyntheticFundus:
    """A generated fundus image plus its ground truth."""

    rgb: np.ndarray          #: (H, W, 3) float64 in [0, 1]
    vessel_mask: np.ndarray  #: (H, W) bool ground-truth vessel map
    fov_mask: np.ndarray     #: (H, W) bool field-of-view (circular aperture)
    optic_disc_center: Tuple[float, float]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.rgb.shape[:2]


def _draw_vessel_segment(
    intensity: np.ndarray,
    mask: np.ndarray,
    start: np.ndarray,
    direction: np.ndarray,
    length: float,
    width: float,
    depth: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw one vessel segment as a sequence of Gaussian cross-section stamps."""
    h, w = intensity.shape
    yy, xx = np.mgrid[0:h, 0:w]
    pos = start.astype(np.float64).copy()
    d = direction / (np.linalg.norm(direction) + 1e-12)
    steps = int(length)
    for _ in range(steps):
        # meander slightly, like a real vessel
        angle = rng.normal(0.0, 0.08)
        c, s = np.cos(angle), np.sin(angle)
        d = np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])
        pos += d
        if not (0 <= pos[0] < h and 0 <= pos[1] < w):
            break
        dist2 = (yy - pos[0]) ** 2 + (xx - pos[1]) ** 2
        stamp = np.exp(-dist2 / (2.0 * width**2))
        intensity -= depth * stamp
        mask |= dist2 <= (1.2 * width) ** 2
    return pos, d


def generate_fundus(
    size: int = 96,
    num_vessels: int = 5,
    branching: int = 2,
    vessel_width: float = 1.4,
    vessel_depth: float = 0.35,
    noise_sigma: float = 0.02,
    seed: int = 0,
) -> SyntheticFundus:
    """Generate a synthetic fundus image with ground-truth vessel mask.

    Parameters
    ----------
    size:
        Image side length in pixels (square images).
    num_vessels:
        Number of primary vessels radiating from the optic disc.
    branching:
        Number of child branches spawned per primary vessel.
    vessel_width:
        Gaussian cross-section sigma of the primary vessels, in pixels.
    vessel_depth:
        Contrast of vessels against the background (larger = darker vessels).
    noise_sigma:
        Standard deviation of the additive Gaussian sensor noise.
    seed:
        RNG seed; every call with the same arguments is reproducible.
    """
    if size < 16:
        raise ValueError("fundus images below 16x16 pixels are not meaningful")
    rng = np.random.default_rng(seed)
    h = w = size
    yy, xx = np.mgrid[0:h, 0:w]
    center = np.array([h / 2.0, w / 2.0])
    radius = 0.48 * size

    # Field of view and smooth background illumination.
    dist = np.sqrt((yy - center[0]) ** 2 + (xx - center[1]) ** 2)
    fov = dist <= radius
    background = 0.55 + 0.18 * np.exp(-dist**2 / (2.0 * (0.8 * radius) ** 2))
    background += 0.03 * np.sin(2 * np.pi * xx / size) * np.cos(2 * np.pi * yy / size)

    # Optic disc: a bright blob offset from the centre.
    disc_center = center + np.array([0.0, 0.55 * radius * rng.choice([-1.0, 1.0])])
    disc = 0.25 * np.exp(
        -((yy - disc_center[0]) ** 2 + (xx - disc_center[1]) ** 2) / (2.0 * (0.09 * size) ** 2)
    )
    green = background + disc

    vessel_mask = np.zeros((h, w), dtype=bool)
    for v in range(num_vessels):
        angle = 2 * np.pi * (v / num_vessels) + rng.normal(0, 0.2)
        direction = np.array([np.sin(angle), np.cos(angle)])
        start = disc_center + direction * 2.0
        end_pos, end_dir = _draw_vessel_segment(
            green, vessel_mask, start, direction, length=0.8 * radius,
            width=vessel_width, depth=vessel_depth, rng=rng,
        )
        for _ in range(branching):
            branch_angle = rng.normal(0.0, 0.6)
            c, s = np.cos(branch_angle), np.sin(branch_angle)
            branch_dir = np.array(
                [c * end_dir[0] - s * end_dir[1], s * end_dir[0] + c * end_dir[1]]
            )
            _draw_vessel_segment(
                green, vessel_mask, end_pos.copy(), branch_dir, length=0.4 * radius,
                width=0.7 * vessel_width, depth=0.8 * vessel_depth, rng=rng,
            )

    green += rng.normal(0.0, noise_sigma, size=green.shape)
    green = np.clip(green, 0.0, 1.0)
    green[~fov] = 0.02

    red = np.clip(green * 1.35 + 0.08, 0, 1)
    blue = np.clip(green * 0.45, 0, 1)
    rgb = np.stack([red, green, blue], axis=-1)
    vessel_mask &= fov

    return SyntheticFundus(
        rgb=rgb,
        vessel_mask=vessel_mask,
        fov_mask=fov,
        optic_disc_center=(float(disc_center[0]), float(disc_center[1])),
    )
