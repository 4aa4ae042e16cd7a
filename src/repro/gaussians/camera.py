"""Pinhole camera model and viewpoint trajectory helpers.

The camera follows the 3D Gaussian splatting convention: a world-to-camera
rigid transform (rotation ``R`` and translation ``t``), focal lengths in
pixels, and a principal point.  Camera space looks down +z (a point is in
front of the camera when its camera-space z exceeds ``znear``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive, check_shape


class Camera:
    """A pinhole camera with a world-to-camera transform.

    Parameters
    ----------
    rotation:
        ``(3, 3)`` world-to-camera rotation matrix.
    translation:
        ``(3,)`` world-to-camera translation (``x_cam = R @ x_world + t``).
    fx, fy:
        Focal lengths in pixels.
    width, height:
        Image size in pixels.
    znear, zfar:
        Near/far clip planes in camera-space depth.
    """

    def __init__(self, rotation, translation, fx, fy, width, height,
                 znear=0.05, zfar=1000.0):
        self.rotation = np.asarray(rotation, dtype=np.float64)
        self.translation = np.asarray(translation, dtype=np.float64)
        check_shape("rotation", self.rotation, (3, 3))
        check_shape("translation", self.translation, (3,))
        self.fx = float(check_positive("fx", fx))
        self.fy = float(check_positive("fy", fy))
        self.width = int(check_positive("width", width))
        self.height = int(check_positive("height", height))
        self.znear = float(check_positive("znear", znear))
        self.zfar = float(check_positive("zfar", zfar))
        if self.zfar <= self.znear:
            raise ValueError(f"zfar ({zfar}) must exceed znear ({znear})")
        self.cx = self.width / 2.0
        self.cy = self.height / 2.0

    @classmethod
    def look_at(cls, eye, target, up=(0.0, 1.0, 0.0), fov_x_deg=60.0,
                width=256, height=256, **kwargs):
        """Build a camera at ``eye`` looking toward ``target``.

        ``fov_x_deg`` is the horizontal field of view; ``fy`` is chosen to
        keep pixels square.
        """
        eye = np.asarray(eye, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        up = np.asarray(up, dtype=np.float64)
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm < 1e-12:
            raise ValueError("eye and target coincide; cannot derive a view direction")
        forward = forward / norm
        right = np.cross(forward, up)
        right_norm = np.linalg.norm(right)
        if right_norm < 1e-12:
            raise ValueError("up vector is parallel to the view direction")
        right = right / right_norm
        true_up = np.cross(right, forward)
        # Rows of the world-to-camera rotation are the camera axes expressed
        # in world coordinates; camera looks down +z.
        rotation = np.stack([right, -true_up, forward])
        translation = -rotation @ eye
        fov_x = np.deg2rad(fov_x_deg)
        fx = (width / 2.0) / np.tan(fov_x / 2.0)
        return cls(rotation, translation, fx=fx, fy=fx, width=width,
                   height=height, **kwargs)

    @property
    def position(self):
        """World-space camera position."""
        return -self.rotation.T @ self.translation

    def to_camera_space(self, points):
        """Transform ``(n, 3)`` world points into camera space."""
        points = check_shape("points", np.asarray(points, dtype=np.float64), (None, 3))
        return points @ self.rotation.T + self.translation

    def project(self, points):
        """Project ``(n, 3)`` world points to ``(n, 2)`` pixel coordinates.

        Points behind the near plane project to NaN rather than wrapping
        around, so callers can detect them.
        """
        cam = self.to_camera_space(points)
        z = cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * cam[:, 0] / z + self.cx
            v = self.fy * cam[:, 1] / z + self.cy
        uv = np.stack([u, v], axis=1)
        uv[z < self.znear] = np.nan
        return uv


def orbit_viewpoints(center, radius, n_views, height=0.0, fov_x_deg=60.0,
                     width=256, img_height=256, phase=0.0):
    """Generate ``n_views`` cameras orbiting ``center`` at ``radius``.

    This mirrors the paper's Figure 21 experiment, which sweeps all dataset
    viewpoints; an orbit is the canonical synthetic stand-in.

    Parameters
    ----------
    center:
        ``(3,)`` orbit centre (the look-at target).
    radius:
        Orbit radius; must be positive.
    n_views:
        Number of evenly spaced viewpoints.
    height:
        Camera elevation above the orbit plane.
    phase:
        Angular offset of the first viewpoint in radians.
    """
    check_positive("radius", radius)
    check_positive("n_views", n_views)
    center = np.asarray(center, dtype=np.float64)
    cameras = []
    for k in range(int(n_views)):
        angle = phase + 2.0 * np.pi * k / int(n_views)
        eye = center + np.array([
            radius * np.cos(angle),
            height,
            radius * np.sin(angle),
        ])
        cameras.append(Camera.look_at(eye, center, fov_x_deg=fov_x_deg,
                                      width=width, height=img_height))
    return cameras
