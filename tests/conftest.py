"""Shared fixtures: small deterministic scenes sized for fast tests."""

from __future__ import annotations

import resource

import numpy as np
import pytest

from repro.gaussians import Camera, synthetic
from repro.gaussians.preprocess import preprocess
from repro.render.splat_raster import rasterize_splats


@pytest.fixture(scope="session")
def small_cloud():
    """A shallow object + shell scene (~500 Gaussians)."""
    rng = np.random.default_rng(7)
    blob = synthetic.make_blob(rng, 300, center=(0, 0, 0), radius=0.45,
                               scale_mean=0.05)
    shell = synthetic.make_shell(rng, 200, center=(0, 0, 0), radius=2.6)
    return synthetic.compose(blob, shell)


@pytest.fixture(scope="session")
def small_camera():
    return Camera.look_at(eye=(0.0, 0.25, -2.0), target=(0, 0, 0),
                          width=96, height=96)


@pytest.fixture(scope="session")
def frame_inputs():
    """``(cloud, camera) -> (pre, stream)``: what a renderer consumes."""
    def build(cloud, camera):
        pre = preprocess(cloud, camera)
        return pre, rasterize_splats(pre.splats, camera.width, camera.height)
    return build


@pytest.fixture(scope="session")
def small_stream(small_cloud, small_camera):
    pre = preprocess(small_cloud, small_camera)
    return rasterize_splats(pre.splats, small_camera.width,
                            small_camera.height)


@pytest.fixture(scope="session")
def small_pre(small_cloud, small_camera):
    return preprocess(small_cloud, small_camera)


@pytest.fixture(scope="session")
def deep_cloud():
    """Depth-stacked opaque layers: saturates pixels, exercises HET/QM."""
    rng = np.random.default_rng(11)
    layers = synthetic.make_layered_surfaces(
        rng, 900, center=(0, 0, 0), extent=0.9, n_layers=7,
        layer_spacing=0.25, scale_mean=0.06, opacity_low=0.7,
        opacity_high=0.98)
    return layers


@pytest.fixture(scope="session")
def deep_camera():
    return Camera.look_at(eye=(0.0, 0.1, -2.2), target=(0, 0, 0),
                          width=96, height=96)


@pytest.fixture(scope="session")
def deep_pre(deep_cloud, deep_camera):
    return preprocess(deep_cloud, deep_camera)


@pytest.fixture(scope="session")
def deep_stream(deep_cloud, deep_camera):
    pre = preprocess(deep_cloud, deep_camera)
    return rasterize_splats(pre.splats, deep_camera.width,
                            deep_camera.height)


def pytest_sessionfinish(session, exitstatus):
    """Print the test process's peak resident set, so CI logs it."""
    # Linux reports ru_maxrss in KiB.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"peak RSS of the test process: {peak_mb:.0f} MB"
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.line("")  # end the progress line
        reporter.write_line(line)
    else:
        print(line)
