"""Image-quality metrics: PSNR and SSIM.

Used to quantify the (bounded) impact of early termination and to verify
quad merging is lossless, the way rendering papers report fidelity.
Implemented from the standard definitions on float images in [0, 1]; SSIM
uses the common 8x8 block formulation with the K1/K2 constants of the
original paper.

Only the tests call these today.  They stay for the image-fidelity rows of
``ROADMAP.md`` item 20, which give every hardware variant a PSNR/SSIM
verdict against the reference image.
"""

from __future__ import annotations

import numpy as np


def mse(a, b):
    """Mean squared error between two images of identical shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(a, b, peak=1.0):
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    error = mse(a, b)
    if error == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / error)


def _block_reduce_mean(channel, block):
    h, w = channel.shape
    th, tw = h // block * block, w // block * block
    trimmed = channel[:th, :tw]
    return trimmed.reshape(th // block, block, tw // block, block).mean(
        axis=(1, 3))


def ssim(a, b, peak=1.0, block=8, k1=0.01, k2=0.03):
    """Structural similarity on non-overlapping blocks, averaged over RGB.

    Returns a value in [-1, 1]; 1.0 for identical images.  Images smaller
    than one block raise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    if a.shape[0] < block or a.shape[1] < block:
        raise ValueError(
            f"images must be at least {block}x{block}, got {a.shape[:2]}")
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    scores = []
    for channel in range(a.shape[2]):
        x = a[:, :, channel]
        y = b[:, :, channel]
        mu_x = _block_reduce_mean(x, block)
        mu_y = _block_reduce_mean(y, block)
        xx = _block_reduce_mean(x * x, block) - mu_x ** 2
        yy = _block_reduce_mean(y * y, block) - mu_y ** 2
        xy = _block_reduce_mean(x * y, block) - mu_x * mu_y
        numerator = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
        denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (xx + yy + c2)
        scores.append(float(np.mean(numerator / denominator)))
    return float(np.mean(scores))
