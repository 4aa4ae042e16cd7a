"""Multi-frame simulation sessions along viewpoint trajectories.

The paper's headline aggregates (Figures 16/17/21) are statistics over
*many viewpoints per scene*.  A :class:`RenderSession` owns one
(scene, backend, device) configuration and simulates whole frame
sequences along the scene's orbit trajectory
(:func:`repro.workloads.viewpoints.scene_viewpoints`), producing a
:class:`TrajectoryResult` with per-frame records and aggregate
statistics (geomean speedup over a baseline backend, FPS percentiles,
the early-termination-ratio distribution).

Every frame draws on fresh hardware state — a cold CROP cache and a
cleared HET termination stencil, as a new draw call in hardware — so
frames are independent: serial runs share the session's coherence
carrier, parallel runs fan out over the executor, and both return
bit-identical records.  A :class:`~repro.engine.cache.ResultCache`
serves a repeated trajectory from disk.
"""

from __future__ import annotations

import numpy as np

from repro.engine import cache as engine_cache
from repro.engine.backends import create_backend
from repro.engine.executor import run_frames
from repro.gaussians.preprocess import preprocess
from repro.render.coherence import FrameCoherence, resolve_coherence
from repro.render.frameir import resolve_ir
from repro.render.splat_raster import rasterize_splats
from repro.swrender.warp_model import resolve_swmodel
from repro.workloads.catalog import SceneProfile, build_scene, get_profile
from repro.workloads.viewpoints import scene_viewpoints


def geomean(values):
    """Geometric mean of positive values."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(values <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


class FrameRecord:
    """Numeric summary of one trajectory frame.

    Records keep no images or fragment streams, so long trajectories
    never pin every frame's output in memory at once.
    """

    _FIELDS = ("index", "backend", "cycles", "ms", "fps", "et_ratio",
               "kernels", "baseline_cycles", "speedup")

    def __init__(self, index, backend, cycles=None, ms=None, fps=None,
                 et_ratio=None, kernels=None, baseline_cycles=None,
                 speedup=None):
        self.index = int(index)
        self.backend = backend
        self.cycles = cycles
        self.ms = ms
        self.fps = fps
        self.et_ratio = et_ratio
        self.kernels = dict(kernels) if kernels else {}
        self.baseline_cycles = baseline_cycles
        self.speedup = speedup

    def to_dict(self):
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, payload):
        return cls(**{name: payload[name] for name in cls._FIELDS})

    def __repr__(self):
        ms = f"{self.ms:.3f}" if self.ms is not None else "-"
        return (f"FrameRecord(index={self.index}, backend={self.backend!r}, "
                f"ms={ms}, et_ratio={self.et_ratio})")


class TrajectoryResult:
    """Per-frame records plus aggregates for one trajectory run."""

    def __init__(self, scene, backend, baseline, device, seed, records,
                 from_cache=False):
        self.scene = scene
        self.backend = backend
        self.baseline = baseline
        self.device = device
        self.seed = int(seed)
        self.records = list(records)
        self.from_cache = bool(from_cache)

    @property
    def n_frames(self):
        return len(self.records)

    def aggregates(self):
        """Summary statistics over the trajectory's frames.

        Always reports the frame count and the early-termination-ratio
        distribution; timing aggregates (ms, FPS percentiles) appear when
        the backend models time, and ``geomean_speedup`` when a baseline
        backend ran alongside.
        """
        agg = {"frames": self.n_frames}
        ratios = [r.et_ratio for r in self.records if r.et_ratio is not None]
        if ratios:
            ratios = np.asarray(ratios, dtype=np.float64)
            agg["et_ratio_mean"] = float(ratios.mean())
            agg["et_ratio_min"] = float(ratios.min())
            agg["et_ratio_max"] = float(ratios.max())
        times = [r.ms for r in self.records if r.ms is not None]
        if times:
            agg["mean_ms"] = float(np.mean(times))
            agg["total_ms"] = float(np.sum(times))
        fps = [r.fps for r in self.records if r.fps is not None]
        if fps:
            fps = np.asarray(fps, dtype=np.float64)
            agg["fps_p5"] = float(np.percentile(fps, 5))
            agg["fps_p50"] = float(np.percentile(fps, 50))
            agg["fps_p95"] = float(np.percentile(fps, 95))
        speedups = [r.speedup for r in self.records if r.speedup is not None]
        if speedups:
            agg["geomean_speedup"] = geomean(speedups)
        return agg

    def to_dict(self):
        return {
            "scene": self.scene,
            "backend": self.backend,
            "baseline": self.baseline,
            "device": self.device,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, payload, from_cache=False):
        return cls(
            scene=payload["scene"],
            backend=payload["backend"],
            baseline=payload["baseline"],
            device=payload["device"],
            seed=payload["seed"],
            records=[FrameRecord.from_dict(r) for r in payload["records"]],
            from_cache=from_cache,
        )

    def __repr__(self):
        return (f"TrajectoryResult(scene={self.scene!r}, "
                f"backend={self.backend!r}, frames={self.n_frames}, "
                f"from_cache={self.from_cache})")


class RenderSession:
    """Simulate frame sequences of one scene through one backend.

    Parameters
    ----------
    scene:
        Catalogue scene name or a :class:`SceneProfile`.
    backend:
        Backend spec string (see :data:`repro.engine.backends.BACKENDS`).
    baseline:
        Spec of a second backend rendered on the *same* per-frame stream
        for speedup statistics.  ``"auto"`` picks ``hw:baseline`` for
        hardware backends (and nothing otherwise); ``None`` disables it.
    device:
        Device preset name (``orin`` / ``rtx3090``).
    seed:
        Scene-construction seed.
    result_cache:
        Optional :class:`~repro.engine.cache.ResultCache`; trajectory
        runs are served from disk on a content-key hit.
    ir:
        Digestion path of the session's rasterisation (``"auto"`` /
        ``"legacy"``, see :mod:`repro.render.frameir`): the stream
        carries a FrameIR or it does not, and every consumer follows it.
        Both modes produce bit-identical frames — the knob only selects
        which digestion engine runs — so the disk cache key is
        deliberately ``ir``-agnostic.
    coherence:
        Cross-frame digestion reuse (``"auto"`` / ``"off"``, see
        :mod:`repro.render.coherence`).  The session owns the one
        :class:`~repro.render.coherence.FrameCoherence` carrier
        (:attr:`carrier`), shared by :meth:`render_frame` calls and
        serial :meth:`run` trajectories, so revisited viewpoints skip
        rasterisation and reuse digested state.  Like ``ir``, both
        modes are bit-identical — the disk cache key stays
        ``coherence``-agnostic.  Parallel runs (``jobs > 1``) bypass the
        carrier.
    swmodel:
        Software-model engine of the cuda backends (``"auto"`` /
        ``"legacy"``, see :mod:`repro.swrender.warp_model`).
    """

    def __init__(self, scene, backend="hw:het+qm", baseline="auto",
                 device="orin", seed=0, result_cache=None, ir="auto",
                 coherence="auto", swmodel="auto"):
        self.profile = (scene if isinstance(scene, SceneProfile)
                        else get_profile(scene))
        if not isinstance(backend, str):
            raise TypeError("backend must be a backend spec string, got "
                            f"{type(backend).__name__}")
        if baseline is not None and not isinstance(baseline, str):
            raise TypeError("baseline must be a backend spec string or "
                            f"None, got {type(baseline).__name__}")
        if baseline == "auto":
            baseline = ("hw:baseline" if backend.startswith("hw:")
                        and backend != "hw:baseline" else None)
        self.backend_spec = backend
        self.baseline_spec = baseline
        self.device_name = device
        self.seed = int(seed)
        self.ir = resolve_ir(ir)
        self.swmodel = resolve_swmodel(swmodel)
        self.backend, self.baseline = (
            create_backend(spec, device_name=device, swmodel=self.swmodel)
            if spec is not None else None
            for spec in (backend, baseline))
        self.result_cache = result_cache
        self.coherence = resolve_coherence(coherence)
        #: The session's coherence carrier (inert under ``"off"``).
        self.carrier = FrameCoherence(self.coherence)
        self._cloud = None

    @property
    def cloud(self):
        """The scene's Gaussian cloud (built once, shared by all frames)."""
        if self._cloud is None:
            try:
                catalogued = get_profile(self.profile.name) is self.profile
            except KeyError:
                catalogued = False
            if catalogued:
                self._cloud = engine_cache.get_cloud(self.profile.name,
                                                     self.seed)
            else:
                self._cloud = build_scene(self.profile, seed=self.seed)
        return self._cloud

    def _render(self, camera, carrier, baseline=None):
        """One frame: preprocess; take the stream from ``carrier`` (if
        any) or rasterise and feed it to the carrier; render through the
        session's backend and, on the same stream, through ``baseline``
        (if any).  Returns ``(frame, baseline_frame)``."""
        pre = preprocess(self.cloud, camera)
        width, height = camera.width, camera.height
        # A served stream carries a FrameIR, which ``ir="legacy"`` omits.
        stream = (carrier.serve(pre.splats, width, height)
                  if carrier is not None and self.ir != "legacy" else None)
        if stream is None:
            stream = rasterize_splats(pre.splats, width, height, ir=self.ir)
            if carrier is not None:
                carrier.begin_frame(stream, splats=pre.splats)
        frame = self.backend.render_stream(stream, pre)
        base = (baseline.render_stream(stream, pre)
                if baseline is not None else None)
        return frame, base

    def render_frame(self, camera=None):
        """Render a single frame; defaults to the profile's camera.

        Preprocesses, then asks the session's coherence carrier for the
        frame: a repeated frame (static camera, revisited viewpoint) is
        served its captured stream and digested state without
        rasterising, and any other frame is rasterised and captured.
        Either way the output is bit-identical to rendering a freshly
        rasterised stream through the backend.
        """
        cam = camera if camera is not None else self.profile.camera()
        frame, _ = self._render(cam, self.carrier)
        return frame

    def run(self, n_views=8, jobs=1):
        """Simulate ``n_views`` frames along the scene's orbit trajectory.

        Each frame keeps only its numeric :class:`FrameRecord`, so memory
        stays flat however long the trajectory is.
        """
        if n_views <= 0:
            raise ValueError(f"n_views must be positive, got {n_views}")
        key = None
        if self.result_cache is not None:
            key = engine_cache.trajectory_key(
                self.profile, self.seed, self.backend_spec,
                self.baseline_spec, self.device_name, n_views)
            hit = self.result_cache.load(key)
            if hit is not None:
                return TrajectoryResult.from_dict(hit, from_cache=True)

        # Parallel fan-out bypasses the carrier: frames are bit-identical
        # either way, the carrier only changes how fast digestion
        # converges.
        carrier = None if jobs is not None and jobs > 1 else self.carrier

        cameras = scene_viewpoints(self.profile, n_views)
        _ = self.cloud  # build once outside the workers, shared read-only

        def render_one(task):
            index, camera = task
            frame, base = self._render(camera, carrier, self.baseline)
            record = FrameRecord(
                index=index, backend=self.backend_spec, cycles=frame.cycles,
                ms=frame.ms, fps=frame.fps, et_ratio=frame.et_ratio,
                kernels=frame.kernels)
            if base is not None:
                record.baseline_cycles = base.cycles
                if base.cycles and frame.cycles:
                    record.speedup = base.cycles / frame.cycles
            return record

        records = run_frames(render_one, enumerate(cameras), jobs=jobs)
        result = TrajectoryResult(
            scene=self.profile.name, backend=self.backend_spec,
            baseline=self.baseline_spec, device=self.device_name,
            seed=self.seed, records=records)
        if key is not None:
            self.result_cache.store(key, result.to_dict())
        return result
