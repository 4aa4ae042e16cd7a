"""Fault plans: the data model of the chaos harness.

A :class:`FaultPlan` is a seeded, deterministic schedule of faults over
the *named injection points* (:data:`POINTS`) threaded through the
library's fast paths.  Plans are pure data — parsing, matching and
per-rule bookkeeping — and know nothing about threads or process state;
the runtime half (installing plans, checkpoints, the cooperative
watchdog) lives in :mod:`repro.faults`.

Grammar of the ``REPRO_FAULTS`` environment variable and the trajectory
CLI's ``--faults`` option::

    plan := item (';' item)*
    item := 'seed=' INT | rule
    rule := POINT ':' KIND (',' KEY '=' VALUE)*

``POINT`` is one of :data:`POINTS`.  ``KIND`` is one of

``raise``
    raise :class:`FaultInjected` at the point;
``corrupt``
    corrupt the point's data product in a point-specific way — a flipped
    payload digit on :class:`~repro.engine.cache.ResultCache` loads, a
    poisoned carried frame in the coherence library, perturbed replay
    counters in the vectorized LRU engine — which the consumer-side
    integrity layer (checksums, exact verification, replay invariants)
    must then *detect*; points without a data channel detect immediately
    and raise :class:`CorruptDataError`;
``stall``
    sleep ``delay`` milliseconds at the point (cooperatively
    interruptible by the frame watchdog);
``oserror``
    raise an :class:`InjectedOSError` (a transient-I/O stand-in for the
    cache store/load retry paths).

Optional rule keys: ``p`` (fire probability per evaluation, default 1),
``times`` (maximum fires, default unlimited), ``after`` (skip the first
N evaluations) and ``delay`` (stall length in ms, default 10).

Example::

    REPRO_FAULTS="seed=7; digest:raise,times=1; lru.replay:corrupt,p=0.5"

Every random decision draws from a per-rule ``random.Random`` seeded by
``(plan seed, rule index, point, kind)``, so a plan replays identically
under the same call sequence — chaos runs are reproducible.
"""

from __future__ import annotations

import random
import threading

#: The named injection points threaded through the fast paths.
POINTS = (
    "rasterize",         # rasterize_splats, the batched rasterisation path
    "digest",            # FrameIR quad digestion (legacy digestion is clean)
    "coherence.verify",  # FrameCoherence classification of a new frame
    "flushplan",         # build_flush_plan, the batched flush engine only;
                         # fires only when a schedule is planned (a cold
                         # frame, or coherence off), never on a draw served
                         # a memoized or carried flush digest
    "lru.replay",        # LRUCache.access_segmented (vectorized replay)
    "cache.load",        # ResultCache.load
    "cache.store",       # ResultCache.store
)

#: Supported fault kinds (see the module docstring).
KINDS = ("raise", "corrupt", "stall", "oserror")


class FaultInjected(RuntimeError):
    """An exception injected at a named point by the active fault plan."""

    def __init__(self, point, message=None, kind="raise"):
        self.point = point
        self.kind = kind
        super().__init__(message or f"injected fault at {point!r}")


class CorruptDataError(FaultInjected):
    """Corrupt data *detected* at a named point (by an integrity guard)."""

    def __init__(self, point, message=None):
        super().__init__(
            point, message or f"corrupt data detected at {point!r}",
            kind="corrupt")


class InjectedOSError(OSError):
    """A transient I/O failure injected at a named point."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"injected transient OSError at {point!r}")


class WatchdogTimeout(RuntimeError):
    """The frame watchdog deadline expired at a checkpoint."""

    def __init__(self, point, budget_ms):
        self.point = point
        self.budget_ms = budget_ms
        super().__init__(
            f"frame watchdog expired at checkpoint {point!r} "
            f"(budget {budget_ms:g} ms)")


class FaultRule:
    """One plan rule: fire ``kind`` at ``point``, subject to gates.

    ``p`` gates each evaluation on a seeded coin flip, ``after`` skips
    the first N evaluations, and ``times`` caps the total fires — so
    transient faults (``times=1``), late-onset faults (``after=3``) and
    flaky faults (``p=0.25``) are all expressible.  ``delay_ms`` is the
    stall length for ``kind="stall"``.
    """

    __slots__ = ("point", "kind", "p", "times", "after", "delay_ms",
                 "evals", "fired")

    def __init__(self, point, kind, p=1.0, times=None, after=0,
                 delay_ms=10.0):
        if point not in POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; choose from {POINTS}")
        if kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose from {KINDS}")
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.point = point
        self.kind = kind
        self.p = float(p)
        self.times = None if times is None else int(times)
        self.after = int(after)
        self.delay_ms = float(delay_ms)
        self.evals = 0
        self.fired = 0

    def spec(self):
        """Canonical rule string (parses back to an equal rule)."""
        parts = [f"{self.point}:{self.kind}"]
        if self.p != 1.0:
            parts.append(f"p={self.p:g}")
        if self.times is not None:
            parts.append(f"times={self.times}")
        if self.after:
            parts.append(f"after={self.after}")
        if self.kind == "stall" and self.delay_ms != 10.0:
            parts.append(f"delay={self.delay_ms:g}")
        return ",".join(parts)

    def __repr__(self):
        return f"FaultRule({self.spec()!r}, fired={self.fired})"


class FaultPlan:
    """A seeded, deterministic fault schedule over named points.

    ``draw(point)`` evaluates the point's rules in declaration order and
    returns the first rule that fires (advancing its counters and its
    seeded RNG), or ``None``.  The evaluation is thread-safe; the RNG
    stream per rule depends only on the plan seed and the rule identity,
    so a plan replays identically for the same sequence of draws.
    """

    def __init__(self, rules=(), seed=0):
        self.seed = int(seed)
        self.rules = list(rules)
        self._by_point = {}
        for rule in self.rules:
            self._by_point.setdefault(rule.point, []).append(rule)
        self._lock = threading.Lock()
        self._rngs = {}
        self.reset()

    @classmethod
    def parse(cls, text):
        """Parse the ``REPRO_FAULTS`` grammar (see the module docstring)."""
        seed = 0
        rules = []
        for item in str(text).split(";"):
            item = item.strip()
            if not item:
                continue
            if item.startswith("seed="):
                seed = int(item[len("seed="):])
                continue
            fields = [field.strip() for field in item.split(",")]
            head = fields[0]
            if ":" not in head:
                raise ValueError(
                    f"bad fault rule {item!r}: expected 'point:kind[,k=v...]'")
            point, kind = (part.strip() for part in head.split(":", 1))
            opts = {}
            for field in fields[1:]:
                if "=" not in field:
                    raise ValueError(
                        f"bad fault rule option {field!r} in {item!r}: "
                        "expected 'key=value'")
                key, value = (part.strip() for part in field.split("=", 1))
                if key == "p":
                    opts["p"] = float(value)
                elif key == "times":
                    opts["times"] = int(value)
                elif key == "after":
                    opts["after"] = int(value)
                elif key == "delay":
                    opts["delay_ms"] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault rule key {key!r} in {item!r}; "
                        "use p/times/after/delay")
            rules.append(FaultRule(point, kind, **opts))
        return cls(rules, seed=seed)

    def spec(self):
        """Canonical plan string (``FaultPlan.parse(plan.spec())`` round-trips)."""
        parts = [f"seed={self.seed}"] if self.seed else []
        parts.extend(rule.spec() for rule in self.rules)
        return ";".join(parts)

    def reset(self):
        """Rewind every rule's counters and RNG stream to the start."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                rule.evals = 0
                rule.fired = 0
                self._rngs[index] = random.Random(
                    f"{self.seed}:{index}:{rule.point}:{rule.kind}")

    def draw(self, point):
        """The first rule firing at ``point`` now, or ``None``."""
        rules = self._by_point.get(point)
        if not rules:
            return None
        with self._lock:
            for rule in rules:
                rule.evals += 1
                if rule.evals <= rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if rule.p < 1.0:
                    rng = self._rngs[self.rules.index(rule)]
                    if rng.random() >= rule.p:
                        continue
                rule.fired += 1
                return rule
        return None

    def fired(self, point=None):
        """Total fires so far (for ``point``, or across the whole plan)."""
        rules = self.rules if point is None else self._by_point.get(point, ())
        return sum(rule.fired for rule in rules)

    def __repr__(self):
        return f"FaultPlan({self.spec()!r})"
