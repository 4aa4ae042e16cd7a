"""Draw-call tracing: per-flush events and their summaries."""

import pytest

from repro.core.vrpipe import variant_config
from repro.hwmodel.pipeline import GraphicsPipeline
from repro.hwmodel.trace import DrawTrace


@pytest.fixture(scope="module")
def traced(deep_stream):
    trace = DrawTrace()
    config = variant_config("het+qm")
    result = GraphicsPipeline(config).draw(deep_stream, trace=trace)
    return trace, result


class TestDrawTrace:
    def test_events_recorded(self, traced):
        trace, result = traced
        assert len(trace) == result.stats.tc_flushes()

    def test_event_totals_match_stats(self, traced):
        trace, result = traced
        assert sum(e.n_quads for e in trace.events) == \
            result.stats.quads_rasterized
        assert sum(e.n_pairs for e in trace.events) == \
            result.stats.quads_merged_pairs
        assert sum(e.n_crop_quads for e in trace.events) == \
            result.stats.quads_to_crop

    def test_reasons_match_stats(self, traced):
        trace, result = traced
        reasons = trace.reasons()
        assert reasons.get("full", 0) == result.stats.tc_flush_full
        assert reasons.get("evict", 0) == result.stats.tc_flush_evict

    def test_merge_rate_in_range(self, traced):
        trace, _ = traced
        assert 0.0 < trace.merge_rate() < 1.0

    def test_summary(self, traced):
        trace, _ = traced
        text = trace.summary()
        assert "flushes" in text and "merge rate" in text

    def test_empty_summary(self):
        assert "empty" in DrawTrace().summary()

    def test_untraced_draw_unaffected(self, deep_stream):
        config = variant_config("het+qm")
        a = GraphicsPipeline(config).draw(deep_stream)
        trace = DrawTrace()
        b = GraphicsPipeline(config).draw(deep_stream, trace=trace)
        assert a.cycles == b.cycles
