"""Tests for span tracing: nesting, timing, and the no-op default
tracer."""

import json

from repro.obs import (
    NULL_SPAN,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                pass
            with tracer.span("child_b"):
                with tracer.span("grandchild"):
                    pass
        assert [s.name for s in tracer.roots] == ["root"]
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[1].children[0].name == "grandchild"

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_attrs_from_kwargs_and_set_attr(self):
        tracer = Tracer()
        with tracer.span("run", n=100) as span:
            span.set_attr("messages", 42)
        assert tracer.roots[0].attrs == {"n": 100, "messages": 42}

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.end is not None and inner.end is not None
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert tracer.roots[0].end is not None
        assert tracer.current is None

    def test_find_by_name(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("algorithm1"):
                with tracer.span("election"):
                    pass
        assert len(tracer.find("election")) == 2
        assert tracer.find("nope") == []

    def test_to_dict_and_json(self):
        tracer = Tracer()
        with tracer.span("run", n=10):
            with tracer.span("step"):
                pass
        payload = json.loads(tracer.to_json())
        (root,) = payload["spans"]
        assert root["name"] == "run"
        assert root["attrs"] == {"n": 10}
        assert root["duration_seconds"] >= 0.0
        assert root["children"][0]["name"] == "step"


class TestNullTracer:
    def test_span_returns_the_shared_null_span(self):
        tracer = NullTracer()
        with tracer.span("anything", n=5) as span:
            assert span is NULL_SPAN
            span.set_attr("ignored", 1)
        assert tracer.roots == []
        assert tracer.to_dict() == {"spans": []}
        assert NULL_SPAN.attrs == {}

    def test_not_enabled(self):
        assert NullTracer().enabled is False
        assert Tracer().enabled is True


class TestGlobalDefault:
    def test_default_is_noop(self):
        assert isinstance(get_tracer(), NullTracer)

    def test_set_and_reset(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_scopes_the_default(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert isinstance(get_tracer(), NullTracer)

    def test_instrumented_run_picks_up_global_tracer(self):
        from repro import algorithm1_distributed, connected_random_udg

        graph = connected_random_udg(20, 3.2, seed=5)
        tracer = Tracer()
        with use_tracer(tracer):
            algorithm1_distributed(graph)
        (root,) = tracer.find("algorithm1")
        assert [c.name for c in root.children] == ["election", "levels", "marking"]
        assert root.attrs["messages"] > 0
