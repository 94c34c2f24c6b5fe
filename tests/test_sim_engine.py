"""Tests for the discrete-event simulator: delivery, accounting,
latency models, timers, and fault injection."""

import copy
import dataclasses
import pickle
from collections import Counter, OrderedDict, namedtuple
from enum import IntEnum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, line_udg
from repro.sim import (
    FixedLatency,
    SimConfig,
    Message,
    NodeContext,
    ProtocolNode,
    SimStats,
    Simulator,
    UniformLatency,
    make_simulator,
    run_protocol,
)


class Beacon(ProtocolNode):
    """Broadcasts HELLO once; records everything it hears."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.heard = []

    def on_start(self):
        self.ctx.broadcast("HELLO", origin=self.node_id)

    def on_message(self, msg):
        self.heard.append((msg.sender, msg.kind))

    def result(self):
        return {"heard": list(self.heard)}


class Relay(ProtocolNode):
    """Floods a token once: rebroadcast on first receipt."""

    def __init__(self, ctx, origin):
        super().__init__(ctx)
        self.origin = origin
        self.got = False

    def on_start(self):
        if self.node_id == self.origin:
            self.got = True
            self.ctx.broadcast("TOKEN")

    def on_message(self, msg):
        if msg.kind == "TOKEN" and not self.got:
            self.got = True
            self.ctx.broadcast("TOKEN")

    def result(self):
        return {"got": self.got}


def triangle():
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


class TestBroadcastDelivery:
    def test_every_neighbor_hears_once(self):
        results, stats = run_protocol(triangle(), Beacon)
        for node, res in results.items():
            senders = sorted(sender for sender, _ in res["heard"])
            assert senders == sorted({0, 1, 2} - {node})
        assert stats.messages_sent == 3  # one broadcast per node
        assert stats.deliveries == 6  # two receivers each

    def test_flood_reaches_all(self):
        g = line_udg(10)
        results, stats = run_protocol(g, lambda ctx: Relay(ctx, origin=0))
        assert all(res["got"] for res in results.values())
        assert stats.messages_sent == 10
        assert stats.by_kind["TOKEN"] == 10

    def test_finish_time_is_propagation_depth(self):
        g = line_udg(10)
        sim = Simulator(g, lambda ctx: Relay(ctx, origin=0))
        stats = sim.run()
        # Unit latency: node i rebroadcasts at time i; the last event is
        # node 9's broadcast (sent at t=9) landing back on node 8 at 10.
        assert stats.finish_time == pytest.approx(10.0)


class TestUnicast:
    def test_unicast_reaches_only_dest(self):
        class Pinger(ProtocolNode):
            def __init__(self, ctx):
                super().__init__(ctx)
                self.heard = []

            def on_start(self):
                if self.node_id == 0:
                    self.ctx.send(1, "PING")

            def on_message(self, msg):
                self.heard.append(msg.kind)

            def result(self):
                return {"heard": self.heard}

        results, stats = run_protocol(triangle(), Pinger)
        assert results[1]["heard"] == ["PING"]
        assert results[2]["heard"] == []
        assert stats.messages_sent == 1

    def test_unicast_to_non_neighbor_rejected(self):
        class Bad(ProtocolNode):
            def on_start(self):
                if self.node_id == 0:
                    self.ctx.send(9, "PING")

        g = Graph(edges=[(0, 1)], nodes=[9])
        with pytest.raises(ValueError):
            Simulator(g, Bad).run()


class TestTimers:
    def test_timer_fires_in_order(self):
        events = []

        class Timed(ProtocolNode):
            def on_start(self):
                self.ctx.set_timer(2.0, "late")
                self.ctx.set_timer(1.0, "early")

            def on_timer(self, tag):
                events.append((self.ctx.now, tag))

        Simulator(Graph(nodes=[0]), Timed).run()
        assert events == [(1.0, "early"), (2.0, "late")]

    def test_negative_delay_rejected(self):
        class Bad(ProtocolNode):
            def on_start(self):
                self.ctx.set_timer(-1.0)

        with pytest.raises(ValueError):
            Simulator(Graph(nodes=[0]), Bad).run()


class TestLatencyModels:
    def test_fixed_latency_validation(self):
        with pytest.raises(ValueError):
            FixedLatency(0)

    def test_uniform_latency_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(0, 1)
        with pytest.raises(ValueError):
            UniformLatency(2, 1)

    def test_uniform_latency_range(self):
        model = UniformLatency(0.5, 1.5, seed=1)
        for _ in range(100):
            assert 0.5 <= model(0, 1) <= 1.5

    def test_async_flood_still_completes(self):
        g = line_udg(8)
        results, _ = run_protocol(
            g, lambda ctx: Relay(ctx, origin=0),
            SimConfig(latency=UniformLatency(seed=3)),
        )
        assert all(res["got"] for res in results.values())


class TestFaultInjection:
    def test_loss_rate_drops_messages(self):
        g = Graph(edges=[(0, 1)])
        sim = Simulator(g, Beacon, SimConfig(loss_rate=0.999999, seed=1))
        stats = sim.run()
        assert stats.dropped == 2
        assert stats.deliveries == 0

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            Simulator(Graph(nodes=[0]), Beacon, SimConfig(loss_rate=1.0))

    def test_crashed_node_is_silent(self):
        g = triangle()
        sim = Simulator(g, lambda ctx: Relay(ctx, origin=0))
        sim.crash_node(1)
        sim.run()
        results = sim.collect_results()
        assert not results[1]["got"]
        assert results[2]["got"]  # triangle: direct edge 0-2 survives
        assert sim.crashed == frozenset({1})

    def test_crash_partitions_flood(self):
        g = line_udg(5)
        sim = Simulator(g, lambda ctx: Relay(ctx, origin=0))
        sim.crash_node(2)
        sim.run()
        results = sim.collect_results()
        assert results[1]["got"]
        assert not results[3]["got"] and not results[4]["got"]

    def test_neighbor_ids_exclude_crashed(self):
        g = triangle()
        sim = Simulator(g, Beacon)
        sim.crash_node(2)
        assert sim.neighbor_ids(0) == frozenset({1})
        sim.revive_node(2)
        assert sim.neighbor_ids(0) == frozenset({1, 2})


class TestCrashLossInteraction:
    """Crash + loss corner cases: in-flight deliveries from a crashed
    sender, the loss_rate = 0.0 boundary, and counter consistency."""

    def test_crashed_sender_inflight_delivery_still_arrives(self):
        # 0 - 1 - 2 chain: node 0 transmits, then crashes while its
        # message is still in the event queue.  The radio wave is
        # already in the air, so 1 must still hear it and the flood
        # continues; only *future* sends from 0 are suppressed.
        g = line_udg(3)
        sim = Simulator(g, lambda ctx: Relay(ctx, origin=0))
        sim.run(until=0.5)  # send happened at t=0; delivery is at t=1
        assert sim.stats.messages_sent == 1 and sim.stats.deliveries == 0
        sim.crash_node(0)
        sim.run()
        results = sim.collect_results()
        assert results[1]["got"] and results[2]["got"]
        # 1's and 2's rebroadcasts happened; deliveries to dead 0 were
        # skipped silently (neither delivered nor counted as dropped).
        assert sim.stats.messages_sent == 3
        assert sim.stats.deliveries == 3  # 0->1, 1->2, 2->1
        assert sim.stats.dropped == 0

    def test_loss_rate_zero_boundary_is_lossless_and_deterministic(self):
        g = triangle()
        _, baseline = run_protocol(g, Beacon)
        _, lossless = run_protocol(g, Beacon, SimConfig(loss_rate=0.0, seed=123))
        assert lossless.dropped == 0
        assert lossless.deliveries == baseline.deliveries == 6
        assert lossless.messages_sent == baseline.messages_sent == 3
        assert lossless.finish_time == baseline.finish_time

    def test_counters_consistent_under_crash_and_loss(self):
        # Every potential delivery is exactly one of: delivered,
        # dropped by loss, or skipped because an endpoint was dead.
        g = triangle()
        sim = Simulator(g, Beacon, SimConfig(loss_rate=0.5, seed=11))
        sim.crash_node(2)  # crashed before start: sends and receives nothing
        stats = sim.run()
        assert stats.messages_sent == 2  # only 0 and 1 transmit
        assert sum(stats.by_node.values()) == stats.messages_sent
        assert sum(stats.by_kind.values()) == stats.messages_sent
        # Each live transmission has one live receiver (the other live
        # node); the delivery to dead 2 is skipped without a counter.
        assert stats.deliveries + stats.dropped == 2
        assert stats.events_processed >= stats.deliveries

    def test_crash_between_send_and_delivery_with_loss(self):
        # loss applies at transmit time, so a delivery that survived
        # the coin flip is not re-dropped when the *sender* crashes.
        g = Graph(edges=[(0, 1)])
        sim = Simulator(g, Beacon, SimConfig(loss_rate=0.0, seed=5))
        sim.run(until=0.25)
        sim.crash_node(0)
        stats = sim.run()
        assert stats.messages_sent == 2  # both transmitted at t=0
        assert stats.deliveries == 1  # 0's message reaches 1; 0 is dead
        assert stats.dropped == 0


class TestRunControls:
    def test_run_until_pauses_and_resumes(self):
        g = line_udg(10)
        sim = Simulator(g, lambda ctx: Relay(ctx, origin=0))
        sim.run(until=3.0)
        partial = sum(1 for res in sim.collect_results().values() if res["got"])
        assert 0 < partial < 10
        sim.run()
        assert all(res["got"] for res in sim.collect_results().values())

    def test_max_events_guard(self):
        class Chatter(ProtocolNode):
            def on_start(self):
                self.ctx.broadcast("NOISE")

            def on_message(self, msg):
                self.ctx.broadcast("NOISE")  # livelock

        with pytest.raises(RuntimeError):
            Simulator(triangle(), Chatter, SimConfig(max_events=100)).run()

    def test_stats_summary_keys(self):
        _, stats = run_protocol(triangle(), Beacon)
        summary = stats.summary()
        assert summary["messages"] == 3
        assert summary["max_per_node"] == 1
        assert stats.messages_per_node() == pytest.approx(1.0)


class TestMessage:
    def test_accessors(self):
        msg = Message(sender=1, kind="X", data={"a": 2})
        assert msg["a"] == 2
        assert msg.get("a") == 2
        assert msg.get("missing") is None
        assert msg.get("missing", 7) == 7
        assert msg.is_broadcast
        assert not Message(1, "X", dest=2).is_broadcast
        with pytest.raises(KeyError):
            msg["missing"]

    def test_defaults_and_keywords(self):
        msg = Message(1, "X")
        assert msg.data == {} and msg.dest is None
        assert Message(1, "X", {}) == msg
        assert Message(kind="X", sender=1, dest=None, data={}) == msg
        # Each message owns its default payload.
        assert msg.data is not Message(1, "X").data

    def test_equality_and_inequality_in_each_field(self):
        base = Message(1, "X", {"a": 2}, dest=3)
        assert base == Message(1, "X", {"a": 2}, dest=3)
        assert not base != Message(1, "X", {"a": 2}, dest=3)
        for other in (
            Message(2, "X", {"a": 2}, dest=3),
            Message(1, "Y", {"a": 2}, dest=3),
            Message(1, "X", {"a": 3}, dest=3),
            Message(1, "X", {"a": 2}, dest=4),
            Message(1, "X", {"a": 2}),
        ):
            assert base != other
            assert not base == other
        assert base != (1, "X", {"a": 2}, 3)
        assert base != "Message"

    @pytest.mark.parametrize("field", ["sender", "kind", "data", "dest"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        msg = Message(1, "X", {"a": 2})
        with pytest.raises(AttributeError):
            setattr(msg, field, 5)
        with pytest.raises(AttributeError):
            delattr(msg, field)
        assert msg == Message(1, "X", {"a": 2})

    def test_no_new_attributes(self):
        msg = Message(1, "X")
        with pytest.raises(AttributeError):
            msg.extra = 1

    def test_hash_of_a_dict_payload_raises(self):
        with pytest.raises(TypeError):
            hash(Message(1, "X", {"a": 2}))
        with pytest.raises(TypeError):
            hash(Message(1, "X"))

    def test_repr(self):
        assert repr(Message(1, "X", {"a": 2})) == (
            "Message(sender=1, kind='X', data={'a': 2}, dest=None)"
        )
        assert repr(Message("u", "Y", dest="v")) == (
            "Message(sender='u', kind='Y', data={}, dest='v')"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        msg = Message(1, "X", {"doms": (2, 3), "nested": {"k": [1]}}, dest=4)
        back = pickle.loads(pickle.dumps(msg, protocol))
        assert type(back) is Message
        assert back == msg
        assert back.dest == 4

    def test_copy_round_trips(self):
        msg = Message(1, "X", {"items": [1, 2]}, dest=2)
        shallow = copy.copy(msg)
        deep = copy.deepcopy(msg)
        assert shallow == msg and deep == msg
        assert type(shallow) is Message and type(deep) is Message
        assert shallow.data is msg.data
        assert deep.data is not msg.data
        assert deep.data["items"] is not msg.data["items"]


class TestPayloadAccounting:
    def test_scalar_payload_size(self):
        assert Message(0, "X", {"a": 1, "b": "s"}).payload_size() == 3

    def test_collection_payload_size(self):
        msg = Message(0, "X", {"neighbors": (1, 2, 3, 4)})
        assert msg.payload_size() == 5

    def test_empty_collection_counts_one(self):
        assert Message(0, "X", {"doms": ()}).payload_size() == 2

    def test_collection_subclasses_and_other_payloads(self):
        assert Message(0, "X").payload_size() == 1
        assert Message(0, "X", {"a": "text", "b": b"raw"}).payload_size() == 3
        assert Message(0, "X", {"p": _Pair(1, 2)}).payload_size() == 3
        assert Message(0, "X", {"s": {1, 2, 3}, "d": {}}).payload_size() == 5
        assert Message(0, "X", {"f": frozenset(), "l": [1]}).payload_size() == 3

    def test_stats_accumulate_payload(self):
        class Chatty(ProtocolNode):
            def on_start(self):
                if self.node_id == 0:
                    self.ctx.broadcast("LIST", items=(1, 2, 3))
                    self.ctx.broadcast("PING")

        g = Graph(edges=[(0, 1)])
        _, stats = run_protocol(g, Chatty)
        assert stats.payload_entries == 4 + 1
        assert stats.payload_by_kind["LIST"] == 4
        assert stats.payload_by_kind["PING"] == 1


class _Pair(NamedTuple):
    left: int
    right: int


_Point = namedtuple("_Point", "x y")


class _Level(IntEnum):
    LOW = 0
    HIGH = 1


class _Ids(frozenset):
    pass


def _reference_size(data):
    size = 1
    for value in data.values():
        if isinstance(value, (tuple, list, frozenset, set, dict)):
            size += max(len(value), 1)
        else:
            size += 1
    return size


_VALUES = st.one_of(
    st.integers(-5, 5),
    st.text(max_size=3),
    st.none(),
    st.tuples(st.integers(0, 3)),
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.integers(0, 3), max_size=4).map(tuple),
    st.frozensets(st.integers(0, 5), max_size=4),
    st.sets(st.integers(0, 5), max_size=4),
    st.dictionaries(st.integers(0, 3), st.integers(), max_size=3),
    st.builds(_Pair, st.integers(), st.integers()),
    # Values a scalar fast path could miscount: int and tuple subclasses,
    # floats, and mapping and set subclasses.
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.floats(allow_nan=False),
    st.builds(_Point, st.integers(), st.integers()),
    st.dictionaries(st.integers(0, 3), st.integers(), max_size=3).map(OrderedDict),
    st.frozensets(st.integers(0, 5), max_size=4).map(_Ids),
)

_MESSAGES = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.sampled_from(["A", "B", "C"]),
        st.dictionaries(st.sampled_from(["x", "y", "z"]), _VALUES, max_size=3),
        st.one_of(st.none(), st.integers(0, 4)),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    max_size=30,
)


class TestSimStatsFold:
    @settings(max_examples=150, deadline=None)
    @given(_MESSAGES)
    def test_record_message_equals_a_reference_fold(self, sends):
        stats = SimStats()
        for sender, kind, data, dest, time in sends:
            stats.record_message(Message(sender, kind, data, dest), time)
        by_kind, by_node, payload_by_kind = {}, {}, {}
        first, last = {}, {}
        entries = 0
        for sender, kind, data, _, time in sends:
            size = _reference_size(data)
            by_kind[kind] = by_kind.get(kind, 0) + 1
            by_node[sender] = by_node.get(sender, 0) + 1
            payload_by_kind[kind] = payload_by_kind.get(kind, 0) + size
            entries += size
            first.setdefault(kind, time)
            last[kind] = time
        assert stats.messages_sent == len(sends)
        assert dict(stats.by_kind) == by_kind
        assert dict(stats.by_node) == by_node
        assert dict(stats.payload_by_kind) == payload_by_kind
        assert stats.payload_entries == entries
        assert stats.first_send_by_kind == first
        assert stats.last_send_by_kind == last
        assert stats.max_messages_per_node() == max(by_node.values(), default=0)


def _reference_fold(sends):
    """The send fields of SimStats, folded send by send in plain dicts."""
    by_kind, by_node, payload_by_kind, first, last = {}, {}, {}, {}, {}
    entries = 0
    for sender, kind, data, time in sends:
        size = _reference_size(data)
        by_kind[kind] = by_kind.get(kind, 0) + 1
        by_node[sender] = by_node.get(sender, 0) + 1
        payload_by_kind[kind] = payload_by_kind.get(kind, 0) + size
        entries += size
        first.setdefault(kind, time)
        last[kind] = time
    return {
        "messages_sent": len(sends),
        "by_kind": by_kind,
        "by_node": by_node,
        "payload_entries": entries,
        "payload_by_kind": payload_by_kind,
        "first_send_by_kind": first,
        "last_send_by_kind": last,
    }


def _ordered(stats):
    """Every SimStats field, with each dict field as its item list, so
    that key order counts too."""
    fields = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        fields[f.name] = (
            (type(value), list(value.items())) if isinstance(value, dict) else value
        )
    return fields


class _Scripted(ProtocolNode):
    """Makes its share of a drawn send stream, each send on a timer at
    its drawn time, and logs the sends in the order they happen."""

    def __init__(self, ctx, sends, log):
        super().__init__(ctx)
        self._sends = sends
        self._log = log

    def on_start(self):
        for index, send in enumerate(self._sends):
            if send[0] == self.node_id:
                self.ctx.set_timer(send[4], str(index))

    def on_timer(self, tag):
        sender, kind, data, dest, _ = self._sends[int(tag)]
        if dest is None:
            self.ctx.broadcast(kind, **data)
        else:
            # Every other node of the complete graph is a neighbor.
            self.ctx.send(dest if dest != sender else (sender + 1) % 5, kind, **data)
        self._log.append((sender, kind, data, self.ctx.now))


_K5 = Graph(edges=[(u, v) for u in range(5) for v in range(u + 1, 5)])


class TestSimStatsFoldInRuns:
    @settings(max_examples=80, deadline=None)
    @given(_MESSAGES, st.lists(st.floats(0.0, 50.0), max_size=3))
    def test_runs_equal_the_reference_fold(self, sends, deadlines):
        ordered = {}
        for engine in ("event", "batched"):
            log = []
            sim = make_simulator(
                _K5,
                lambda ctx: _Scripted(ctx, sends, log),
                SimConfig(engine=engine),
            )
            snapshots = []
            for until in [*sorted(deadlines), None]:
                stats = sim.run(until=until)
                fields = _ordered(stats)
                reference = _reference_fold(log)
                for name, fold in reference.items():
                    expected = list(fold.items()) if isinstance(fold, dict) else fold
                    if isinstance(getattr(stats, name), Counter):
                        expected = (Counter, expected)
                    elif isinstance(fold, dict):
                        expected = (dict, expected)
                    assert fields[name] == expected, name
                # A direct record_message caller folds the same way.
                direct = SimStats()
                for sender, kind, data, time in log:
                    direct.record_message(Message(sender, kind, data), time)
                direct_fields = _ordered(direct)
                assert {name: fields[name] for name in reference} == {
                    name: direct_fields[name] for name in reference
                }
                snapshots.append(fields)
            assert len(log) == len(sends)
            ordered[engine] = snapshots
        assert ordered["event"] == ordered["batched"]
