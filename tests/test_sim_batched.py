"""The batched engine's exactness contract against the event oracle.

``repro.sim.batched`` promises *bit-identical* runs — same SimStats,
same final protocol states, same traces — while batching same-tick
broadcast fan-out through the CSR audience tables.  These tests pin the
contract across the regression matrix (Algorithms I/II × ambient loss ×
a crash/partition plan × perturbed tie-breaks) and the engine-selection
API around it.
"""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import default_fault_plan
from repro.graphs import Graph, build_udg, connected_random_udg
from repro.mis import id_ranking
from repro.mis.distributed import MisNode
from repro.routing import flood_protocol
from repro.sim import (
    BatchedSimulator,
    ProtocolNode,
    SimConfig,
    Simulator,
    TraceRecorder,
    UniformLatency,
    make_simulator,
)
from repro.sim.engine import perturbed_schedule
from repro.wcds.algorithm1 import algorithm1_distributed
from repro.wcds.algorithm2 import algorithm2_distributed

GRAPH = connected_random_udg(26, 3.2, seed=4)
PLAN = default_fault_plan(GRAPH, crashes=2, partition=True, seed=3)

ALGORITHMS = {"algorithm1": algorithm1_distributed,
              "algorithm2": algorithm2_distributed}


def _stats_key(stats):
    """Every SimStats counter, as one comparable snapshot."""
    return {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
    }


def _outcome(algorithm, *, loss, plan, pert_seed, engine):
    """Full run fingerprint (or the failure) under one matrix cell."""
    config = SimConfig(
        loss_rate=loss,
        seed=17,
        fault_plan=plan if plan is not None else default_fault_plan(
            GRAPH, crashes=0, partition=False
        ),
        transport=bool(loss) or plan is not None,
        max_events=300_000,
        engine=engine,
    )
    run = ALGORITHMS[algorithm]
    with perturbed_schedule(pert_seed, None):
        try:
            result = run(GRAPH, sim=config)
        except RuntimeError as exc:
            return {"error": str(exc)}
    fingerprint = {
        "dominators": tuple(sorted(result.dominators, key=repr)),
        "mis": tuple(sorted(result.mis_dominators, key=repr)),
    }
    if "stats" in result.meta:  # Algorithm II: one run-wide SimStats
        fingerprint["stats"] = _stats_key(result.meta["stats"])
    else:  # Algorithm I: one SimStats per phase
        fingerprint["stats"] = {
            phase: _stats_key(stats)
            for phase, stats in result.meta["phase_stats"].items()
        }
    for key in ("levels", "leader", "colors"):
        if key in result.meta:
            fingerprint[key] = repr(result.meta[key])
    return fingerprint


class TestOracleEquality:
    @settings(deadline=None, max_examples=25)
    @given(
        algorithm=st.sampled_from(("algorithm1", "algorithm2")),
        loss=st.sampled_from((0.0, 0.3)),
        crash=st.booleans(),
        pert_seed=st.sampled_from((None, 1, 2, 3, 4, 5)),
    )
    def test_matrix_cell_matches_oracle(self, algorithm, loss, crash, pert_seed):
        plan = PLAN if crash else None
        batched = _outcome(
            algorithm, loss=loss, plan=plan, pert_seed=pert_seed,
            engine="batched",
        )
        oracle = _outcome(
            algorithm, loss=loss, plan=plan, pert_seed=pert_seed,
            engine="event",
        )
        assert batched == oracle

    def test_traced_run_is_bit_identical(self):
        ranking = id_ranking(GRAPH)
        logs = []
        for engine in ("batched", "event"):
            tracer = TraceRecorder()
            config = SimConfig(
                loss_rate=0.2, seed=5, fault_plan=PLAN, transport=True,
                engine=engine,
            )
            sim = make_simulator(
                GRAPH, lambda ctx: MisNode(ctx, ranking), config,
                tracer=tracer,
            )
            sim.run()
            logs.append(
                [(e.time, e.action, e.node, e.kind, e.sender)
                 for e in tracer.events]
            )
        assert logs[0] == logs[1]

    def test_jittered_latency_matches_oracle(self):
        def fingerprint(engine):
            config = SimConfig(
                latency=UniformLatency(0.5, 1.5, seed=9), engine=engine
            )
            result = algorithm2_distributed(GRAPH, sim=config)
            return (
                tuple(sorted(result.dominators, key=repr)),
                _stats_key(result.meta["stats"]),
            )

        assert fingerprint("batched") == fingerprint("event")

    def test_deadline_stepping_matches_oracle(self):
        ranking = id_ranking(GRAPH)

        def stepped(engine):
            sim = make_simulator(
                GRAPH, lambda ctx: MisNode(ctx, ranking),
                SimConfig(engine=engine),
            )
            snapshots = []
            for until in (0.5, 1.0, 2.5, 4.0, None):
                sim.run(until=until)
                snapshots.append((sim.now, _stats_key(sim.stats)))
            return snapshots

        assert stepped("batched") == stepped("event")


class TestEngineSelection:
    def test_default_is_batched_at_every_size(self):
        # No size rule: the default config builds the batched core below
        # 64 nodes too, down to a single edge and a single node.
        for graph in (
            Graph(nodes=[0]),
            Graph(edges=[(0, 1)]),
            connected_random_udg(20, 3.0, seed=1),
            connected_random_udg(63, 5.0, seed=2),
            connected_random_udg(70, 5.0, seed=2),
        ):
            assert isinstance(make_simulator(graph, ProtocolNode), BatchedSimulator)
            assert isinstance(
                make_simulator(graph, ProtocolNode, SimConfig()), BatchedSimulator
            )

    def test_unknown_engine_rejected(self):
        for engine in ("warp", "auto"):
            with pytest.raises(ValueError, match="unknown engine"):
                SimConfig(engine=engine)

    def test_make_simulator_honors_config(self):
        quiet = ProtocolNode
        for graph in (Graph(edges=[(0, 1)]), connected_random_udg(70, 5.0, seed=2)):
            assert isinstance(
                make_simulator(graph, quiet, SimConfig(engine="batched")),
                BatchedSimulator,
            )
            event = make_simulator(graph, quiet, SimConfig(engine="event"))
            assert isinstance(event, Simulator)
            assert not isinstance(event, BatchedSimulator)


def _mixed_ids(graph):
    """``graph`` with about 30% of its int ids renamed ``s<id>``."""
    rng = random.Random(len(graph))
    names = {n: f"s{n}" if rng.random() < 0.3 else n for n in graph.nodes()}
    return build_udg({names[n]: p for n, p in graph.positions.items()})


class TestMixedIds:
    def test_all_int_audience_keeps_its_own_order(self):
        # Globally "a" < 10 < 9 (repr order), but the int neighbour set
        # {9, 10} sorts naturally on its own, as the oracle sorts it.
        g = Graph(edges=[("a", 9), ("a", 10), (9, 10)])
        batched = BatchedSimulator(g, lambda ctx: ProtocolNode(ctx))
        event = Simulator(g, lambda ctx: ProtocolNode(ctx))
        for node in ("a", 9, 10):
            assert batched.audience_of(node) == event.audience_of(node)
        assert batched.audience_of("a") == (9, 10)

    @pytest.mark.parametrize("seed", range(10))
    def test_lossy_flood_matches_oracle(self, seed):
        graph = _mixed_ids(connected_random_udg(80, 5.0, seed=0))
        assert {type(n) for n in graph.nodes()} == {int, str}
        source = min(n for n in graph.nodes() if isinstance(n, int))

        def run(engine):
            outcome, stats = flood_protocol(
                graph, source, sim=SimConfig(loss_rate=0.3, seed=seed, engine=engine)
            )
            return outcome, _stats_key(stats)

        assert run("batched") == run("event")


class TestTopologyStaleness:
    def test_graph_version_counts_mutations(self):
        g = Graph(edges=[(0, 1)])
        v = g.version
        g.add_node(7)
        g.add_edge(1, 7)
        g.remove_edge(0, 1)
        g.remove_node(7)
        assert g.version == v + 4

    def test_audience_refreshes_after_mutation(self):
        heard = []

        class Beacon(ProtocolNode):
            def on_start(self):
                if self.node_id == 0:
                    self.ctx.set_timer(1.0, "again")
                    self.ctx.broadcast("PING")

            def on_timer(self, tag):
                self.ctx.broadcast("PING")

            def on_message(self, msg):
                heard.append((self.ctx.now, self.node_id))

        from repro.sim.node import NodeContext

        g = Graph(edges=[(0, 1)])
        sim = BatchedSimulator(g, lambda ctx: Beacon(ctx))
        # First broadcast (t=0) is cached against the 2-node topology.
        sim.run(until=0.5)
        g.add_node(2)
        g.add_edge(0, 2)
        sim.nodes[2] = Beacon(NodeContext(sim, 2))
        # The t=1 timer rebroadcast must see the refreshed audience.
        sim.run()
        assert (2.0, 2) in heard and (1.0, 1) in heard

    def test_shared_audience_cache_not_stale_across_simulators(self):
        heard = []

        class Shout(ProtocolNode):
            def on_start(self):
                if self.node_id == 0:
                    self.ctx.broadcast("HI")

            def on_message(self, msg):
                heard.append(self.node_id)

        g = Graph(edges=[(0, 1)])
        # First simulator numbers the graph (cached on it per version).
        BatchedSimulator(g, lambda ctx: Shout(ctx)).run()
        assert heard == [1]
        g.add_edge(0, 2)
        # A fresh simulator on the mutated graph must renumber, not
        # serve the cached 2-node numbering.
        heard.clear()
        BatchedSimulator(g, lambda ctx: Shout(ctx)).run()
        assert sorted(heard) == [1, 2]


class TestIdNumberedAudiences:
    """Ids that are exactly the ints ``0..n-1`` take the numbering's rows
    as audiences; every other id set keeps the per-sender path."""

    @staticmethod
    def _both(graph):
        return (
            BatchedSimulator(graph, lambda ctx: ProtocolNode(ctx)),
            Simulator(graph, lambda ctx: ProtocolNode(ctx)),
        )

    def test_rows_are_shared_for_zero_based_int_ids(self):
        graph = connected_random_udg(40, 4.0, seed=2)
        batched, event = self._both(graph)
        rows = graph.numbering().adj
        for node in graph.nodes():
            assert batched.audience_of(node) is rows[node]
            assert batched.audience_of(node) == event.audience_of(node)

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2), (2, 3), (1, 3)],  # not zero-based
            [(0, 1), (1, 3), (0, 3)],  # a gap
            [(False, True), (True, 2), (2, 0.5)],  # bools and a float
        ],
        ids=["offset", "gap", "non-int"],
    )
    def test_other_id_sets_keep_their_own_ids(self, edges):
        graph = Graph(edges=edges)
        batched, event = self._both(graph)
        for node in graph.nodes():
            got = batched.audience_of(node)
            want = event.audience_of(node)
            assert got == want
            assert [type(n) for n in got] == [type(n) for n in want]


class _Fragile(ProtocolNode):
    """Node 0 broadcasts once; node 3 raises on the delivery."""

    def on_start(self):
        if self.node_id == 0:
            self.ctx.broadcast("PING")

    def on_message(self, msg):
        if self.node_id == 3:
            raise KeyError("boom")


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_handler_exception_mid_fanout_counts_like_the_oracle(engine):
    # Star around 0: the fan-out reaches 1, 2, then 3 raises; the
    # raising delivery counts and 4 and 5 are never delivered.
    graph = Graph(edges=[(0, n) for n in range(1, 6)])
    sim = make_simulator(graph, _Fragile, SimConfig(engine=engine))
    with pytest.raises(KeyError):
        sim.run()
    assert sim.stats.deliveries == 3
    assert sim.stats.messages_sent == 1


def _frames_entered(send, *args, **data):
    """Names of the Python frames one call of ``send`` enters, leaving
    out the runtime sanitizer's wrapper (``pytest --sanitize`` patches
    ``transmit``)."""
    from repro.check import sanitize

    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename != sanitize.__file__:
            entered.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        send(*args, **data)
    finally:
        sys.setprofile(None)
    return entered


class _FragileStart(ProtocolNode):
    """Node 0 broadcasts at start; node 1 then raises in on_start."""

    def on_start(self):
        if self.node_id == 0:
            self.ctx.broadcast("PING")
        elif self.node_id == 1:
            raise KeyError("boom")


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_sends_before_a_raising_start_are_counted(engine):
    sim = make_simulator(Graph(edges=[(0, 1), (1, 2)]), _FragileStart,
                         SimConfig(engine=engine))
    with pytest.raises(KeyError):
        sim.run()
    assert sim.stats.messages_sent == 1
    assert sim.stats.by_kind == {"PING": 1} and sim.stats.by_node == {0: 1}


class _Quiet(ProtocolNode):
    """Sends only when a test calls its context."""


def test_a_send_enters_at_most_three_frames():
    # A send is the context method, transmit and SimStats.record_send:
    # the message is built without its __init__ and the graph is read
    # without a property or method call.
    sim = make_simulator(Graph(edges=[(0, 1), (1, 2)]), _Quiet,
                         SimConfig(engine="batched"))
    ctx = sim.nodes[1].ctx
    ctx.broadcast("WARM")  # the first broadcast fills the audience table
    broadcast = _frames_entered(ctx.broadcast, "PING", hops=1)
    unicast = _frames_entered(ctx.send, 2, "PING", hops=1)
    assert len(broadcast) <= 3, broadcast
    assert len(unicast) <= 3, unicast
    sim.run()
    assert sim.stats.by_kind == {"WARM": 1, "PING": 2}


class _Flood(ProtocolNode):
    """Floods one message from node 0."""

    def on_start(self):
        self.heard = self.node_id == 0
        if self.heard:
            self.ctx.broadcast("FLOOD")

    def on_message(self, msg):
        if not self.heard:
            self.heard = True
            self.ctx.broadcast("FLOOD")


@pytest.mark.parametrize("engine", ["batched", "event"])
@pytest.mark.parametrize("faults", [False, True])
def test_an_instance_keeps_at_most_thirty_attributes(engine, faults):
    # CPython 3.11 lets an instance share its attribute keys with its
    # class for at most 30 attributes; a 31st turns the instance's
    # values into a full dict, and every attribute read on the send and
    # delivery paths takes the slower lookup.
    from repro.obs import MetricsRegistry

    config = (
        SimConfig(engine=engine, fault_plan=PLAN, loss_rate=0.1, transport=True)
        if faults
        else SimConfig(engine=engine)
    )
    sim = make_simulator(GRAPH, _Flood, config, registry=MetricsRegistry())
    assert len(vars(sim)) <= 30, sorted(vars(sim))
    sim.run()
    assert sim.stats.messages_sent > 0
    assert len(vars(sim)) <= 30, sorted(vars(sim))
