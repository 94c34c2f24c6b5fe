"""Failure-injection semantics of the distributed protocols.

The paper assumes reliable local broadcast; these tests pin down what
our implementations do OUTSIDE that assumption — detection, not silent
corruption:

* message loss can stall the marking protocols (a node waits forever
  for a GRAY it will never hear); the run then quiesces with white
  nodes and the driver raises instead of returning a bogus set;
* crashed nodes partition the protocol exactly like the graph;
* with loss = 0 the protocols are deterministic regardless of seeds.

(The reliable transport in :mod:`repro.transport` lifts these
limitations; see tests/test_transport.py and tests/test_faults.py.)
"""

import pytest

from repro.graphs import Graph, connected_random_udg, line_udg
from repro.mis import greedy_mis, id_ranking, run_mis
from repro.mis.distributed import MisNode
from repro.sim import SimConfig, Simulator, UniformLatency
from repro.wcds import algorithm2_distributed
from repro.wcds.algorithm2 import Algorithm2Node


class TestMessageLoss:
    def test_lost_black_message_stalls_and_is_detected(self):
        # On a chain, losing node 0's BLACK leaves node 1 white forever:
        # the driver must surface it, not fabricate an answer.
        g = line_udg(6)
        with pytest.raises(RuntimeError, match="terminate"):
            _run_mis_with_loss(g, loss_rate=0.9, seed=4)

    def test_mild_loss_either_succeeds_exactly_or_raises(self):
        # Whatever the loss pattern, a returned MIS must be THE greedy
        # MIS (messages are never corrupted, only dropped).
        g = connected_random_udg(20, 3.2, seed=9)
        for seed in range(10):
            try:
                mis = _run_mis_with_loss(g, loss_rate=0.05, seed=seed)
            except RuntimeError:
                continue
            assert mis == greedy_mis(g)

    def test_zero_loss_never_raises(self):
        g = connected_random_udg(25, 3.5, seed=1)
        for seed in range(5):
            result = run_mis(g, sim=SimConfig(seed=seed))
            assert set(result.dominators) == greedy_mis(g)


class TestCrashes:
    def test_crashed_node_excluded_from_protocol(self):
        # Crash node 0 (lowest id) before the run: node 1 no longer
        # waits for it and the surviving chain marks as if 0 were gone.
        g = line_udg(6)
        ranking = id_ranking(g)
        sim = Simulator(g, lambda ctx: MisNode(ctx, ranking))
        sim.crash_node(0)
        sim.run()
        results = sim.collect_results()
        # Node 1 still waits for node 0's declaration: it stays white —
        # visible, not hidden.
        assert results[1]["color"] == "white"

    def test_crash_after_declaration_is_harmless(self):
        # Let the protocol run to completion, then crash: results stand.
        g = connected_random_udg(15, 3.0, seed=2)
        ranking = id_ranking(g)
        sim = Simulator(g, lambda ctx: MisNode(ctx, ranking))
        sim.run()
        sim.crash_node(min(g.nodes()))
        results = sim.collect_results()
        mis = {n for n, res in results.items() if res["color"] == "black"}
        assert mis == greedy_mis(g)


class TestDeterminism:
    def test_algorithm2_same_result_across_latency_seeds(self):
        g = connected_random_udg(25, 3.5, seed=5)
        baseline = algorithm2_distributed(g).mis_dominators
        for seed in range(4):
            result = algorithm2_distributed(
                g, sim=SimConfig(latency=UniformLatency(seed=seed))
            )
            # The MIS is latency-invariant; connectors may differ but
            # stay valid (checked by validate).
            assert result.mis_dominators == baseline
            result.validate(g)


def _run_mis_with_loss(graph, loss_rate, seed):
    run_mis(graph, sim=SimConfig(seed=seed))  # sanity: lossless works

    # Re-run with loss through the underlying simulator.
    ranking = id_ranking(graph)
    sim = Simulator(
        graph,
        lambda ctx: MisNode(ctx, ranking),
        SimConfig(loss_rate=loss_rate, seed=seed),
    )
    sim.run()
    results = sim.collect_results()
    undecided = [n for n, res in results.items() if res["color"] == "white"]
    if undecided:
        raise RuntimeError(f"marking did not terminate: {undecided!r}")
    return {n for n, res in results.items() if res["color"] == "black"}
