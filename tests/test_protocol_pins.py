"""Literal fingerprints of the marking and Algorithm II protocols on
their fault paths.

The batched==event sweep in ``test_sim_batched.py`` runs one node class
on both engines, so it cannot see a change to the node's own
semantics.  These pins can: each case records the backbone, the
message counts and every node's final state as literals, on both
engines.  The cases are the ones where a "heard from every neighbour"
barrier meets a changing live-neighbour view: crashes without a
transport, loss under the reliable transport (which suspects silent
peers), jittered latency, and edges removed and added mid-run.
"""

import pytest

from repro.faults import default_fault_plan
from repro.graphs import connected_random_udg
from repro.mis import id_ranking, run_mis
from repro.mis.distributed import MisNode
from repro.sim import SimConfig, UniformLatency, make_simulator
from repro.wcds.algorithm2 import Algorithm2Node, algorithm2_distributed

ENGINES = ("event", "batched")


def _graph():
    return connected_random_udg(40, 4.0, seed=5)


def _fingerprint(results, stats, backbone=None):
    nodes = sorted(results)
    out = {
        "colors": "".join(results[n]["color"][0] for n in nodes),
        "additional": sorted(n for n in nodes if results[n].get("is_additional")),
        "messages": stats.messages_sent,
        "deliveries": stats.deliveries,
        "by_kind": dict(sorted(stats.by_kind.items())),
    }
    if backbone is not None:
        out["backbone"] = sorted(backbone)
    return out


def _entry_point(protocol, config):
    graph = _graph()
    if protocol == "alg2":
        run = algorithm2_distributed(graph, sim=config)
        results = run.meta["node_state"]
    else:
        run = run_mis(graph, sim=config)
        results = {n: {"color": c} for n, c in run.meta["colors"].items()}
    return _fingerprint(results, run.meta["stats"], run.dominators)


def _crash(protocol, engine, plan_seed):
    graph = _graph()
    plan = default_fault_plan(graph, crashes=3, partition=False, seed=plan_seed)
    return _entry_point(protocol, SimConfig(fault_plan=plan, engine=engine))


def _lossy_transport(protocol, engine):
    return _entry_point(
        protocol,
        SimConfig(loss_rate=0.3, seed=11, transport=True, engine=engine),
    )


def _crash_transport(protocol, engine, loss=0.0):
    graph = _graph()
    plan = default_fault_plan(graph, crashes=3, partition=False, seed=6)
    return _entry_point(
        protocol,
        SimConfig(
            fault_plan=plan, seed=11, loss_rate=loss, transport=True,
            engine=engine,
        ),
    )


def _jittered(protocol, engine):
    latency = UniformLatency(0.5, 1.5, seed=9)
    return _entry_point(protocol, SimConfig(latency=latency, engine=engine))


def _rewired(protocol, engine):
    """Stop mid-run, drop two edges and add two, run to quiescence."""
    graph = _graph()
    ranking = id_ranking(graph)
    node_class = Algorithm2Node if protocol == "alg2" else MisNode
    sim = make_simulator(
        graph, lambda ctx: node_class(ctx, ranking), SimConfig(engine=engine)
    )
    sim.run(until=2.0)
    graph.remove_edge(*_REMOVED[0])
    graph.remove_edge(*_REMOVED[1])
    graph.add_edge(*_ADDED[0])
    graph.add_edge(*_ADDED[1])
    sim.run()
    return _fingerprint(sim.collect_results(), sim.stats)


_REMOVED = ((5, 10), (35, 39))
_ADDED = ((3, 20), (13, 33))

CASES = {
    "crash-plan6": lambda p, e: _crash(p, e, 6),
    "crash-plan1": lambda p, e: _crash(p, e, 1),
    "crash-plan2": lambda p, e: _crash(p, e, 2),
    "crash-plan3": lambda p, e: _crash(p, e, 3),
    "crash-transport": _crash_transport,
    "crash-loss-transport": lambda p, e: _crash_transport(p, e, 0.2),
    "loss-transport": _lossy_transport,
    "jittered": _jittered,
    "rewired": _rewired,
}

#: Recorded from the marking and Algorithm II nodes before their
#: handlers were flattened onto counter barriers.
EXPECTED = {('crash-loss-transport', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggwgggggg',
                                    'additional': [2, 24, 25, 26, 28],
                                    'messages': 1558,
                                    'deliveries': 2116,
                                    'by_kind': {'1-HOP-DOMINATORS': 113,
                                                '2-HOP-DOMINATORS': 113,
                                                'ADDITIONAL-DOMINATOR': 21,
                                                'ADDITIONAL-RELAY': 13,
                                                'GRAY': 115,
                                                'MIS-DOMINATOR': 44,
                                                'SELECTION': 12,
                                                'TRANSPORT-ACK': 607,
                                                'TRANSPORT-HB': 520},
                                    'backbone': [0, 1, 2, 3, 4, 5, 6, 9, 13, 14, 23, 24,
                                                 25, 26, 28]},
 ('crash-loss-transport', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggwgggggg',
                                   'additional': [],
                                   'messages': 792,
                                   'deliveries': 1141,
                                   'by_kind': {'BLACK': 46,
                                               'GRAY': 122,
                                               'TRANSPORT-ACK': 225,
                                               'TRANSPORT-HB': 399},
                                   'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23]},
 ('crash-plan1', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                           'additional': [21, 24, 25, 26, 28, 30],
                           'messages': 119,
                           'deliveries': 535,
                           'by_kind': {'1-HOP-DOMINATORS': 29,
                                       '2-HOP-DOMINATORS': 29,
                                       'ADDITIONAL-DOMINATOR': 8,
                                       'ADDITIONAL-RELAY': 5,
                                       'GRAY': 29,
                                       'MIS-DOMINATOR': 11,
                                       'SELECTION': 8},
                           'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 21, 24, 25, 26, 28,
                                        30, 33]},
 ('crash-plan1', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                          'additional': [],
                          'messages': 40,
                          'deliveries': 198,
                          'by_kind': {'BLACK': 11, 'GRAY': 29},
                          'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 33]},
 ('crash-plan2', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                           'additional': [21, 24, 25, 28, 30],
                           'messages': 117,
                           'deliveries': 535,
                           'by_kind': {'1-HOP-DOMINATORS': 29,
                                       '2-HOP-DOMINATORS': 28,
                                       'ADDITIONAL-DOMINATOR': 7,
                                       'ADDITIONAL-RELAY': 5,
                                       'GRAY': 29,
                                       'MIS-DOMINATOR': 11,
                                       'SELECTION': 8},
                           'backbone': [0, 1, 3, 5, 6, 9, 13, 14, 21, 23, 24, 25, 28,
                                        30, 33]},
 ('crash-plan2', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                          'additional': [],
                          'messages': 40,
                          'deliveries': 200,
                          'by_kind': {'BLACK': 11, 'GRAY': 29},
                          'backbone': [0, 1, 3, 5, 6, 9, 13, 14, 23, 33]},
 ('crash-plan3', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                           'additional': [21, 24, 25, 26, 30],
                           'messages': 117,
                           'deliveries': 529,
                           'by_kind': {'1-HOP-DOMINATORS': 29,
                                       '2-HOP-DOMINATORS': 28,
                                       'ADDITIONAL-DOMINATOR': 7,
                                       'ADDITIONAL-RELAY': 6,
                                       'GRAY': 29,
                                       'MIS-DOMINATOR': 11,
                                       'SELECTION': 7},
                           'backbone': [0, 1, 3, 4, 6, 9, 13, 21, 23, 24, 25, 26, 30,
                                        33]},
 ('crash-plan3', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                          'additional': [],
                          'messages': 40,
                          'deliveries': 200,
                          'by_kind': {'BLACK': 11, 'GRAY': 29},
                          'backbone': [0, 1, 3, 4, 6, 9, 13, 23, 33]},
 ('crash-plan6', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggwgggggg',
                           'additional': [24, 25, 26, 28, 30],
                           'messages': 111,
                           'deliveries': 512,
                           'by_kind': {'1-HOP-DOMINATORS': 28,
                                       '2-HOP-DOMINATORS': 25,
                                       'ADDITIONAL-DOMINATOR': 7,
                                       'ADDITIONAL-RELAY': 5,
                                       'GRAY': 29,
                                       'MIS-DOMINATOR': 10,
                                       'SELECTION': 7},
                           'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23, 24, 25, 26, 28,
                                        30]},
 ('crash-plan6', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggwgggggg',
                          'additional': [],
                          'messages': 39,
                          'deliveries': 197,
                          'by_kind': {'BLACK': 10, 'GRAY': 29},
                          'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23]},
 ('crash-transport', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggwgggggg',
                               'additional': [24, 25, 26, 28, 30],
                               'messages': 920,
                               'deliveries': 1660,
                               'by_kind': {'1-HOP-DOMINATORS': 33,
                                           '2-HOP-DOMINATORS': 48,
                                           'ADDITIONAL-DOMINATOR': 15,
                                           'ADDITIONAL-RELAY': 5,
                                           'GRAY': 33,
                                           'MIS-DOMINATOR': 10,
                                           'SELECTION': 7,
                                           'TRANSPORT-ACK': 512,
                                           'TRANSPORT-HB': 257},
                               'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23, 24, 25, 26,
                                            28, 30]},
 ('crash-transport', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggwgggggg',
                              'additional': [],
                              'messages': 436,
                              'deliveries': 812,
                              'by_kind': {'BLACK': 10,
                                          'GRAY': 33,
                                          'TRANSPORT-ACK': 197,
                                          'TRANSPORT-HB': 196},
                              'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23]},
 ('jittered', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                        'additional': [2, 10, 21, 24, 26, 37],
                        'messages': 122,
                        'deliveries': 560,
                        'by_kind': {'1-HOP-DOMINATORS': 29,
                                    '2-HOP-DOMINATORS': 29,
                                    'ADDITIONAL-DOMINATOR': 8,
                                    'ADDITIONAL-RELAY': 8,
                                    'GRAY': 29,
                                    'MIS-DOMINATOR': 11,
                                    'SELECTION': 8},
                        'backbone': [0, 1, 2, 3, 4, 5, 6, 9, 10, 13, 14, 21, 23, 24, 26,
                                     33, 37]},
 ('jittered', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                       'additional': [],
                       'messages': 40,
                       'deliveries': 200,
                       'by_kind': {'BLACK': 11, 'GRAY': 29},
                       'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23, 33]},
 ('loss-transport', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                              'additional': [2, 10, 21, 24, 25, 26, 37],
                              'messages': 2447,
                              'deliveries': 3421,
                              'by_kind': {'1-HOP-DOMINATORS': 184,
                                          '2-HOP-DOMINATORS': 165,
                                          'ADDITIONAL-DOMINATOR': 59,
                                          'ADDITIONAL-RELAY': 16,
                                          'GRAY': 207,
                                          'MIS-DOMINATOR': 53,
                                          'SELECTION': 22,
                                          'TRANSPORT-ACK': 757,
                                          'TRANSPORT-HB': 984},
                              'backbone': [0, 1, 2, 3, 4, 5, 6, 9, 10, 13, 14, 21, 23,
                                           24, 25, 26, 33, 37]},
 ('loss-transport', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                             'additional': [],
                             'messages': 1094,
                             'deliveries': 1563,
                             'by_kind': {'BLACK': 50,
                                         'GRAY': 189,
                                         'TRANSPORT-ACK': 269,
                                         'TRANSPORT-HB': 586},
                             'backbone': [0, 1, 3, 4, 5, 6, 9, 13, 14, 23, 33]},
 ('rewired', 'alg2'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                       'additional': [21, 24, 25, 26, 28, 30],
                       'messages': 119,
                       'deliveries': 534,
                       'by_kind': {'1-HOP-DOMINATORS': 29,
                                   '2-HOP-DOMINATORS': 26,
                                   'ADDITIONAL-DOMINATOR': 8,
                                   'ADDITIONAL-RELAY': 8,
                                   'GRAY': 29,
                                   'MIS-DOMINATOR': 11,
                                   'SELECTION': 8}},
 ('rewired', 'mis'): {'colors': 'bbgbbbbggbgggbbggggggggbgggggggggbgggggg',
                      'additional': [],
                      'messages': 40,
                      'deliveries': 201,
                      'by_kind': {'BLACK': 11, 'GRAY': 29}}}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", ("alg2", "mis"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_fingerprint(case, protocol, engine):
    assert CASES[case](protocol, engine) == EXPECTED[(case, protocol)]


def test_naive_counter_case_is_pinned():
    """The crash-without-transport case that a barrier counted only on
    message arrival gets wrong: one 1-HOP-DOMINATORS fewer."""
    pin = EXPECTED[("crash-plan6", "alg2")]
    assert pin["messages"] == 111
    assert pin["by_kind"]["1-HOP-DOMINATORS"] == 28
