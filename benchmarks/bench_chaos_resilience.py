"""Chaos-harness resilience: retransmit overhead vs Theorem 12.

Theorem 12 prices the fault-free protocols (O(n) messages for
Algorithm II, O(n log n) for Algorithm I — see
:mod:`repro.obs.cost`).  The reliable transport buys fault tolerance
with extra traffic: acks, heartbeats, and retransmissions.  This
benchmark checks that the price is a *constant factor*, i.e. that at
loss rate 0.1

* payload traffic (protocol messages, including retransmissions) stays
  within ``PAYLOAD_FACTOR`` of the fault-free transport run, and
  within ``ENVELOPE_FACTOR`` of the bare (transport-less) Theorem 12
  message count; and
* total traffic (payload + acks + heartbeats) stays within
  ``TOTAL_FACTOR`` of the fault-free transport run,

and that a full chaos plan (loss burst + two mid-phase crashes + one
healed partition) still yields a valid WCDS on the survivors.

The factors are deliberately loose bounds, not tuning targets: at loss
``p`` each link-level send is expected ``1/(1-p)`` transmissions
(~1.11 at p=0.1), but a lost *broadcast* is re-sent per-neighbor as
unicast and lost acks trigger spurious retransmits, so the measured
payload factor sits near 2x; the bounds add headroom on top of that
while still catching an accidental O(n)-per-loss blow-up.
"""

from __future__ import annotations

from typing import Dict, List

from bench_utils import run_once, show
from repro.faults import CHAOS_ALGORITHMS, FaultPlan, default_fault_plan, run_chaos
from repro.graphs import connected_random_udg
from repro.sim import SimConfig

NODES = 60
SIDE = 6.0
GRAPH_SEED = 7
RUN_SEED = 11
LOSS = 0.1

#: Lossy payload traffic vs the fault-free *transport* run.
PAYLOAD_FACTOR = 3.0
#: Lossy total traffic (incl. acks/heartbeats) vs the fault-free run.
TOTAL_FACTOR = 2.5
#: Lossy payload traffic vs the *bare* Theorem 12 message count.
ENVELOPE_FACTOR = 4.0


def _measure() -> List[Dict[str, object]]:
    graph = connected_random_udg(NODES, SIDE, seed=GRAPH_SEED)
    rows: List[Dict[str, object]] = []
    for algorithm in CHAOS_ALGORITHMS:
        reliable = SimConfig(seed=RUN_SEED, transport=True)
        lossy_sim = SimConfig(loss_rate=LOSS, seed=RUN_SEED, transport=True)
        bare = run_chaos(
            algorithm, graph, FaultPlan(), sim=SimConfig(seed=RUN_SEED),
        )
        clean = run_chaos(algorithm, graph, FaultPlan(), sim=reliable)
        lossy = run_chaos(algorithm, graph, FaultPlan(), sim=lossy_sim)
        chaos = run_chaos(
            algorithm, graph,
            default_fault_plan(graph, loss=LOSS, crashes=2, seed=3),
            sim=lossy_sim,
        )
        for mode, report in (
            ("bare", bare), ("reliable", clean),
            (f"loss={LOSS}", lossy), ("chaos", chaos),
        ):
            rows.append(
                {
                    "algorithm": algorithm,
                    "mode": mode,
                    "valid": report.valid,
                    "messages": report.messages_total,
                    "payload": report.payload_messages,
                    "control": report.control_messages,
                    "retransmits": report.retransmissions,
                    "epochs": report.epochs,
                }
            )
        payload_factor = lossy.payload_messages / max(1, clean.payload_messages)
        total_factor = lossy.messages_total / max(1, clean.messages_total)
        envelope_factor = lossy.payload_messages / max(1, bare.messages_total)
        rows.append(
            {
                "algorithm": algorithm,
                "mode": "overhead",
                "valid": lossy.valid and chaos.valid,
                "messages": f"x{total_factor:.2f}",
                "payload": f"x{payload_factor:.2f}",
                "control": f"env x{envelope_factor:.2f}",
                "retransmits": lossy.retransmissions,
                "epochs": "",
            }
        )
        assert bare.valid and clean.valid and lossy.valid, (
            f"{algorithm}: loss-free/lossy run produced an invalid backbone"
        )
        assert chaos.valid, (
            f"{algorithm}: chaos plan broke the backbone: {chaos.notes}"
        )
        assert payload_factor <= PAYLOAD_FACTOR, (
            f"{algorithm}: payload overhead x{payload_factor:.2f} exceeds "
            f"x{PAYLOAD_FACTOR} at loss {LOSS}"
        )
        assert total_factor <= TOTAL_FACTOR, (
            f"{algorithm}: total overhead x{total_factor:.2f} exceeds "
            f"x{TOTAL_FACTOR} at loss {LOSS}"
        )
        assert envelope_factor <= ENVELOPE_FACTOR, (
            f"{algorithm}: lossy payload x{envelope_factor:.2f} of the "
            f"Theorem 12 fault-free count exceeds x{ENVELOPE_FACTOR}"
        )
    return rows


def test_chaos_retransmit_overhead_constant_factor(benchmark):
    rows = run_once(benchmark, _measure)
    show(
        f"Chaos resilience: n={NODES}, loss={LOSS} "
        f"(bounds: payload x{PAYLOAD_FACTOR}, total x{TOTAL_FACTOR}, "
        f"envelope x{ENVELOPE_FACTOR})",
        rows,
    )
