"""Topology persistence: save and load deployments as JSON.

Experiments become shareable when the exact deployment can be written
to disk: node ids, positions, and the radius fully determine a
unit-disk graph, so that is all the format stores (edges are
reconstructed on load).  Plain graphs (no positions) store their edge
list instead.
"""

from __future__ import annotations

import json
from typing import IO, Union

from repro.geometry.point import Point
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph

FORMAT_VERSION = 1


def udg_to_dict(udg: UnitDiskGraph) -> dict:
    """The JSON-ready representation of a unit-disk graph."""
    return {
        "format": "udg",
        "version": FORMAT_VERSION,
        "radius": udg.radius,
        "nodes": [
            {"id": node, "x": pos.x, "y": pos.y}
            for node, pos in sorted(udg.positions.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def udg_from_dict(payload: dict) -> UnitDiskGraph:
    """Rebuild a unit-disk graph saved by :func:`udg_to_dict`."""
    if payload.get("format") != "udg":
        raise ValueError(f"not a UDG payload: format={payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {payload.get('version')!r}")
    positions = {
        entry["id"]: Point(float(entry["x"]), float(entry["y"]))
        for entry in payload["nodes"]
    }
    if len(positions) != len(payload["nodes"]):
        raise ValueError("duplicate node ids in payload")
    return UnitDiskGraph(positions, radius=float(payload["radius"]))


def graph_to_dict(graph: Graph) -> dict:
    """The JSON-ready representation of a plain graph."""
    return {
        "format": "graph",
        "version": FORMAT_VERSION,
        "nodes": sorted(graph.nodes(), key=repr),
        "edges": sorted(
            (sorted((u, v), key=repr) for u, v in graph.edges()), key=repr
        ),
    }


def graph_from_dict(payload: dict) -> Graph:
    """Rebuild a plain graph saved by :func:`graph_to_dict`."""
    if payload.get("format") != "graph":
        raise ValueError(f"not a graph payload: format={payload.get('format')!r}")
    return Graph(nodes=payload["nodes"], edges=[tuple(e) for e in payload["edges"]])


def save_topology(graph: Union[Graph, UnitDiskGraph], path: str) -> None:
    """Write a topology to ``path`` as JSON."""
    if isinstance(graph, UnitDiskGraph):
        payload = udg_to_dict(graph)
    else:
        payload = graph_to_dict(graph)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def load_topology(path: str) -> Union[Graph, UnitDiskGraph]:
    """Read a topology saved by :func:`save_topology`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("not a topology object")
    if payload.get("format") == "udg":
        return udg_from_dict(payload)
    if payload.get("format") == "graph":
        return graph_from_dict(payload)
    raise ValueError(f"unknown topology format {payload.get('format')!r}")
