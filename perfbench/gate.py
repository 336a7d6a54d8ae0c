"""The correctness gate: in-process reference answers and their comparison.

Reference answers come from an in-process :class:`repro.store.ShardStore`
over the same store the server serves, computed before the timed window and
compared after it, so no reference work and no equality test runs inside
the window.  Bulk answers are checked by row count for every request and
row for row for the requests their :class:`~perfbench.inputs.Op` keeps.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from perfbench.inputs import Op


def expected(store, op: Op):
    """The in-process answer to *op*, in the served answer's form."""
    kind, args = op.kind, op.args
    if kind == "degree":
        return int(store.degree(args[0]))
    if kind == "neighbors":
        v = args[0]
        rows = store.edges_for_sources([v], with_payload=True)
        rows = rows[rows[:, 1] != v]
        return rows[:, 1], {name: rows[:, 2 + i]
                            for i, name in enumerate(store.payload_columns)}
    if kind == "edge_payloads":
        return store.edge_payloads(*args)
    if kind == "degrees":
        return store.degrees(args[0])
    if kind == "egonet":
        return store.egonet(args[0], with_payload=True)
    if kind == "edges_in_range":
        rows = store.edges_in_range(*args, with_payload=True)
        return rows if op.keep else rows.shape[0]
    raise ValueError(f"unknown request class {kind!r}")


def served(client, op: Op):
    """Send *op* through a :class:`repro.serve.QueryClient`; bulk answers
    not kept whole are reduced to their row count."""
    kind, args = op.kind, op.args
    if kind == "degree":
        return client.degree(args[0])
    if kind == "neighbors":
        return client.neighbors_with_payload(args[0])
    if kind == "edge_payloads":
        return client.edge_payloads(*args)
    if kind == "degrees":
        return client.degrees(args[0])
    if kind == "egonet":
        return client.egonet(args[0], with_payload=True)
    if kind == "edges_in_range":
        rows = client.edges_in_range(*args, with_payload=True, binary=True)
        return rows if op.keep else rows.shape[0]
    raise ValueError(f"unknown request class {kind!r}")


def rows_in(answer) -> int:
    """Rows an ``edges_in_range`` answer carried."""
    return answer if isinstance(answer, int) else int(answer.shape[0])


def _same_array(a, b) -> bool:
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b))


def same(kind: str, want, got) -> bool:
    """Whether a served answer equals the reference answer exactly."""
    if kind == "degree":
        return isinstance(got, int) and got == want
    if kind == "neighbors":
        return (_same_array(got[0], want[0]) and got[1].keys() == want[1].keys()
                and all(_same_array(got[1][k], want[1][k]) for k in want[1]))
    if kind in ("edge_payloads", "degrees"):
        return _same_array(got, want)
    if kind == "egonet":
        (got_ego, got_rows), (want_ego, want_rows) = got, want
        got_adj, want_adj = got_ego.graph.adjacency, want_ego.graph.adjacency
        return (got_ego.center == want_ego.center
                and _same_array(got_ego.vertices, want_ego.vertices)
                and got_adj.shape == want_adj.shape
                and (got_adj != want_adj).nnz == 0
                and _same_array(got_rows, want_rows))
    if kind == "edges_in_range":
        if isinstance(want, int) or isinstance(got, int):
            return rows_in(got) == rows_in(want)
        return _same_array(got, want)
    raise ValueError(f"unknown request class {kind!r}")


def references(store, streams: Sequence[Sequence[Op]]) -> List[list]:
    """Reference answers for every position of every client's stream.

    Answers are memoized per distinct request: Zipf streams repeat their
    hot keys, so most references cost a dictionary lookup.
    """
    memo: Dict[tuple, object] = {}
    out = []
    for stream in streams:
        answers = []
        for op in stream:
            key = (op.kind, op.keep) + tuple(
                a.tobytes() if isinstance(a, np.ndarray) else a
                for a in op.args)
            if key not in memo:
                memo[key] = expected(store, op)
            answers.append(memo[key])
        out.append(answers)
    return out


def mismatches(streams: Sequence[Sequence[Op]], refs: Sequence[list],
               results: Sequence[list]) -> List[dict]:
    """Every served answer that differs from its reference.

    *results[t]* lists ``(position, answer)`` for each request client *t*
    completed; a failed request is recorded as ``(position, None)`` and is
    counted as failed, not compared.
    """
    wrong = []
    for thread, (stream, want, got) in enumerate(zip(streams, refs, results)):
        for position, answer in got:
            if answer is None:
                continue
            op = stream[position % len(stream)]
            if not same(op.kind, want[position % len(stream)], answer):
                wrong.append({"thread": thread, "position": position,
                              "kind": op.kind})
    return wrong
