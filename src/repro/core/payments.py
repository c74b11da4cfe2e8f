"""Payment determination phase (Algorithm 3, lines 22-28).

Given auction payments ``p^A`` and the incentive tree ``T``, the final
payment of user ``P_j`` is

    p_j = p^A_j + Σ_{P_i ∈ T_j, t_i ≠ t_j} (1/2)^{r_i} · p^A_i

where ``T_j`` is the descendant set of ``P_j`` and ``r_i`` the depth of the
*descendant* ``P_i`` (its distance to the platform root).  Three properties
of this rule matter and are exercised by the test suite:

* **Same-type exclusion** (``t_i ≠ t_j``): a user earns solicitation reward
  only from descendants serving *other* task types.  Sybil identities share
  the attacker's type, so an attacker can never route its own auction
  payment back to itself through the tree.
* **Depth decay** (``(1/2)^{r_i}``): splitting into a chain pushes every
  descendant one level deeper, halving their contribution to each ancestor
  while adding only one more recipient identity — Lemma 6.4's first attack
  is weakly losing precisely because ``(z+1)/2 <= z`` for ``z >= 1``.
* **Budget bound**: total referral outlay is at most
  ``Σ_j (r_j - 1)(1/2)^{r_j} p^A_j <= Σ_j p^A_j`` (§7-C discussion) since a
  depth-``r`` node has ``r - 1`` non-root ancestors.

The reference implementation is a single bottom-up pass maintaining, for
each node, the per-type weighted subtree sums — O(N·m) time, O(N·m) space —
so pathological deep chains stay linear.  A transparent quadratic
implementation (:func:`tree_payments_naive`) is kept for differential
testing.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.exceptions import TreeError
from repro.core.types import TaskType
from repro.obs.tracer import NullTracer
from repro.tree.incentive_tree import ROOT, IncentiveTree

__all__ = ["tree_payments", "tree_payments_naive", "DEFAULT_DECAY"]

#: The paper's decay base.  Sybil-proofness of the chain attack needs the
#: base to be at most 1/2 (Lemma 6.4: the split changes the reward by a
#: factor (z+1)·γ / z evaluated against 1, which is <= 1 for γ <= 1/2 and
#: z >= 1); the ablation benchmark explores other values.
DEFAULT_DECAY: float = 0.5


def tree_payments(
    tree: IncentiveTree,
    auction_payments: Mapping[int, float],
    task_types: Mapping[int, TaskType],
    *,
    decay: float = DEFAULT_DECAY,
    tracer: Optional[NullTracer] = None,
) -> Dict[int, float]:
    """Compute final payments ``p`` from auction payments and the tree.

    Parameters
    ----------
    tree:
        The incentive tree; every key of ``auction_payments`` and
        ``task_types`` that should earn or contribute must be a node.
    auction_payments:
        ``{user_id: p^A_j}``; ids missing from the mapping contribute and
        earn an auction payment of 0.
    task_types:
        ``{user_id: t_j}`` for every node in the tree (needed for the
        same-type exclusion).
    decay:
        The geometric decay base γ (paper: 1/2).
    tracer:
        Optional :mod:`repro.obs` tracer; when enabled the pass runs under
        a ``payments`` span and counts ``tree_payment_nodes``.

    Returns
    -------
    dict
        ``{user_id: p_j}`` for every node of the tree (zero payments
        included — callers prune if they wish).
    """
    if tracer is not None and tracer.enabled:
        num_nodes = len(tree)
        with tracer.span("payments", nodes=num_nodes, decay=decay):
            tracer.count("tree_payment_nodes", num_nodes)
            return _tree_payments_impl(tree, auction_payments, task_types, decay)
    return _tree_payments_impl(tree, auction_payments, task_types, decay)


def _tree_payments_impl(
    tree: IncentiveTree,
    auction_payments: Mapping[int, float],
    task_types: Mapping[int, TaskType],
    decay: float,
) -> Dict[int, float]:
    if not 0.0 < decay < 1.0:
        raise TreeError(f"decay must be in (0, 1), got {decay}")
    order = tree.bfs_order()
    if not order:
        return {}

    # Gather per-node scalars into flat arrays, indexed in BFS order.
    n = len(order)
    index = {node: i for i, node in enumerate(order)}
    parent_of = tree.to_parent_map()
    types_arr = np.empty(n, dtype=np.int64)
    pay_arr = np.zeros(n, dtype=np.float64)
    parent_arr = np.empty(n, dtype=np.int64)
    for i, node in enumerate(order):
        try:
            types_arr[i] = task_types[node]
        except KeyError:
            raise TreeError(f"node {node} has no task type") from None
        pay_arr[i] = auction_payments.get(node, 0.0)
        parent = parent_of[node]
        parent_arr[i] = -1 if parent == ROOT else index[parent]
    num_types = int(types_arr.max()) + 1

    # BFS order lists whole depth levels back to back and parents in BFS
    # order, so ``parent_arr`` is non-decreasing; level ``d+1`` is exactly
    # the nodes whose parent index falls inside level ``d``.  That recovers
    # every node's depth with one ``searchsorted`` per level instead of a
    # tree walk.
    if n > 1 and bool(np.any(np.diff(parent_arr) < 0)):
        raise TreeError("bfs order lost level contiguity")  # unreachable
    level_bounds = [0]
    while level_bounds[-1] < n:
        prev_end = level_bounds[-1]
        last_parent = -1 if prev_end == 0 else prev_end - 1
        end = int(np.searchsorted(parent_arr, last_parent, side="right"))
        if end <= prev_end:  # pragma: no cover - valid trees always progress
            raise TreeError("bfs order lost level contiguity")
        level_bounds.append(end)
    max_depth = len(level_bounds) - 1
    depth_arr = np.empty(n, dtype=np.int64)
    for d in range(1, max_depth + 1):
        depth_arr[level_bounds[d - 1] : level_bounds[d]] = d

    # Per-depth decay weights via scalar pow — the exact floats of the
    # per-node ``decay ** depth`` the accumulation below multiplies with.
    decay_pow = np.array(
        [decay ** d for d in range(max_depth + 1)], dtype=np.float64
    )
    contrib = decay_pow[depth_arr] * pay_arr

    # sub[i, t] = Σ over the subtree rooted at order[i] (node included) of
    # (decay ** r_u) * p^A_u restricted to nodes u of type t.
    #
    # BFS order groups nodes by depth, so the bottom-up pass runs level by
    # level: each level's rows are finalized with the nodes' own
    # contributions, then pushed onto the parents' rows with an unbuffered
    # ``np.add.at``.  Iterating each level in reverse BFS order makes the
    # per-cell addition sequence identical to the node-at-a-time reference
    # pass, keeping the results bitwise reproducible across both.
    sub = np.zeros((n, num_types), dtype=np.float64)
    for d in range(max_depth, 0, -1):
        lo, hi = level_bounds[d - 1], level_bounds[d]
        idx = np.arange(hi - 1, lo - 1, -1)
        sub[idx, types_arr[idx]] += contrib[idx]
        parents = parent_arr[idx]
        push = parents >= 0
        np.add.at(sub, parents[push], sub[idx[push]])

    # Descendant sum excluding same-type nodes; the node's own term is of
    # its own type, so it is excluded together with them.
    rows = np.arange(n)
    referral = sub.sum(axis=1) - sub[rows, types_arr]
    final = pay_arr + referral
    return dict(zip(order, final.tolist()))


# Differential-test reference, never on the serving path; the production
# tree_payments carries the span.
def tree_payments_naive(  # rit: noqa[RIT013]
    tree: IncentiveTree,
    auction_payments: Mapping[int, float],
    task_types: Mapping[int, TaskType],
    *,
    decay: float = DEFAULT_DECAY,
) -> Dict[int, float]:
    """Direct transcription of Algorithm 3 line 24 — O(N^2) reference.

    Iterates every node's descendant set explicitly.  Used in differential
    tests against :func:`tree_payments`; do not call on large trees.
    """
    if not 0.0 < decay < 1.0:
        raise TreeError(f"decay must be in (0, 1), got {decay}")
    depths = tree.depths()
    payments: Dict[int, float] = {}
    for node in tree.nodes():
        total = auction_payments.get(node, 0.0)
        for desc in tree.descendants(node):
            if task_types[desc] != task_types[node]:
                total += (decay ** depths[desc]) * auction_payments.get(desc, 0.0)
        payments[node] = total
    return payments
