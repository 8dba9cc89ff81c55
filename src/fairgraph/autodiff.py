"""The model's reverse pass in closed form, and the array kernels it shares
with the forward pass and the losses.

`grad` maps the loss's gradients with respect to the latent matrix H and
the predictor's logit to the gradients of the six parameters, through the
predictor and the two encoder layers, reading what it needs off the
forward cache that `model.encode` keeps. Every sum runs in a fixed order,
so repeated runs are bit-identical. `logistic` is the overflow-free
sigmoid; `unit_rows` and `unit_rows_backward` are the row normalisation
and its reverse, which the contrast and invariance losses use.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError


def logistic(x):
    """1 / (1 + exp(-x)) elementwise, never overflowing: negative entries
    take the exp(x) / (1 + exp(x)) form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def unit_rows(x):
    """Rows of the array x scaled to unit L2 norm (all-zero rows stay zero),
    and the (n, 1) column of norms."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return x / np.where(norms > 0, norms, 1.0), norms


def unit_rows_backward(g, u, norms):
    """Gradient with respect to x, given the gradient g with respect to u,
    where (u, norms) = unit_rows(x); zero rows get zero."""
    back = (g - u * (g * u).sum(axis=1, keepdims=True)) / np.where(norms > 0, norms, 1.0)
    return np.where(norms > 0, back, 0.0)


class NeighborAggregator:
    """Per-node neighbour means over a fixed graph, as one sparse operator.

    `adj` is the unit-weight symmetric closure of the graph's edge array in
    scipy's canonical CSR form, each row's neighbours in ascending order;
    `inv_deg` is 1/degree (0 for isolated nodes). The weights stay 1 and the
    scaling by 1/degree comes after the product, so every mean is the exact
    sum of its neighbours, added in ascending id order from zero, times
    1/degree.
    """

    def __init__(self, graph):
        n, ea = graph.n, graph.edge_array
        closure = (np.concatenate([ea[:, 0], ea[:, 1]]), np.concatenate([ea[:, 1], ea[:, 0]]))
        self.n = n
        self.adj = sp.csr_matrix((np.ones(2 * graph.m), closure), shape=(n, n))
        deg = np.diff(self.adj.indptr)
        self.inv_deg = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)


def row_mean_neighbors(x, agg):
    """Mean of neighbour rows per node of the array x; isolated nodes get a
    zero row. `agg` is the graph's NeighborAggregator."""
    if x.shape[0] != agg.n:
        raise ShapeError(f"row count {x.shape[0]} != node count {agg.n}")
    return (agg.adj @ x) * agg.inv_deg[:, None]


def row_mean_neighbors_backward(g, agg):
    """Gradient with respect to x of row_mean_neighbors(x, agg), given the
    gradient g of its output. The adjacency is symmetric, so this is a
    product with `adj` itself: row i adds g_j / deg_j over its neighbours j
    in ascending order, from zero."""
    return agg.adj @ (g * agg.inv_deg[:, None])


def grad(params, latent, g_h, g_logit):
    """Gradients [dW1, db1, dW2, db2, dw, db] of a loss, in the order of
    `params.arrays()`, given its gradient g_h with respect to H (every
    term's, the prediction's share of the C columns included) and g_logit
    with respect to the predictor's logit.

    `latent` is the LatentState that `model.encode` returned for the
    model.Params `params`; its forward cache holds the layer inputs
    [X | mean X] and [H1 | mean H1], the ReLU mask and the content block C.
    """
    g_w = latent.c.T @ g_logit
    g_b = g_logit.sum(axis=0)
    g_w2 = latent.z2.T @ g_h
    g_b2 = g_h.sum(axis=0)
    g_z2 = g_h @ params.w2.T
    hidden = latent.active.shape[1]
    g_h1 = g_z2[:, :hidden] + row_mean_neighbors_backward(g_z2[:, hidden:], latent.agg)
    g_a1 = g_h1 * latent.active
    g_w1 = latent.z1.T @ g_a1
    g_b1 = g_a1.sum(axis=0)
    return [g_w1, g_b1, g_w2, g_b2, g_w, g_b]
