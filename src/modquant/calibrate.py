"""Reconstruction-loss calibration of smoothing scales and branch gates.

Plain gradient descent with a cosine-decayed learning rate minimizes the
mean squared error between the quantized forward pass and the unquantized
reference output.  Gradients flow through rounding with the straight-through
estimator: the identity, and zero where an activation quantizer clamps (the
weight quantizer never clamps); scales and zero-points are stop-gradient.
``analytic_gradient`` is the only gradient; the test suite checks it against
the complex-step derivative of the forward pass with every quantizer frozen
at its base-pass value (and an activation quantizer at its mask).

The learned parameters are read from the layer itself: the logarithms of
its per-channel scales, so a step cannot cross zero, then the gates of the
branches that are present.  The learning rate is sized for the log-scales,
so each step clips the gates to [0, 2]; unbounded, a gate can overshoot
through zero and the loss diverge.  The returned layer holds exactly the
scales that the best step multiplied by, so a saved and reloaded layer
reproduces its loss.
The gradient reads the layer's one ``ForwardPass`` record, whose columns
and rows are in path order: it takes one product per path block into the
gradients at the two quantizer inputs, multiplies by the activation mask
only when there is one, and takes the log-scale gradient once over the whole
width, scattered back to channel order; a gate's gradient reads its branch's
product from the record.  The gradient buffers are scaled in place.  A step
changes only scales and gates, so ``calibrate`` builds one ``layer.prepare``
record per call (the batch's columns and the weight's rows in path order),
every step reads it, and a step's layer is a ``dataclasses.replace`` copy,
which checks nothing.  The
last step only evaluates the loss: the update it would make is
never evaluated, so it takes no gradient.  A non-finite loss or gradient
raises ``NonFiniteLossError``.

``stability_report`` only draws token subsets and compares their picks: it
hands the reference's and every trial's rows, each a (text rows, vision
rows) pair as ``_stratified_subset`` draws it, to one ``mocd._select`` call,
which shares the rank counts and batches the scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import transform as tr
from .layer import Prepared, SplitLayer, forward_reference, forward_with_cache, prepare
from .lowrank import LowRankBranch
from .mocd import MocdConfig, _select, jaccard
from .tensor import ActivationBatch

_LOG_LO = np.log(tr.DIAG_EPS)
_LOG_HI = np.log(tr.DIAG_MAX)
_GATE_MAX = 2.0


@dataclass(frozen=True)
class CalibConfig:
    steps: int = 200
    # Log-scale and gate parameters live on an O(1) scale while the MSE loss
    # surface around the smoothing init is quite flat; unit step size with the
    # cosine decay moves them far enough to matter within 200 steps.
    learning_rate: float = 1.0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be in (0, inf), got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError("steps must be positive")


@dataclass
class LossTrace:
    losses: list[float] = field(default_factory=list)

    @property
    def best_loss(self) -> float:
        return min(self.losses)

    @property
    def best_step(self) -> int:
        return int(np.argmin(self.losses))


class NonFiniteLossError(RuntimeError):
    """A non-finite loss, or gradient, at a calibration step."""


def _params(layer: SplitLayer) -> np.ndarray:
    """The learned parameters as one vector: the log-scales in channel order,
    then the CWS gate if that branch is present, then the MAC gate."""
    gates = [br.gate for br in (layer.branch_smooth, layer.branch_comp) if br is not None]
    return np.concatenate([np.log(layer.scale), *gates])


def _with_params(layer: SplitLayer, theta: np.ndarray) -> SplitLayer:
    """A copy of ``layer`` whose learned parameters are ``theta``.  Only the
    scales and gates change, and no shape with them; the copy shares the
    weight and the branch factors."""
    offset = layer.partition.dim
    # Clipped to the bounds that load_layer checks (transform.checked_scale).
    changes: dict = {"scale": np.exp(np.clip(theta[:offset], _LOG_LO, _LOG_HI))}
    for name in ("branch_smooth", "branch_comp"):
        br = getattr(layer, name)
        if br is not None:
            gate = theta[offset : offset + br.rank].copy()
            changes[name] = LowRankBranch(br.u_star, br.v_base, gate)
            offset += br.rank
    return replace(layer, **changes)


def _loss(layer: SplitLayer, prep: Prepared, y_ref: np.ndarray):
    """The loss, the residual y - y_ref and the ``ForwardPass`` record."""
    r, fp = forward_with_cache(layer, prep)
    r -= y_ref
    return float(np.add.reduce(r ** 2, axis=None) / r.size), r, fp


def _gate_grad(bp, br, g):
    """Gradient w.r.t. a branch gate through its quantized factor
    v_q = Q(gate * v_base), for a branch output h @ v_q."""
    return np.add.reduce((bp.h.T @ g) * br.v_base, axis=1)


def analytic_gradient(layer: SplitLayer, prep: Prepared, y_ref: np.ndarray):
    """Loss and straight-through gradient with respect to ``_params(layer)``."""
    loss, g, fp = _loss(layer, prep, y_ref)
    g *= 2.0 / g.size
    t_rows, blocks = prep.text_rows, prep.blocks
    a, b, cws, mac = fp.a, fp.b, fp.cws, fp.mac
    main = blocks[0]

    # The gradients at the quantizer inputs z = x d and w_s, one product per
    # path block into its columns and rows.
    dl_dz, dl_db = np.empty_like(a), np.empty_like(fp.w_s)
    for block in blocks:
        np.matmul(g, b[block].T, out=dl_dz[:, block])
        np.matmul(a[:, block].T, g, out=dl_db[block])
    if cws is not None:
        dl_dz[:, main] += (g @ cws.v_q.T) @ prep.u_cws.T
    if mac is not None:
        # The MAC input is (z - a) on text rows: its gradient reaches z
        # unmasked and leaves a.  It is taken out and put back even with no
        # mask, which keeps the rounding of the sum.
        dl_de = (g[t_rows] @ mac.v_q.T) @ prep.u_mac.T
        if mac.mask_e is not None:
            dl_de *= mac.mask_e
        dl_dz[t_rows, main] -= dl_de
    if fp.mask_a is not None:
        dl_dz *= fp.mask_a
    if mac is not None:
        dl_dz[t_rows, main] += dl_de
    grads = []
    br = layer.branch_smooth
    if br is not None:
        # The branch product is also subtracted inside the main weight.
        grads.append(_gate_grad(cws, br, g)
                     - np.einsum("jk,jo,ko->k", br.u_star, dl_db[main], br.v_base))
    br = layer.branch_comp
    if br is not None:
        grads.append(np.zeros(br.rank) if mac is None
                     else _gate_grad(mac, br, g[t_rows]))
    # z = x d moves with the log-scales, w_s = W / d against them; the
    # gradient is taken in path order and scattered back to channel order.
    dl_dz *= prep.x
    dl_db *= fp.w_s
    d_grad = np.empty(layer.partition.dim)
    d_grad[prep.cols] = (np.add.reduce(dl_dz, axis=0) * layer.scale[prep.cols]
                         - np.add.reduce(dl_db, axis=1))
    return loss, np.concatenate([d_grad, *grads])


def calibrate(
    layer: SplitLayer, batch: ActivationBatch, cfg: CalibConfig, *,
    y_ref: np.ndarray | None = None,
) -> tuple[SplitLayer, LossTrace]:
    """Minimize the reconstruction loss; returns the best-loss snapshot.
    ``y_ref``, when given, is the reference output X @ W of the batch."""
    if y_ref is None:
        y_ref = forward_reference(layer.w, batch)
    elif y_ref.shape != (batch.data.shape[0], layer.w.shape[1]):
        raise ValueError(f"y_ref has shape {y_ref.shape}, but the layer's output on the "
                         f"batch has shape {(batch.data.shape[0], layer.w.shape[1])}")
    prep = prepare(layer, batch)
    theta = _params(layer)
    # Everything after the per-channel log-scales is a branch gate.
    gates = slice(layer.partition.dim, None)
    trace = LossTrace()
    best_theta, best_loss = theta, np.inf
    last = cfg.steps - 1
    for step in range(cfg.steps):
        current = _with_params(layer, theta)
        # The update made at the last step would never be evaluated.
        loss, grad = ((_loss(current, prep, y_ref)[0], None) if step == last
                      else analytic_gradient(current, prep, y_ref))
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"non-finite loss at step {step}")
        # The clips would turn an infinite entry into a bound, silently.
        if grad is not None and not np.isfinite(grad).all():
            raise NonFiniteLossError(f"non-finite gradient at step {step}")
        trace.losses.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_theta = theta
        if grad is None:
            break
        lr = cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / cfg.steps))
        theta = theta - lr * grad
        theta[gates] = np.clip(theta[gates], 0.0, _GATE_MAX)
    return _with_params(layer, best_theta), trace


def _stratified_subset(rng, batch: ActivationBatch, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Token subset keeping roughly the batch's text/vision proportions, as
    its ascending (text rows, vision rows) pair."""
    t_rows, v_rows = batch.text_rows, batch.vision_rows
    total = batch.data.shape[0]
    if size > total:
        raise ValueError(f"subset size {size} exceeds {total} tokens")
    n_t = int(round(size * t_rows.size / total))
    if t_rows.size:
        n_t = min(max(n_t, 1), t_rows.size, size)
    n_v = size - n_t
    if v_rows.size and n_v == 0 and size > 1:
        n_v, n_t = 1, size - 1
    return tuple(np.sort(rng.choice(rows, size=n, replace=False)) if n else np.empty(0, np.int64)
                 for rows, n in ((t_rows, n_t), (v_rows, n_v)))


def stability_report(
    batch: ActivationBatch,
    cfg: MocdConfig,
    subset_sizes: list[int],
    reference_size: int,
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """Mean/std Jaccard similarity of outlier selections from random token
    subsets against the reference-size selection.  Each selection reads its
    subset's rows of the one batch, and its outlier set is the union of its
    picks.  The reference's and every trial's rows go to one ``mocd._select``
    call, which checks that each holds a token of each modality with a pick,
    ranks the rows of each distinct vision pick once and scores same-size
    subsets together."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    ref_rows = _stratified_subset(np.random.default_rng(seed), batch, reference_size)
    row_sets = [_stratified_subset(np.random.default_rng(seed * 1_000_003 + t), batch, size)
                for size in subset_sizes for t in range(1, trials + 1)]
    ref_sel, *sels = (np.union1d(v, t) for v, t in _select(batch, [ref_rows, *row_sets], cfg))
    sims = np.asarray([jaccard(sel, ref_sel) for sel in sels]).reshape(len(subset_sizes), trials)
    return [{"subset_size": size, "mean_jaccard": float(s.mean()),
             "std_jaccard": float(s.std())} for size, s in zip(subset_sizes, sims)]
