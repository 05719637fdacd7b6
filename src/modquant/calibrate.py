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
The gradient reads the layer's ``ForwardPass`` records, and every path's
log-scale gradient is the one ``_log_scale_grad``, written into the entries
of its channels; a gate's gradient reads its branch's product from the
forward record.  The gradient buffers are scaled in place, and
``_log_scale_grad`` overwrites its two gradient arguments.  A step changes
only scales and gates, so ``calibrate`` builds one ``layer.prepare`` record
per call (the batch's and the weight's blocks), every step reads it, and a
step's layer is a ``dataclasses.replace`` copy, which checks nothing.  The
last step only evaluates the loss: the update it would make is
never evaluated, so it takes no gradient.  A non-finite loss or gradient
raises ``NonFiniteLossError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import transform as tr
from .layer import Prepared, SplitLayer, forward_reference, forward_with_cache, prepare
from .lowrank import LowRankBranch
from .mocd import MocdConfig, _partition, jaccard, percentile_rank
from .tensor import ActivationBatch, ModalityTag

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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
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


def _log_scale_grad(path, scale, dl_dz, dl_db):
    """Gradient w.r.t. a path's log-scales, from the gradients at its two
    quantizer inputs: z = x d moves with d, w_s = W / d against it.
    Overwrites both."""
    dl_dz *= path.x
    dl_db *= path.w_s
    return np.add.reduce(dl_dz, axis=0) * scale - np.add.reduce(dl_db, axis=1)


def _gate_grad(bp, br, g):
    """Gradient w.r.t. a branch gate through its quantized factor
    v_q = Q(gate * v_base), for a branch output h @ v_q."""
    return np.add.reduce((bp.h.T @ g) * br.v_base, axis=1)


def analytic_gradient(layer: SplitLayer, prep: Prepared, y_ref: np.ndarray):
    """Loss and straight-through gradient with respect to ``_params(layer)``."""
    loss, g, fp = _loss(layer, prep, y_ref)
    g *= 2.0 / g.size
    t_rows = prep.text_rows
    p, s = layer.partition, layer.scale
    main, cws, mac = fp.main, fp.cws, fp.mac

    dl_dz = g @ main.b.T
    if cws is not None:
        dl_dz += (g @ cws.v_q.T) @ cws.u_q.T
    if mac is not None:
        # The MAC input is (z - a) on text rows: its gradient reaches z
        # unmasked and leaves a.
        dl_de = mac.mask_e * ((g[t_rows] @ mac.v_q.T) @ mac.u_q.T)
        dl_dz[t_rows] -= dl_de
    dl_dz *= main.mask_a
    if mac is not None:
        dl_dz[t_rows] += dl_de
    dl_db = main.a.T @ g
    grads = []
    br = layer.branch_smooth
    if br is not None:
        # The branch product is also subtracted inside the main weight; read
        # dl_db before _log_scale_grad overwrites it.
        grads.append(_gate_grad(cws, br, g)
                     - np.einsum("jk,jo,ko->k", br.u_star, dl_db, br.v_base))
    br = layer.branch_comp
    if br is not None:
        grads.append(np.zeros(br.rank) if mac is None
                     else _gate_grad(mac, br, g[t_rows]))
    d_grad = np.zeros(p.dim)
    d_grad[p.c_main] = _log_scale_grad(main, s[p.c_main], dl_dz, dl_db)
    for path, cols in ((fp.text, p.c_text), (fp.vision, p.c_vision)):
        if path is not None:
            dl_dz, dl_db = g @ path.b.T, path.a.T @ g
            dl_dz *= path.mask_a
            d_grad[cols] = _log_scale_grad(path, s[cols], dl_dz, dl_db)
    return loss, np.concatenate([d_grad, *grads])


def calibrate(
    layer: SplitLayer, batch: ActivationBatch, cfg: CalibConfig, *,
    y_ref: np.ndarray | None = None,
) -> tuple[SplitLayer, LossTrace]:
    """Minimize the reconstruction loss; returns the best-loss snapshot.
    ``y_ref``, when given, is the reference output X @ W of the batch."""
    if y_ref is None:
        y_ref = forward_reference(layer.w, batch)
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


def _stratified_subset(rng, batch: ActivationBatch, size: int) -> np.ndarray:
    """Token subset keeping roughly the batch's text/vision proportions."""
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
    chosen = np.concatenate([
        rng.choice(t_rows, size=n_t, replace=False) if n_t else np.empty(0, np.int64),
        rng.choice(v_rows, size=n_v, replace=False) if n_v else np.empty(0, np.int64),
    ])
    return np.sort(chosen.astype(np.int64))


def _subset_batch(batch: ActivationBatch, rows: np.ndarray) -> ActivationBatch:
    return ActivationBatch(batch.data[rows], batch.tags[rows])


def outlier_set(partition) -> np.ndarray:
    return np.sort(np.concatenate([partition.c_text, partition.c_vision]))


def stability_report(
    batch: ActivationBatch,
    cfg: MocdConfig,
    subset_sizes: list[int],
    reference_size: int,
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """Mean/std Jaccard similarity of outlier selections from random token
    subsets against the reference-size selection.  Ranks are row-local, so
    the text rows of all subsets are ranked once over the reference's
    candidates, and a subset with those candidates reads its rows of them."""
    ref_rows = _stratified_subset(np.random.default_rng(seed), batch, reference_size)
    row_sets = [[_stratified_subset(np.random.default_rng(seed * 1_000_003 + t), batch, size)
                 for t in range(1, trials + 1)] for size in subset_sizes]
    dim = batch.data.shape[1]
    for size, rows in [(reference_size, ref_rows),
                       *((size, r) for size, rs in zip(subset_sizes, row_sets) for r in rs)]:
        for name, k, tag in (("vision", cfg.k_vision(dim), ModalityTag.VISION),
                             ("text", cfg.k_text(dim), ModalityTag.TEXT)):
            if k and not np.any(batch.tags[rows] == tag):
                raise ValueError(f"a subset of size {size} has no {name} token, "
                                 f"but the {name} ratio is nonzero")
    all_rows = np.concatenate([ref_rows, *(r for rs in row_sets for r in rs)])
    union_text = np.intersect1d(all_rows, batch.text_rows)  # ascending, each row once
    ranked = []  # the reference's candidates, then union_text's counts over them

    def selection(rows):
        def rank(sub, cand):
            if not ranked:  # in blocks no larger than the reference's own sort
                blocks = np.array_split(union_text, -(-union_text.size // reference_size))
                ranked.extend([cand, np.concatenate(
                    [percentile_rank(_subset_batch(batch, b), cand) for b in blocks])])
            if not np.array_equal(cand, ranked[0]):
                return percentile_rank(sub, cand)
            return ranked[1][np.searchsorted(union_text, rows[sub.text_rows])]
        return outlier_set(_partition(_subset_batch(batch, rows), cfg, rank))

    ref_sel = selection(ref_rows)
    sims = [np.asarray([jaccard(selection(rows), ref_sel) for rows in rs]) for rs in row_sets]
    return [{"subset_size": size, "mean_jaccard": float(s.mean()),
             "std_jaccard": float(s.std())} for size, s in zip(subset_sizes, sims)]
