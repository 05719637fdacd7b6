"""The channel-split quantized linear layer.

The layer holds one unsplit weight, and its channel partition gives each
input channel to the main, text-outlier or vision-outlier path: ``prepare``
gathers the activations' columns and the weight's rows once, in path order
(main | text | vision), so each path is a block of one matrix.  The forward
pass multiplies all columns by the per-channel smoothing scale s and divides
all rows by it in one pass each, and quantizes with one call per role: the
paths are the quantizer's blocks, each at its own bits (``quantize_act``
yields the value and its straight-through mask, None where nothing clamps,
and ``quantize_weight``, which never clamps, the value alone; the weight
call also takes each branch's gated factor).  It applies the gated low-rank
corrections that are present (weight smoothing on the main weight, whose
product comes off the rows of W / d in place, and activation compensation
on text-token rows) and sums one product per block.  It records the blocks
and branches in one frozen ``ForwardPass`` for the calibration gradient,
which keeps no copy of W / d; an outlier path with no channels is an empty
block and an absent branch is ``None``, and neither costs a product.  With
identity quantizers everything cancels and the output equals X @ W, the
load-bearing correctness oracle.  Shapes and rank ratios are checked only
where a layer enters, by ``build_layer`` and ``load_layer``, so the
``lowrank`` steps check nothing; ``build_layer`` passes the main path's
weight rows, scales and ratios to ``lowrank.branches``, which turns them
into ranks and branches.  A layer directory's format has one
definition, ``_manifest``: ``save_layer`` writes it, ``load_layer`` checks
the manifest it reads against it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import lowrank, transform as tr
from .mocd import ChannelPartition
from .quantizer import check_bits, quantize_act, quantize_weight
from .tensor import ActivationBatch, as_matrix, load_matrix, save_tensor

# Fewest bits of the outlier paths' and the low-rank branches' quantizers.
AUX_BITS_FLOOR = 4


def _aux_bits(bits: int | None) -> int | None:
    """``bits`` raised to the floor; the identity stays the identity."""
    return None if bits is None else max(bits, AUX_BITS_FLOOR)


@dataclass(frozen=True)
class SplitLayer:
    """``w`` is the unsplit D_in x d_out weight; ``scale`` holds SmoothQuant's
    migration scale s, one per input channel; ``act_bits`` and
    ``weight_bits`` set the main path's quantizers (None: identity).  It
    checks nothing: its makers do, and a copy keeps their shapes."""

    partition: ChannelPartition
    w: np.ndarray
    scale: np.ndarray
    act_bits: int | None
    weight_bits: int | None
    branch_smooth: lowrank.LowRankBranch | None = None
    branch_comp: lowrank.LowRankBranch | None = None


@dataclass(frozen=True)
class BranchPass:
    """A low-rank branch's quantized factor v_q and its product h = x_in @ u_q,
    which the output and the gate gradient share (u_q is ``Prepared``'s, since
    no gate changes it); x_in is the main path's a for CWS and, for MAC, the
    quantized text-row activation error, whose mask MAC also keeps (None
    where nothing clamps)."""

    v_q: np.ndarray
    h: np.ndarray
    mask_e: np.ndarray | None = None


@dataclass(frozen=True)
class ForwardPass:
    """The records the gradient reads, columns and rows in path order (main |
    text | vision): a = Q(x * d) and its mask (None where nothing clamps),
    and b, the quantized weight rows: W / d[:, None] less the CWS product on
    the main rows, then each present branch's v_q.  An absent branch is
    None.  W / d itself is not kept: the gradient divides ``Prepared.w`` by
    the same gathered scales."""

    a: np.ndarray
    mask_a: np.ndarray | None
    b: np.ndarray
    cws: BranchPass | None
    mac: BranchPass | None


@dataclass(frozen=True)
class Prepared:
    """What no scale or gate changes: ``cols``, the channels in path order
    (main | text | vision), ``widths``, the three paths' widths, and
    ``blocks``, each nonempty path's slice of that order, main first (the
    main path is never empty, see ``ChannelPartition``); the batch's columns
    and the weight's rows in path order (C-contiguous); the batch's text
    rows; and each branch's u_q = Q(u_star) (None when absent)."""

    cols: np.ndarray
    widths: tuple[int, int, int]
    blocks: list[slice]
    x: np.ndarray
    w: np.ndarray
    text_rows: np.ndarray
    u_cws: np.ndarray | None
    u_mac: np.ndarray | None


def prepare(layer: SplitLayer, batch: ActivationBatch) -> Prepared:
    """The layer's ``Prepared`` record; this is ``forward``'s batch width check."""
    p = layer.partition
    if p.dim != batch.data.shape[1]:
        raise ValueError(f"partition covers {p.dim} channels, matrix has {batch.data.shape[1]}")
    paths = (p.c_main, p.c_text, p.c_vision)
    widths = tuple(c.size for c in paths)
    blocks = [slice(stop - width, stop) for width, stop in zip(widths, accumulate(widths))
              if width]
    w_aux = _aux_bits(layer.weight_bits)
    u_q = (None if br is None else quantize_weight(br.u_star, w_aux)
           for br in (layer.branch_smooth, layer.branch_comp))
    # Downstream products expect C order (BLAS picks another kernel, and
    # rounding, for the other); ``take`` gathers the columns straight into it,
    # where a fancy-indexed gather comes back Fortran-ordered and needs a copy.
    cols = np.concatenate(paths)
    return Prepared(cols, widths, blocks, batch.data.take(cols, axis=1), layer.w[cols],
                    batch.text_rows, *u_q)


def forward_with_cache(layer: SplitLayer, prep: Prepared):
    """Forward pass returning the output and its ``ForwardPass`` record.

    ``prep`` is ``prepare`` of this layer or of one with other scales and
    gates.  All paths are scaled in one pass, and each role's quantizer runs
    once over all of them: the paths are its blocks, each at its own bits,
    and the weight's blocks go on with each branch's gate * v_base.  The main
    weight is quantized less the CWS product, computed from the same v.
    Each block's product is its own BLAS call on a view (one merged product
    rounds differently), and each branch records its product h = x_in @ u_q
    for the gate gradient.  Empty paths and absent branches do no work.
    """
    t_rows, widths, width = prep.text_rows, prep.widths, prep.x.shape[1]
    main, *outliers = prep.blocks
    act_aux, w_aux = _aux_bits(layer.act_bits), _aux_bits(layer.weight_bits)
    cws_br, mac_br = layer.branch_smooth, layer.branch_comp
    ranks = [0 if br is None else br.rank for br in (cws_br, mac_br)]
    # MAC corrects text rows only: with none, it does no work.
    mac_on = mac_br is not None and t_rows.size > 0

    d = layer.scale[prep.cols]
    z = prep.x * d
    a, mask_a = quantize_act(z, (layer.act_bits, act_aux, act_aux), widths)
    if mac_on:
        e_q, mask_e = quantize_act(z[t_rows, main] - a[t_rows, main], act_aux)
    del z  # freed before the weight pass: it lowers the step's peak heap
    # The weight quantizer's rows: W / d, then each present branch's v.
    # Only the quantizer reads them, so the CWS product comes off in place.
    vs = [br.effective_v() for br in (cws_br, mac_br) if br is not None]
    rows = np.concatenate([prep.w / d[:, None], *vs])
    if cws_br is not None:
        rows[main] -= cws_br.u_star @ vs[0]
    b = quantize_weight(rows, (layer.weight_bits, *[w_aux] * 4), (*widths, *ranks))
    del rows  # freed before the products
    v_q = b[width:]

    y = a[:, main] @ b[main]
    cws = mac = None
    if cws_br is not None:
        cws = BranchPass(v_q[: ranks[0]], a[:, main] @ prep.u_cws)
        y += cws.h @ cws.v_q
    if mac_on:
        mac = BranchPass(v_q[ranks[0] :], e_q @ prep.u_mac, mask_e)
        y[t_rows] += mac.h @ mac.v_q
    for block in outliers:
        y += a[:, block] @ b[block]
    return y, ForwardPass(a, mask_a, b, cws, mac)


def forward(layer: SplitLayer, batch: ActivationBatch) -> np.ndarray:
    return forward_with_cache(layer, prepare(layer, batch))[0]


def forward_reference(w: np.ndarray, batch: ActivationBatch) -> np.ndarray:
    """Unquantized reference output X @ W; X's columns must be W's rows."""
    w = as_matrix(w)
    if batch.data.shape[1] != w.shape[0]:
        raise ValueError(f"batch has {batch.data.shape[1]} channels, "
                         f"weight has {w.shape[0]} rows")
    return batch.data @ w


def build_layer(
    w: np.ndarray,
    batch: ActivationBatch,
    partition: ChannelPartition,
    act_bits: int | None,
    weight_bits: int | None,
    rank_cws: float = 0.0,
    rank_mac: float = 0.0,
) -> SplitLayer:
    """Assemble a layer: check the bits, widths and rank ratios, init the
    scales from the calibration activations, and anchor the low-rank
    branches; every other shape follows.  A branch is built exactly when its
    rank ratio is positive, and each ratio must lie in [0, 1]."""
    check_bits(act_bits)
    check_bits(weight_bits)
    w = as_matrix(w)
    if w.shape[0] != partition.dim or batch.data.shape[1] != partition.dim:
        raise ValueError("weight rows and batch columns must match partition dim")
    if w.shape[1] == 0:
        raise ValueError("weight has no columns (d_out 0)")
    # The init is per column, so each path gets the values of its channels.
    scale = tr.smoothing_scale(batch.data)

    c_main = partition.c_main
    if not (0 <= rank_cws <= 1 and 0 <= rank_mac <= 1):
        raise ValueError(f"rank ratios must be at most 1 and non-negative: {rank_cws}, {rank_mac}")
    ratios = {name: ratio for name, ratio in (("branch_smooth", rank_cws),
                                              ("branch_comp", rank_mac)) if ratio > 0}
    branches = lowrank.branches(w[c_main], scale[c_main], ratios) if ratios else {}
    return SplitLayer(partition, w, scale, act_bits, weight_bits, **branches)


# -- serialization -----------------------------------------------------------

_PATHS = ("main", "text", "vision")
# The one quantizer form of each role, which the manifest keeps next to its bits.
_ROLES = {"act_spec": {"symmetric": False, "granularity": "per_token"},
          "weight_spec": {"symmetric": True, "granularity": "per_channel"}}
# Each branch, the manifest flag that says it is present, and its factors.
_BRANCHES = {"branch_smooth": "use_cws", "branch_comp": "use_mac"}
_BRANCH_FILES = ("u_star", "v_base", "gate")


def _manifest(dim, d_out, partition, act_bits, weight_bits, branches) -> dict:
    """The layer directory's manifest, the one definition of its format (version
    1): ``partition`` maps each ``c_<path>`` to its channel list, ``branches``
    names the branches present, and every file name is fixed."""
    return {
        "format": "modquant-layer",
        "version": 1,
        "dim": dim,
        "d_out": d_out,
        "partition": {f"c_{path}": partition[f"c_{path}"] for path in _PATHS},
        "act_spec": {"bits": act_bits, **_ROLES["act_spec"]},
        "weight_spec": {"bits": weight_bits, **_ROLES["weight_spec"]},
        **{flag: name in branches for name, flag in _BRANCHES.items()},
        **{f"w_{path}": f"w_{path}.spqt" for path in _PATHS},
        **{f"p_{path}": {"kind": "diagonal", "file": f"p_{path}_scale.spqt"}
           for path in _PATHS},
        **{name: {part: f"{name}_{part}.spqt" for part in _BRANCH_FILES}
           for name in branches},
    }


def save_layer(layer: SplitLayer, out_dir: str) -> str:
    """Write each tensor under its ``_manifest`` file name, then the manifest;
    returns the manifest path."""
    p = layer.partition
    branches = {name: br for name in _BRANCHES if (br := getattr(layer, name)) is not None}
    manifest = _manifest(p.dim, layer.w.shape[1],
                         {f"c_{path}": getattr(p, f"c_{path}").tolist() for path in _PATHS},
                         layer.act_bits, layer.weight_bits, branches)
    os.makedirs(out_dir, exist_ok=True)

    def save(name: str, value: np.ndarray):
        save_tensor(os.path.join(out_dir, name), value)

    # Each path's rows of the weight, and its slice of the scales.
    for path in _PATHS:
        cols = getattr(p, f"c_{path}")
        save(manifest[f"w_{path}"], layer.w[cols])
        save(manifest[f"p_{path}"]["file"], layer.scale[cols].reshape(1, -1))
    for name, br in branches.items():
        for part, value in zip(_BRANCH_FILES, (br.u_star, br.v_base, br.gate.reshape(1, -1))):
            save(manifest[name][part], value)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _is_int(v) -> bool:
    """A JSON integer: an int that is not a bool (the CLI config checks it too)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_partition(v) -> bool:
    # Indices stay in int64 range, so numpy converts them without overflow.
    return isinstance(v, dict) and all(
        isinstance(cols := v.get(f"c_{path}"), list)
        and all(_is_int(c) and 0 <= c < 2**63 for c in cols) for path in _PATHS)


def _has_bits(v) -> bool:
    return isinstance(v, dict) and "bits" in v and (v["bits"] is None or _is_int(v["bits"]))


# The manifest's values that come from the layer, each with its type check.
_TYPED_KEYS = {
    **dict.fromkeys(("dim", "d_out"), (lambda v: _is_int(v) and v > 0, "a positive int")),
    "partition": (_is_partition, "a dict of three channel index lists"),
    **dict.fromkeys(_ROLES, (_has_bits, "a dict of int-or-null bits")),
    **dict.fromkeys(_BRANCHES.values(), (lambda v: isinstance(v, bool), "a bool")),
}


def load_layer(manifest_path: str) -> SplitLayer:
    """Load a layer written by ``save_layer``, checking every shape.

    Before any tensor is opened, the typed keys (a positive ``dim`` and
    ``d_out``, ``partition``, each role's ``bits``, ``use_cws``, ``use_mac``)
    are checked, and every key that ``_manifest`` writes for them must match;
    other keys are ignored, and only its fixed file names are read.  Each
    path's scales must be in range, one per channel, and its weight block its
    width x ``d_out``, before the full weight is allocated; a present
    branch's rank, at least 1, and its factor shapes must fit the main path.
    A manifest that fails a check raises ``ValueError``.
    """
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except RecursionError as exc:
            raise ValueError("layer manifest is nested too deeply") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "modquant-layer":
        raise ValueError("not a layer manifest")
    for key, (ok, what) in _TYPED_KEYS.items():
        if key not in manifest:
            raise ValueError(f"layer manifest lacks key {key!r}")
        if not ok(manifest[key]):
            raise ValueError(f"layer manifest {key} must be {what}, got {manifest[key]!r}")
    act_bits, weight_bits = (check_bits(manifest[role]["bits"]) for role in _ROLES)
    d_out = manifest["d_out"]
    fixed = _manifest(manifest["dim"], d_out, manifest["partition"], act_bits, weight_bits,
                      [name for name, flag in _BRANCHES.items() if manifest[flag]])
    for key, value in fixed.items():
        # JSON text tells true from 1, 0 from false and 1.0 from 1.
        want = json.dumps(value, sort_keys=True)
        got = json.dumps(manifest[key], sort_keys=True) if key in manifest else "nothing"
        if got != want:
            raise ValueError(f"layer manifest {key} must be {want}, got {got}")
    in_dir = os.path.dirname(os.path.abspath(manifest_path))

    def tensor(name: str) -> np.ndarray:
        return load_matrix(os.path.join(in_dir, name))

    partition = ChannelPartition(*fixed["partition"].values(), manifest["dim"])
    scale = np.empty(partition.dim)
    blocks = []
    for path in _PATHS:
        cols = getattr(partition, f"c_{path}")
        values = tr.checked_scale(tensor(fixed[f"p_{path}"]["file"]).reshape(-1))
        if values.shape != cols.shape:
            raise ValueError(f"p_{path} holds {values.size} scales for {cols.size} channels")
        scale[cols] = values
        block = tensor(fixed[f"w_{path}"])
        if block.shape != (cols.size, d_out):
            raise ValueError(f"w_{path} is {block.shape[0]} x {block.shape[1]}, "
                             f"not {cols.size} channels x d_out {d_out}")
        blocks.append((cols, block))
    w = np.empty((partition.dim, d_out))
    for cols, block in blocks:
        w[cols] = block

    def branch(name: str) -> lowrank.LowRankBranch:
        u, v, gate = (tensor(fixed[name][part]) for part in _BRANCH_FILES)
        br = lowrank.LowRankBranch(u, v, gate.reshape(-1))
        if not 1 <= br.rank <= min(partition.c_main.size, d_out):
            raise ValueError("branch rank must be in 1..min(path width, d_out)")
        # A wrong shape could broadcast in the forward pass, not fail.
        if (u.shape[0] != partition.c_main.size or br.gate.shape != (br.rank,)
                or v.shape != (br.rank, d_out)):
            raise ValueError("branch factor shapes do not match the main path")
        return br

    return SplitLayer(partition, w, scale, act_bits, weight_bits,
                      **{name: branch(name) for name in _BRANCHES if name in fixed})
