"""The frozen-quantizer surrogate, the oracle for the calibration gradient.

With scales and zero-points held at their base-pass values, the
straight-through estimator is the exact derivative of the surrogate
m -> Q(m0) + mask0 * (m - m0) at every activation quantizer call (a None
mask, where nothing clamps, freezes as all ones) and of m -> Q(m0) +
(m - m0) at every weight quantizer call, which never clamps.  A call over
blocks is frozen as one call: its parameters are per group already.
The surrogate loss is analytic in the learned parameters, so its
complex-step derivative Im f(theta + i h e_k) / h is exact to rounding
error, with no difference taken (Squire & Trapp, SIAM Review 1998): that is
the oracle for ``analytic_gradient``.
"""

from dataclasses import replace

import numpy as np

import modquant.layer as layer_module
from modquant.calibrate import _with_params, analytic_gradient
from modquant.layer import forward_with_cache


def patch_quantizers(monkeypatch, wrap):
    """Replace each of the layer's two quantizers with ``wrap(name, q)``,
    where q is the quantizer that ``name`` binds now; the wrapper takes and
    passes on the ``(m, bits, widths=None)`` of a block call."""
    for name in ("quantize_act", "quantize_weight"):
        monkeypatch.setattr(layer_module, name, wrap(name, getattr(layer_module, name)))


def _complex_layer(layer, theta):
    """``layer`` with scales exp(theta[:dim]) and then its gates from
    ``theta``, unclipped: ``_with_params``'s clip drops the imaginary part."""
    offset = layer.partition.dim
    changes = {"scale": np.exp(theta[:offset])}
    for name in ("branch_smooth", "branch_comp"):
        br = getattr(layer, name)
        if br is not None:
            changes[name] = replace(br, gate=theta[offset : offset + br.rank])
            offset += br.rank
    return replace(layer, **changes)


def gradient_and_oracle(monkeypatch, layer, prep, y_ref, theta0, h=1e-30):
    """``analytic_gradient`` at ``theta0`` and the complex-step derivative of
    the surrogate loss there, one entry per parameter.  ``theta0`` must lie
    inside ``_with_params``'s clip.  Leaves the layer's quantizers patched to
    the surrogate until ``monkeypatch`` undoes it.  Both quantizers share one
    record list, replayed in call order."""
    records = []

    def recording(name, real):
        def quantize(m, bits, widths=None):
            out = real(m, bits, widths)
            records.append((name, m.copy(), out))
            return out
        return quantize

    patch_quantizers(monkeypatch, recording)
    _, grad = analytic_gradient(_with_params(layer, theta0), prep, y_ref)
    replay = []

    def frozen(name, real):
        def quantize(m, bits, widths=None):
            recorded, m0, out = records[len(replay)]
            assert recorded == name, "the quantizers were called in another order"
            replay.append(None)
            if name == "quantize_weight":
                return out + (m - m0)
            q0, mask0 = out
            if mask0 is None:
                mask0 = np.ones(q0.shape, dtype=bool)
            return q0 + mask0 * (m - m0), mask0
        return quantize

    patch_quantizers(monkeypatch, frozen)

    def surrogate_loss(theta):
        replay.clear()
        r = forward_with_cache(_complex_layer(layer, theta), prep)[0] - y_ref
        assert len(replay) == len(records)
        # The sum of r ** 2 itself: _loss's float() drops the imaginary part.
        return np.add.reduce(r ** 2, axis=None) / r.size

    oracle = np.empty_like(theta0)
    for k in range(theta0.size):
        theta = theta0.astype(complex)
        theta[k] += 1j * h
        oracle[k] = surrogate_loss(theta).imag / h
    return grad, oracle
