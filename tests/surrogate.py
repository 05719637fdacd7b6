"""The frozen-quantizer surrogate, the oracle for the calibration gradient.

With scales and zero-points held at their base-pass values, the
straight-through estimator is the exact derivative of the surrogate
m -> Q(m0) + mask0 * (m - m0) at every quantizer call.  Central differences
of the loss through that surrogate are the oracle for ``analytic_gradient``.
"""

import numpy as np

import modquant.layer as layer_module
from modquant.calibrate import _loss, _with_params, analytic_gradient


def patch_quantizers(monkeypatch, wrap):
    """Replace each of the layer's two quantizers with ``wrap(name, q)``,
    where q is the quantizer that ``name`` binds now."""
    for name in ("quantize_act", "quantize_weight"):
        monkeypatch.setattr(layer_module, name, wrap(name, getattr(layer_module, name)))


def gradient_and_oracle(monkeypatch, layer, prep, y_ref, theta0, h=1e-6):
    """``analytic_gradient`` at ``theta0`` and the central differences of the
    surrogate loss there, one entry per parameter.  Leaves the layer's
    quantizers patched to the surrogate until ``monkeypatch`` undoes it.
    Both quantizers share one record list, replayed in call order."""
    records = []

    def recording(name, real):
        def quantize(m, bits):
            value, mask = real(m, bits)
            records.append((name, m.copy(), value, mask))
            return value, mask
        return quantize

    patch_quantizers(monkeypatch, recording)
    _, grad = analytic_gradient(_with_params(layer, theta0), prep, y_ref)
    replay = []

    def frozen(name, real):
        def quantize(m, bits):
            recorded, m0, q0, mask0 = records[len(replay)]
            assert recorded == name, "the quantizers were called in another order"
            replay.append(None)
            return q0 + mask0 * (m - m0), mask0
        return quantize

    patch_quantizers(monkeypatch, frozen)

    def surrogate_loss(theta):
        replay.clear()
        loss = _loss(_with_params(layer, theta), prep, y_ref)[0]
        assert len(replay) == len(records)
        return loss

    fd = np.empty_like(theta0)
    for i in range(theta0.size):
        step = np.zeros_like(theta0)
        step[i] = h
        fd[i] = surrogate_loss(theta0 + step) - surrogate_loss(theta0 - step)
    fd /= 2 * h
    return grad, fd
