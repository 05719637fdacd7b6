"""The frozen-quantizer surrogate, the oracle for the calibration gradient.

With scales and zero-points held at their base-pass values, the
straight-through estimator is the exact derivative of the surrogate
m -> Q(m0) + mask0 * (m - m0) at every quantizer call.  Central differences
of the loss through that surrogate are the oracle for ``analytic_gradient``.
"""

import numpy as np

import modquant.layer as layer_module
from modquant.calibrate import _loss, _with_params, analytic_gradient


def gradient_and_oracle(monkeypatch, layer, prep, y_ref, theta0, h=1e-6):
    """``analytic_gradient`` at ``theta0`` and the central differences of the
    surrogate loss there, one entry per parameter.  Leaves the layer's
    quantizer patched to the surrogate until ``monkeypatch`` undoes it."""
    real = layer_module.quantize_ste
    records = []

    def recording(m, spec):
        value, mask = real(m, spec)
        records.append((m.copy(), value, mask))
        return value, mask

    monkeypatch.setattr(layer_module, "quantize_ste", recording)
    _, grad = analytic_gradient(_with_params(layer, theta0), prep, y_ref)
    replay = []

    def frozen(m, spec):
        m0, q0, mask0 = records[len(replay)]
        replay.append(None)
        return q0 + mask0 * (m - m0), mask0

    monkeypatch.setattr(layer_module, "quantize_ste", frozen)

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
