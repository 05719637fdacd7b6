"""The split layer's quantized forward pass, written from the equations in
README ("The quantized forward pass") and from nothing else of ``layer.py``:
the oracle for ``layer.forward``.

It reads the layer's and the batch's fields and calls only ``quantize_ste``,
which has its own bit-exact oracle in ``test_quantizer.py``.
"""

import dataclasses

import numpy as np

from modquant.quantizer import quantize_ste

AUX_BITS = 4  # the fewest bits of the outlier paths and the branch factors


def _q(m, spec):
    return quantize_ste(m, spec)[0]


def _aux(spec):
    """``spec`` with at least AUX_BITS bits; identity stays identity."""
    if spec.bits is None or spec.bits >= AUX_BITS:
        return spec
    return dataclasses.replace(spec, bits=AUX_BITS)


def reference_terms(layer, batch):
    """The output's terms, each tokens x d_out: the main path, then CWS, MAC
    (zero off the text rows), the text path and the vision path; an absent
    branch has no term.  The forward pass's output is their sum."""
    p, s, x = layer.partition, layer.scale, batch.data
    a_aux, w_aux = _aux(layer.act_spec), _aux(layer.weight_spec)

    def scaled(c, w):  # X_c = X[:, c] s[c] and W_c = W / s[c]
        return x[:, c] * s[c], w / s[c, None]

    x_m, w_m = scaled(p.c_main, layer.w_main)
    a_m = _q(x_m, layer.act_spec)
    cws = layer.branch_smooth
    if cws is None:
        terms = [a_m @ _q(w_m, layer.weight_spec)]
    else:
        v = cws.gate[:, None] * cws.v_base
        terms = [a_m @ _q(w_m - cws.u_star @ v, layer.weight_spec),
                 a_m @ _q(cws.u_star, w_aux) @ _q(v, w_aux)]
    mac, t = layer.branch_comp, batch.text_rows
    if mac is not None:
        v = mac.gate[:, None] * mac.v_base
        term = np.zeros_like(terms[0])
        term[t] = _q((x_m - a_m)[t], a_aux) @ _q(mac.u_star, w_aux) @ _q(v, w_aux)
        terms.append(term)
    for c, w in ((p.c_text, layer.w_text), (p.c_vision, layer.w_vision)):
        x_c, w_c = scaled(c, w)
        terms.append(_q(x_c, a_aux) @ _q(w_c, w_aux))
    return terms

