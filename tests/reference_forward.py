"""The split layer's quantized forward pass, written from the equations in
README ("The quantized forward pass") and from nothing else of ``layer.py``:
the oracle for ``layer.forward``.

It reads the layer's and the batch's fields and calls only the two
quantizers, ``quantize_act`` (Q_a) and ``quantize_weight`` (Q_w), which have
their own bit-exact oracle in ``test_quantizer.py``.
"""

import numpy as np

from modquant.quantizer import quantize_act, quantize_weight

AUX_BITS = 4  # the fewest bits of the outlier paths and the branch factors


def _qa(m, bits):
    return quantize_act(m, bits)[0]


_qw = quantize_weight


def _aux(bits):
    """``bits`` raised to at least AUX_BITS; identity stays identity."""
    return None if bits is None else max(bits, AUX_BITS)


def reference_terms(layer, batch, mul=np.matmul):
    """The output's terms, each tokens x d_out: the main path, then CWS, MAC
    (zero off the text rows), the text path and the vision path; an absent
    branch has no term.  The forward pass's output is their sum.  Each term
    is a product of quantized factors by ``mul``: with |a| @ |b| in place of
    a @ b, the terms bound what reordering a product's sums can change."""
    p, s, x = layer.partition, layer.scale, batch.data
    a_bits, w_bits = layer.act_bits, layer.weight_bits
    a_aux, w_aux = _aux(a_bits), _aux(w_bits)

    def scaled(c):  # X_c = X[:, c] s[c] and W_c = W[c] / s[c]
        return x[:, c] * s[c], layer.w[c] / s[c, None]

    x_m, w_m = scaled(p.c_main)
    a_m = _qa(x_m, a_bits)
    cws = layer.branch_smooth
    if cws is None:
        terms = [mul(a_m, _qw(w_m, w_bits))]
    else:
        v = cws.gate[:, None] * cws.v_base
        terms = [mul(a_m, _qw(w_m - cws.u_star @ v, w_bits)),
                 mul(mul(a_m, _qw(cws.u_star, w_aux)), _qw(v, w_aux))]
    mac, t = layer.branch_comp, batch.text_rows
    if mac is not None:
        v = mac.gate[:, None] * mac.v_base
        term = np.zeros_like(terms[0])
        if t.size:  # the quantizers take nonempty matrices only
            e = _qa((x_m - a_m)[t], a_aux)
            term[t] = mul(mul(e, _qw(mac.u_star, w_aux)), _qw(v, w_aux))
        terms.append(term)
    for c in (p.c_text, p.c_vision):
        x_c, w_c = scaled(c)
        terms.append(mul(_qa(x_c, a_aux), _qw(w_c, w_aux)) if c.size else np.zeros_like(terms[0]))
    return terms
