"""Training objectives: ranking hinges, aspect losses, joint sum.

All functions build autodiff graph nodes, so they accept Tensors from the
model heads (floats and numpy arrays are wrapped as constants).  Batched
inputs are averaged over the batch; single items pass through unchanged.
The comment loss, the decoder's teacher-forced NLL, is
``Model.encoded_comment_nll``, one ``autodiff.token_nll`` node.

Cross-entropies clamp probabilities at 1e-12 before the log.
"""

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .errors import ContractViolation

LOG_EPS = 1e-12


def _bce(p: Tensor, t: Tensor) -> Tensor:
    """Elementwise t log p + (1 - t) log(1 - p), both logs clamped."""
    return t * ad.log(p, LOG_EPS) + (1 - t) * ad.log(1 - p, LOG_EPS)


def margin_rank_loss(p_high, p_low, margin: float = 0.3) -> Tensor:
    """Hinge pushing the preferred story's score above the other by ``margin``."""
    if margin <= 0:
        raise ContractViolation("margin must be positive")
    p_high = as_tensor(p_high)
    p_low = as_tensor(p_low)
    return ad.relu(p_low - p_high + margin).mean()


def coherence_rank_loss(p_low, p_neg, margin: float = 0.3) -> Tensor:
    """Second hinge: even the low story must beat a corrupted one."""
    return margin_rank_loss(p_low, p_neg, margin)


def confidence_loss(a_c, y_a_c) -> Tensor:
    """Multi-hot cross-entropy over aspect confidences.

    Targets stay unnormalized: each selected aspect contributes its own
    -log a_c[k] term.
    """
    a_c = as_tensor(a_c)
    y = np.asarray(y_a_c, dtype=np.float64)
    if y.shape != a_c.data.shape:
        raise ContractViolation("confidence targets must match a_c shape")
    if np.any(y.sum(axis=-1) < 1):
        raise ContractViolation("each item needs at least one selected aspect")
    per_item = -(Tensor(y.astype(a_c.data.dtype)) * ad.log(a_c, LOG_EPS)).sum(axis=-1)
    return per_item.mean()


def rating_loss(a_r, y_a_r, mask) -> Tensor:
    """Binary cross-entropy on the aspects a 0/1 ``mask`` of ``a_r``'s shape
    selects, summed per item and averaged over the batch.  Items with
    nothing selected contribute zero and trigger a warning.
    """
    a_r = as_tensor(a_r)
    y = np.asarray(y_a_r, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a_r.data.shape:
        raise ContractViolation("selection mask must match a_r shape")
    if np.any(mask.sum(axis=-1) == 0):
        warnings.warn("rating_loss: item with empty aspect selection contributes 0",
                      stacklevel=2)
    y_t = Tensor(y.astype(a_r.data.dtype))
    m_t = Tensor(mask.astype(a_r.data.dtype))
    return -(m_t * _bce(a_r, y_t)).sum(axis=-1).mean()


def discrimination_loss(p_s, label) -> Tensor:
    """Baseline objective: plain BCE of the preference score against a hard
    0/1 label."""
    p_s = as_tensor(p_s)
    t = Tensor(np.asarray(label, dtype=p_s.data.dtype))
    return (-_bce(p_s, t)).mean()


def joint_loss(l_ps, l_ac=0.0, l_ar=0.0, l_c=0.0) -> Tensor:
    """The unweighted sum ((l_ps + l_ac) + l_ar) + l_c; disabled components pass 0."""
    ref = next((p for p in (l_ps, l_ac, l_ar, l_c) if isinstance(p, Tensor)), None)
    parts = [as_tensor(p, ref) for p in (l_ps, l_ac, l_ar, l_c)]
    return ((parts[0] + parts[1]) + parts[2]) + parts[3]
