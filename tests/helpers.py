"""Shared test utilities: the finite-difference gradient oracle and the
per-story reference that batched inference is checked against."""

import numpy as np

from storyeval.model import predict_aspects, predict_preference


def central_diff(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Gradient of the scalar-valued ``f`` with respect to ``x``.

    Perturbs one entry of ``x`` in place at a time, so ``f`` must read
    ``x`` afresh on every call.  Use float64 arrays; h=1e-4 is tuned for
    that precision.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f())
        flat[i] = orig - h
        lo = float(f())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def sampled_central_diff(f, x: np.ndarray, flat_indices, h: float = 1e-4) -> dict:
    """Central differences at selected flat indices of ``x`` only."""
    flat = x.reshape(-1)
    out = {}
    for i in flat_indices:
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f())
        flat[i] = orig - h
        lo = float(f())
        flat[i] = orig
        out[int(i)] = (hi - lo) / (2.0 * h)
    return out


def check_sampled_grads(make_loss, params: dict, rng, n_per_tensor: int = 3,
                        h: float = 1e-4, tol: float = 1e-3) -> float:
    """FD-check a few entries of every parameter tensor; returns worst error."""
    for p in params.values():
        p.grad = None
    loss = make_loss()
    loss.backward()
    worst = 0.0
    for name, p in params.items():
        size = p.data.size
        n = min(n_per_tensor, size)
        idx = rng.choice(size, size=n, replace=False)
        fd = sampled_central_diff(lambda: make_loss().data, p.data, idx, h=h)
        grad_flat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for i, val in fd.items():
            err = max_rel_err(np.array([grad_flat[i]]), np.array([val]))
            assert err <= tol, f"{name}[{i}]: rel err {err:.2e}"
            worst = max(worst, err)
    return worst


def reference_heads(model, id_seqs):
    """(p_s, a_c, a_r) from one unpadded encode per story, in input order.

    This is the per-story scoring loop that ``Model.infer`` replaced.
    """
    rows = []
    for ids in id_seqs:
        v_s, _, _ = model.encode_stories([ids])
        a_c, a_r = predict_aspects(model.params, v_s)
        rows.append((predict_preference(model.params, v_s).data[0],
                     a_c.data[0], a_r.data[0]))
    p_s, a_c, a_r = zip(*rows)
    return np.asarray(p_s), np.stack(a_c), np.stack(a_r)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise relative error.

    The denominator is floored at 1e-3 so near-zero entries are judged by
    an absolute criterion instead of amplifying finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / scale))
