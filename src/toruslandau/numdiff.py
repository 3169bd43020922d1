"""Finite-difference Wirtinger derivatives for independent cross-checks.

Sixth-order centered stencils on pointwise samples; used where a derivative
must NOT come from the termwise section calculus (holomorphy audits, the
energy-ladder check of H on translated levels).
"""

import numpy as np

_C1 = np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60])
_C2 = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
_OFFSETS = np.arange(-3, 4)

STEP = 0.005


def derivatives(f, xs, ys):
    """(f, df/dz, df/dzbar, Laplacian f) on the tensor grid z[j, i] = xs[i] + 1j*ys[j].

    f maps a tensor grid of shape (ny, nx) to values of shape (..., ny, nx).
    It is called twice: with every column widened to its 7 offsets k STEP,
    k = -3..3, in x, and with every row widened to its 7 offsets in y.  Each stencil is summed
    elementwise, so a point's values do not depend on how many fields f stacks.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    along_x = f((xs[:, None] + _OFFSETS * STEP).ravel() + 1j * ys[:, None])
    along_x = along_x.reshape(along_x.shape[:-1] + (len(xs), 7))
    along_y = f(xs + 1j * (ys[:, None] + _OFFSETS * STEP).reshape(-1, 1))
    along_y = np.moveaxis(along_y.reshape(along_y.shape[:-2] + (len(ys), 7, len(xs))), -2, -1)
    fx, fy = (np.sum(v * _C1, axis=-1) / STEP for v in (along_x, along_y))
    lap = (np.sum(along_x * _C2, axis=-1) + np.sum(along_y * _C2, axis=-1)) / STEP**2
    return along_x[..., 3], (fx - 1j * fy) / 2, (fx + 1j * fy) / 2, lap
