"""Reference values the benchmark computes apart from the program, to
check its outputs."""
from __future__ import annotations

import numpy as np


def _z(x: np.ndarray) -> np.ndarray | None:
    s = x.std()
    return None if s < 1e-12 else (x - x.mean()) / s


def _acf(x: np.ndarray, lag: int) -> float:
    c = x - x.mean()
    d = c @ c
    return 0.0 if d < 1e-12 else float(c[:-lag] @ c[lag:] / d)


#: textbook definitions; a constant window has no shape, so 0 by convention
SEQUENCE_REFS = {
    "mean": lambda x: float(np.mean(x)),
    "std": lambda x: float(np.std(x)),
    "skew": lambda x: 0.0 if _z(x) is None else float(np.mean(_z(x) ** 3)),
    "kurtosis": lambda x: 0.0 if _z(x) is None else float(np.mean(_z(x) ** 4) - 3),
    "acf1": lambda x: _acf(x, 1),
    "acf2": lambda x: _acf(x, 2),
    "turning_point_rate": lambda x: float(np.mean(
        np.sign(np.diff(x))[:-1] * np.sign(np.diff(x))[1:] < 0)),
}


def single_model_c_f1(concept_ids: np.ndarray) -> float:
    """C-F1 of one model for the whole stream: per concept, precision is
    the concept's share of the stream and recall is 1."""
    _, counts = np.unique(concept_ids, return_counts=True)
    share = counts / counts.sum()
    return float(np.mean(2 * share / (share + 1)))


def flip_labels(y: np.ndarray, n_classes: int, share: float,
                rng: np.random.Generator) -> np.ndarray:
    """Upstream predictions ``l``: ``y`` with a seeded ``share`` of labels
    moved to another class, so error sources are not constant."""
    l = y.copy()
    flip = rng.random(len(y)) < share
    l[flip] = (y[flip] + rng.integers(1, n_classes, flip.sum())) % n_classes
    return l
