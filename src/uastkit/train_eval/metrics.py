"""Weighted multi-class evaluation metrics.

Per-class precision, recall, and F1 come straight off the confusion matrix
and are averaged with weights proportional to class support.  A class the
model never predicts contributes precision 0 rather than poisoning the
average with a division by zero.  Two accuracies are reported: the plain
correct/total fraction, and a support-weighted variant that also credits
true negatives, which differs from the plain one whenever k > 2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import DataError

SUMMARY_NAMES = ("precision", "recall", "f1", "accuracy")


@dataclass(frozen=True)
class MetricsReport:
    k: int
    total: int
    confusion: np.ndarray  # [k x k], rows true, columns predicted
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    support: np.ndarray
    precision: float
    recall: float
    f1: float
    accuracy: float
    accuracy_tn_weighted: float

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v.tolist() if isinstance(v, np.ndarray) else v
                for name, v in values.items()}

    def summary(self) -> dict[str, float]:
        """The headline metrics: history, checkpoints and reports carry
        these, under these names, in this order."""
        return {name: getattr(self, name) for name in SUMMARY_NAMES}

    def format_table(self, labels: list[str] | None = None) -> str:
        names = labels if labels and len(labels) == self.k else \
            [str(i) for i in range(self.k)]
        width = max(6, max(len(n) for n in names) + 1)
        lines = ["per-class counts:"]
        head = f"{'class':<{width}} {'tp':>6} {'fp':>6} {'fn':>6} {'tn':>6} {'support':>8}"
        lines.append(head)
        for i, name in enumerate(names):
            lines.append(f"{name:<{width}} {self.tp[i]:>6} {self.fp[i]:>6} "
                         f"{self.fn[i]:>6} {self.tn[i]:>6} {self.support[i]:>8}")
        lines.append("")
        lines.append(f"weighted precision  {self.precision:.4f}")
        lines.append(f"weighted recall     {self.recall:.4f}")
        lines.append(f"weighted f1         {self.f1:.4f}")
        lines.append(f"accuracy            {self.accuracy:.4f}")
        lines.append(f"accuracy (tn-weighted) {self.accuracy_tn_weighted:.4f}")
        return "\n".join(lines)


def compute_metrics(y_true, y_pred, k: int) -> MetricsReport:
    """Build the weighted report from parallel truth/prediction label lists."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise DataError("compute_metrics: y_true and y_pred must be equal-"
                        "length 1-D sequences")
    if t.size == 0:
        raise DataError("compute_metrics: no samples")
    if k < 1 or t.min() < 0 or p.min() < 0 or t.max() >= k or p.max() >= k:
        raise DataError(f"compute_metrics: labels outside [0, {k})")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (t, p), 1)
    total = int(t.size)
    tp = np.diag(confusion).astype(np.int64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    tn = total - tp - fp - fn
    support = confusion.sum(axis=1)
    weights = support / total

    def safe(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        out = np.zeros(k, dtype=np.float64)
        nz = den > 0
        out[nz] = num[nz] / den[nz]
        return out

    prec_c = safe(tp, tp + fp)
    rec_c = safe(tp, tp + fn)
    f1_c = safe(2 * prec_c * rec_c, prec_c + rec_c)
    return MetricsReport(
        k=k, total=total, confusion=confusion, tp=tp, fp=fp, fn=fn, tn=tn,
        support=support,
        precision=float(weights @ prec_c),
        recall=float(weights @ rec_c),
        f1=float(weights @ f1_c),
        accuracy=float(tp.sum() / total),
        accuracy_tn_weighted=float(weights @ ((tp + tn) / total)),
    )
