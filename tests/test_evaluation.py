import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig.errors import DataError
from flowig.evaluation import (
    ConfusionMatrix,
    confusion,
    metrics,
    predict_labels,
)
from flowig.flow_data import COARSE_LABELS, CoarseLabel


def brute_force(cm):
    """Metrics recomputed per class from first principles, no shared code."""
    arr = np.array(cm.counts, dtype=float)
    out = {"precision": [], "recall": [], "f1": []}
    for c in range(3):
        tp = arr[c, c]
        fp = arr[:, c].sum() - tp
        fn = arr[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        out["precision"].append(p)
        out["recall"].append(r)
        out["f1"].append(f)
    support = arr.sum(axis=1)
    out["accuracy"] = np.trace(arr) / arr.sum()
    out["macro_f1"] = float(np.mean(out["f1"]))
    out["weighted_f1"] = float(np.dot(out["f1"], support) / support.sum())
    return out


class TestConfusion:
    def test_diagonal(self):
        preds = [CoarseLabel.BENIGN, CoarseLabel.DDOS, CoarseLabel.WEB_ATTACK]
        cm = confusion(preds, preds)
        assert cm.counts == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_orientation(self):
        # one DDoS flow predicted BENIGN lands in row DDOS, column BENIGN
        cm = confusion([CoarseLabel.BENIGN], [CoarseLabel.DDOS])
        assert cm.counts[CoarseLabel.DDOS.value][CoarseLabel.BENIGN.value] == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            confusion([CoarseLabel.BENIGN], [])

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(((1, 0, 0), (0, -1, 0), (0, 0, 1)))


class TestMetrics:
    def test_perfect(self):
        m = metrics(ConfusionMatrix(((5, 0, 0), (0, 7, 0), (0, 0, 2))))
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0
        assert m.weighted_f1 == 1.0
        assert m.support == (5, 7, 2)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            metrics(ConfusionMatrix(((0,) * 3,) * 3))

    def test_single_predicted_column(self):
        m = metrics(ConfusionMatrix(((4, 0, 0), (3, 0, 0), (2, 0, 0))))
        assert m.precision[0] == pytest.approx(4 / 9)
        assert m.recall[0] == 1.0
        assert m.f1[1] == 0.0
        assert set(m.zero_division_classes) == {"DDOS", "WEB_ATTACK"}

    def test_zero_division_line_in_class_order(self):
        # DDOS has no predictions (precision 0/0), WEB_ATTACK no support
        # (recall 0/0): both arms of the condition, listed in class order
        m = metrics(ConfusionMatrix(((4, 0, 1), (3, 0, 0), (0, 0, 0))))
        assert m.format().splitlines()[-1] == "zero_division\tDDOS,WEB_ATTACK"

    def test_hand_worked_matrix(self):
        cm = ConfusionMatrix(((8, 2, 0), (1, 9, 0), (0, 0, 10)))
        m = metrics(cm)
        bf = brute_force(cm)
        np.testing.assert_allclose(m.precision, bf["precision"], atol=1e-15)
        np.testing.assert_allclose(m.recall, bf["recall"], atol=1e-15)
        np.testing.assert_allclose(m.f1, bf["f1"], atol=1e-15)
        assert m.accuracy == pytest.approx(27 / 30)
        # precision[0] = 8/9, recall[0] = 8/10
        assert m.f1[0] == pytest.approx(2 * (8 / 9) * 0.8 / (8 / 9 + 0.8))

    def test_macro_bounds(self):
        m = metrics(ConfusionMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 9))))
        assert 0.0 <= m.macro_f1 <= 1.0
        assert min(m.f1) <= m.macro_f1 <= max(m.f1)

    def test_weighted_equals_macro_at_equal_support(self):
        m = metrics(ConfusionMatrix(((6, 2, 2), (1, 8, 1), (3, 3, 4))))
        assert m.weighted_f1 == pytest.approx(m.macro_f1, abs=1e-12)

    def test_reference_f1_row_recombines(self):
        # frozen regression row: per-class F1 (0.9995, 0.9994, 0.9717) must
        # average to the recorded macro figure
        macro = (0.9995 + 0.9994 + 0.9717) / 3
        assert abs(macro - 0.9902) <= 0.0001

    @given(
        st.lists(st.integers(0, 500), min_size=9, max_size=9).filter(
            lambda xs: sum(xs) > 0
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_against_brute_force(self, cells):
        cm = ConfusionMatrix(tuple(tuple(cells[i * 3 : i * 3 + 3]) for i in range(3)))
        m = metrics(cm)
        bf = brute_force(cm)
        for name in ("precision", "recall", "f1"):
            np.testing.assert_allclose(getattr(m, name), bf[name], atol=1e-12)
        assert abs(m.accuracy - bf["accuracy"]) < 1e-12
        assert abs(m.macro_f1 - bf["macro_f1"]) < 1e-12
        assert abs(m.weighted_f1 - bf["weighted_f1"]) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = [COARSE_LABELS[i] for i in rng.integers(0, 3, size=60)]
        labels = [COARSE_LABELS[i] for i in rng.integers(0, 3, size=60)]
        m1 = metrics(confusion(preds, labels))
        order = rng.permutation(60)
        m2 = metrics(confusion([preds[i] for i in order], [labels[i] for i in order]))
        assert m1 == m2


class TestPredictLabels:
    def test_argmax(self):
        logits = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 0.0]])
        assert predict_labels(logits) == [CoarseLabel.DDOS, CoarseLabel.BENIGN]

    def test_tie_goes_to_lower_index(self):
        logits = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 2.0]])
        assert predict_labels(logits) == [CoarseLabel.BENIGN, CoarseLabel.DDOS]
