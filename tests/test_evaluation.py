import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig.errors import DataError
from flowig.evaluation import confusion, metrics
from flowig.flow_data import BENIGN, DDOS, WEB_ATTACK


def brute_force(cm):
    """Metrics recomputed per class from first principles, no shared code."""
    arr = np.array(cm, dtype=float)
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
        preds = [BENIGN, DDOS, WEB_ATTACK]
        cm = confusion(preds, preds)
        assert cm.shape == (3, 3)
        assert cm.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_orientation(self):
        # one DDoS flow predicted BENIGN lands in row DDOS, column BENIGN
        cm = confusion([BENIGN], [DDOS])
        assert cm[DDOS, BENIGN] == 1
        assert cm.sum() == 1

    def test_takes_an_argmax_array(self):
        preds = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 0.0]]).argmax(axis=1)
        assert confusion(preds, [DDOS, WEB_ATTACK]).tolist() == [[0, 0, 0], [0, 1, 0], [1, 0, 0]]

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            confusion([BENIGN], [])

    def test_negative_rejected(self):
        with pytest.raises(DataError) as info:
            metrics(((1, 0, 0), (0, -1, 0), (0, 0, 1)))
        assert str(info.value) == "confusion matrix must be 3x3 with non-negative counts"

    @pytest.mark.parametrize("counts", [((1, 0), (0, 1)), ((1, 0, 0, 0),) * 3], ids=["2x2", "3x4"])
    def test_not_3x3_rejected(self, counts):
        with pytest.raises(DataError) as info:
            metrics(counts)
        assert str(info.value) == "confusion matrix must be 3x3 with non-negative counts"


class TestMetrics:
    def test_perfect(self):
        m = metrics(((5, 0, 0), (0, 7, 0), (0, 0, 2)))
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0
        assert m.weighted_f1 == 1.0
        assert m.support == (5, 7, 2)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError) as info:
            metrics(((0,) * 3,) * 3)
        assert str(info.value) == "cannot compute metrics on an all-zero confusion matrix"

    def test_single_predicted_column(self):
        m = metrics(((4, 0, 0), (3, 0, 0), (2, 0, 0)))
        assert m.precision[0] == pytest.approx(4 / 9)
        assert m.recall[0] == 1.0
        assert m.f1[1] == 0.0
        assert set(m.zero_division_classes) == {"DDOS", "WEB_ATTACK"}

    def test_zero_division_line_in_class_order(self):
        # DDOS has no predictions (precision 0/0), WEB_ATTACK no support
        # (recall 0/0): both arms of the condition, listed in class order
        m = metrics(((4, 0, 1), (3, 0, 0), (0, 0, 0)))
        lines = m.format().splitlines()
        assert lines[lines.index("confusion_matrix") - 1] == "zero_division\tDDOS,WEB_ATTACK"

    def test_format_ends_with_the_confusion_matrix(self):
        counts = ((8, 2, 0), (1, 9, 0), (0, 0, 10))
        m = metrics(np.array(counts))
        assert m.counts == counts
        assert m == metrics(counts)
        assert m.format().endswith(
            f"weighted_f1\t{m.weighted_f1:.6f}\nconfusion_matrix\n8\t2\t0\n1\t9\t0\n0\t0\t10\n")

    def test_hand_worked_matrix(self):
        cm = ((8, 2, 0), (1, 9, 0), (0, 0, 10))
        m = metrics(cm)
        bf = brute_force(cm)
        np.testing.assert_allclose(m.precision, bf["precision"], atol=1e-15)
        np.testing.assert_allclose(m.recall, bf["recall"], atol=1e-15)
        np.testing.assert_allclose(m.f1, bf["f1"], atol=1e-15)
        assert m.accuracy == pytest.approx(27 / 30)
        # precision[0] = 8/9, recall[0] = 8/10
        assert m.f1[0] == pytest.approx(2 * (8 / 9) * 0.8 / (8 / 9 + 0.8))

    def test_macro_bounds(self):
        m = metrics(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        assert 0.0 <= m.macro_f1 <= 1.0
        assert min(m.f1) <= m.macro_f1 <= max(m.f1)

    def test_weighted_equals_macro_at_equal_support(self):
        m = metrics(((6, 2, 2), (1, 8, 1), (3, 3, 4)))
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
        cm = tuple(tuple(cells[i * 3 : i * 3 + 3]) for i in range(3))
        m = metrics(cm)
        bf = brute_force(cm)
        for name in ("precision", "recall", "f1"):
            np.testing.assert_allclose(getattr(m, name), bf[name], atol=1e-12)
        assert abs(m.accuracy - bf["accuracy"]) < 1e-12
        assert abs(m.macro_f1 - bf["macro_f1"]) < 1e-12
        assert abs(m.weighted_f1 - bf["weighted_f1"]) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=60)
        labels = rng.integers(0, 3, size=60)
        m1 = metrics(confusion(preds, labels))
        order = rng.permutation(60)
        m2 = metrics(confusion(preds[order], labels[order]))
        assert m1 == m2
