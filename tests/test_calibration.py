import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from _files import read_text
from dropuq import calibration
from dropuq.calibration import (
    CalibrationSet,
    ace,
    fit_temperature,
    focal_loss,
    mce,
    negative_log_likelihood,
    read_calibration_records,
    reliability,
    reliability_csv,
    serialize_calibration_records,
    softmax,
)
from dropuq.ingest import ParseError
from dropuq.synth import generate_calibration_records


def repeated(logits, true_class, n):
    """A CalibrationSet of n copies of one record."""
    return CalibrationSet(np.tile(np.asarray(logits, dtype=np.float64), (n, 1)),
                          np.full(n, true_class))


def grid_search_nll(records, step=0.01):
    """Oracle: exhaustive NLL over T in {step, 2*step, ..., 100}."""
    z, y = records.logits, records.true_class
    z = z - z.max(axis=1, keepdims=True)
    grid = np.arange(1, int(round(100 / step)) + 1) * step
    best_t, best_nll = None, np.inf
    for chunk in np.array_split(grid, 40):
        zt = z[None, :, :] / chunk[:, None, None]
        nll = (
            np.log(np.exp(zt).sum(axis=2)) - zt[:, np.arange(len(y)), y]
        ).sum(axis=1)
        i = int(np.argmin(nll))
        if nll[i] < best_nll:
            best_nll, best_t = float(nll[i]), float(chunk[i])
    return best_t, best_nll


def one_row(logits, temperature=1.0):
    """The softmax of one logit vector, through the (N, K+1) interface."""
    return softmax(np.array([logits], dtype=np.float64), temperature)[0]


class TestSoftmax:
    def test_uniform(self):
        assert one_row((0.0, 0.0, 0.0)) == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    @pytest.mark.parametrize("shift", [-100.0, 0.0, 3.5, 250.0])
    def test_log_ratio(self, shift):
        p = one_row((shift, shift + math.log(2.0)))
        assert p[0] == pytest.approx(1 / 3, abs=1e-12)
        assert p[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_no_overflow(self):
        p = one_row((1000.0, 0.0))
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(np.array([rng.normal(0, 5, 6) for _ in range(50)]))
        assert (np.abs(p.sum(axis=1) - 1.0) < 1e-12).all()

    def test_overflowing_row_is_shifted_first(self):
        # 1e308 / 0.5 overflows, so the first row is shifted before it is
        # divided; the other rows keep the divide-then-shift bytes.
        z = np.array([[1e308, -1e308, 0.0], [2.0, -1.0, 0.5], [0.0, 300.0, 1.0]])
        p = softmax(z, 0.5)
        assert p[0].tolist() == [1.0, 0.0, 0.0]
        scaled = z[1:] / 0.5
        e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        assert p[1:].tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
        assert softmax(np.array([[1.0, 2.0]]), 1e-308).tolist() == [[0.0, 1.0]]


BAD_TEMPERATURES = [0.0, -1.0, math.nan, math.inf]


class TestScaledSoftmax:
    def test_identity_temperature(self):
        z = np.array([[0.3, -1.2, 2.0]])
        assert softmax(z, 1.0).tobytes() == softmax(z).tobytes()

    def test_large_temperature_uniform(self):
        p = one_row((5.0, -3.0, 1.0), 1e6)
        assert max(abs(v - 1 / 3) for v in p) < 1e-5

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            z = rng.normal(0, 4, 5)
            t = float(rng.uniform(0.01, 50.0))
            assert int(np.argmax(one_row(z, t))) == int(np.argmax(z))

    def test_rejects_bad_temperature(self):
        for t in BAD_TEMPERATURES:
            with pytest.raises(ValueError, match="temperature must be finite and positive"):
                one_row((0.0, 1.0), t)


class TestTemperatureRule:
    """Every function of a temperature rejects one that is not finite and > 0,
    as softmax does (TestScaledSoftmax)."""

    records = CalibrationSet(np.array([[0.0, 1.0, -1.0], [2.0, 0.5, 0.0]]), np.array([1, 0]))

    @pytest.mark.parametrize("t", BAD_TEMPERATURES)
    @pytest.mark.parametrize(
        "call",
        [
            lambda r, t: reliability(r, t, 10),
            lambda r, t: negative_log_likelihood(r, t),
            lambda r, t: focal_loss(r, t),
        ],
        ids=["reliability", "negative_log_likelihood", "focal_loss"],
    )
    def test_rejects(self, call, t):
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            call(self.records, t)

    def test_reliability_of_no_records_checks_it_too(self):
        empty = read_text(read_calibration_records, "")
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            reliability(empty, 0.0, 10)
        assert sum(b.count for b in reliability(empty, 1.0, 10)) == 0


class TestFitTemperature:
    def test_recovers_two(self):
        records = generate_calibration_records(10000, 2.0, 5, seed=42)
        t = fit_temperature(records)
        assert abs(t - 2.0) / 2.0 < 0.02
        _, oracle_nll = grid_search_nll(records)
        assert negative_log_likelihood(records, t) <= oracle_nll + 1e-6 * abs(oracle_nll)

    def test_already_calibrated(self):
        records = generate_calibration_records(10000, 1.0, 5, seed=7)
        assert 0.9 <= fit_temperature(records) <= 1.1

    def test_single_record_correct_dominant_pushes_low(self):
        # confidence helps: NLL keeps improving toward the low-T boundary
        records = repeated((0.0, 3.0, 1.0), 1, 20)
        t = fit_temperature(records)
        _, oracle_nll = grid_search_nll(records, step=0.01)
        assert t < 0.2
        assert negative_log_likelihood(records, t) <= oracle_nll + 1e-9

    def test_single_record_wrong_dominant_pushes_to_upper_bound(self):
        records = repeated((0.0, 3.0, 1.0), 2, 20)
        t = fit_temperature(records)
        oracle_t, oracle_nll = grid_search_nll(records, step=0.01)
        assert t > 99.0
        assert oracle_t == pytest.approx(100.0)
        assert negative_log_likelihood(records, t) <= oracle_nll + 1e-6 * abs(oracle_nll)

    def test_never_worse_than_unit_temperature(self):
        for seed in range(10):
            tstar = float(np.random.default_rng(seed).uniform(0.3, 4.0))
            records = generate_calibration_records(500, tstar, 4, seed=seed)
            t = fit_temperature(records)
            assert negative_log_likelihood(records, t) <= negative_log_likelihood(
                records, 1.0
            ) + 1e-9

    def test_empty_records_error(self):
        with pytest.raises(ValueError):
            fit_temperature(read_text(read_calibration_records, ""))

    @pytest.mark.parametrize("call, name", [
        (lambda r: negative_log_likelihood(r, 1.0), "the NLL"),
        (focal_loss, "the focal loss"),
    ], ids=["negative_log_likelihood", "focal_loss"])
    def test_empty_records_named(self, call, name):
        # An empty file reads as logits of shape (0, 0), which has no row maximum.
        with pytest.raises(ValueError, match=f"cannot compute {name} of empty records"):
            call(read_text(read_calibration_records, ""))


class TestReliability:
    def test_perfect_confidence(self):
        records = repeated((0.0, 200.0), 1, 5)
        d = reliability(records, 1.0, 10)
        assert d[-1].count == 5
        assert d[-1].accuracy == 1.0
        assert d[-1].mean_confidence == pytest.approx(1.0, abs=1e-9)
        assert mce(d) == pytest.approx(0.0, abs=1e-9)

    def test_bin_counts_conserved(self):
        records = generate_calibration_records(500, 1.3, 4, seed=2)
        d = reliability(records, 1.0, 10)
        assert sum(b.count for b in d) == 500

    def test_empty_bins_excluded(self):
        # two-class records: confidence >= 0.5, low bins stay empty
        records = repeated((0.0, 0.1), 1, 9)
        d = reliability(records, 1.0, 10)
        assert sum(1 for b in d if b.count > 0) == 1
        assert mce(d) == ace(d)

    def test_known_per_bin_accuracy(self):
        # construct records with confidence c and accuracy p per bin, then
        # recount with a direct loop oracle
        rng = np.random.default_rng(3)
        rows, classes = [], []
        plan = [(0.55, 0.6), (0.75, 0.7), (0.95, 0.9)]
        for conf, acc in plan:
            gap = math.log(conf / (1.0 - conf))
            for _ in range(1000):
                correct = rng.random() < acc
                rows.append((0.0, gap))
                classes.append(1 if correct else 0)
        records = CalibrationSet(np.array(rows), np.array(classes))
        d = reliability(records, 1.0, 10)
        counts = {}
        hits = {}
        for row, true_class in zip(rows, classes):
            p = one_row(row)
            conf = max(p)
            b = min(int(conf * 10), 9)
            counts[b] = counts.get(b, 0) + 1
            hits[b] = hits.get(b, 0) + (
                1 if int(np.argmax(p)) == true_class else 0
            )
        for i, b in enumerate(d):
            assert b.count == counts.get(i, 0)
            if b.count:
                assert b.accuracy == pytest.approx(hits[i] / counts[i], abs=1e-12)

    def test_overflowing_records_are_binned(self):
        records = CalibrationSet(
            np.array([[1e308, -1e308, 0.0], [2.0, -1.0, 0.5], [0.0, 300.0, 1.0]]), np.array([0, 0, 1])
        )
        d = reliability(records, 0.5, 10)
        assert sum(b.count for b in d) == 3
        assert d[-1].count == 3 and d[-1].accuracy == 1.0

    def test_csv_shape(self):
        records = generate_calibration_records(100, 1.0, 3, seed=1)
        text = reliability_csv(reliability(records, 1.0, 10))
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,confidence,accuracy,count"
        assert len(lines) == 11


class TestMceAce:
    def test_single_bin_gap(self):
        # accuracy 0.7 vs confidence 0.9 in one populated bin -> 0.2
        rng = np.random.default_rng(4)
        gap = math.log(0.9 / 0.1)
        classes = [1 if rng.random() < 0.7 else 0 for _ in range(4000)]
        records = CalibrationSet(np.tile((0.0, gap), (4000, 1)), np.array(classes))
        d = reliability(records, 1.0, 10)
        assert mce(d) == pytest.approx(0.2, abs=0.03)
        assert ace(d) == pytest.approx(0.2, abs=0.03)

    def test_mce_at_least_ace(self):
        for seed in range(10):
            records = generate_calibration_records(400, 2.5, 4, seed=seed)
            d = reliability(records, 1.0, 10)
            assert mce(d) >= ace(d) - 1e-12

    def test_all_empty_error(self):
        d = reliability(read_text(read_calibration_records, ""), 1.0, 5)
        with pytest.raises(ValueError):
            mce(d)


def from_probabilities(rows, true_classes):
    """Records whose softmax is ``rows``, to rounding: logits log(p)."""
    return CalibrationSet(np.log(np.asarray(rows, dtype=np.float64)), np.asarray(true_classes))


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(5)
        rows, classes = [], []
        for _ in range(200):
            raw = rng.dirichlet(np.ones(4))
            t = int(rng.integers(0, 4))
            if raw[t] == 0.0:
                continue
            rows.append(raw)
            classes.append(t)
        expected = [-math.log(raw[t]) for raw, t in zip(rows, classes)]
        got = focal_loss(from_probabilities(rows, classes), gamma=0.0)
        assert got.tolist() == pytest.approx(expected, abs=1e-12)

    def test_certain_prediction_zero_loss(self):
        # exp(-1000) is 0, so the true class holds probability 1
        assert focal_loss(CalibrationSet(np.array([[-1000.0, 0.0]]), np.array([1])),
                          gamma=2.0).tolist() == [0.0]

    def test_half_probability_value(self):
        got = focal_loss(CalibrationSet(np.zeros((1, 2)), np.array([1])), gamma=2.0)
        assert got[0] == pytest.approx(0.25 * math.log(2.0), abs=1e-12)

    def test_never_exceeds_cross_entropy(self):
        rng = np.random.default_rng(6)
        rows, classes, gammas = [], [], []
        for _ in range(200):
            raw = rng.dirichlet(np.ones(5))
            t = int(rng.integers(0, 5))
            if raw[t] == 0.0:
                continue
            rows.append(raw)
            classes.append(t)
            gammas.append(float(rng.uniform(0, 6)))
        ce = -np.log([raw[t] for raw, t in zip(rows, classes)])
        assert (focal_loss(from_probabilities(rows, classes), gamma=gammas) <= ce + 1e-12).all()

    def test_alpha_weights(self):
        records = from_probabilities([(0.25, 0.75)], [1])
        assert focal_loss(records, alpha=(1.0, 2.0), gamma=0.0)[0] == pytest.approx(
            -2.0 * math.log(0.75), abs=1e-12
        )

    def test_zero_probability_error(self):
        # exp(-1000) is 0: the true class has probability 0
        with pytest.raises(ValueError, match="row 1: true-class probability is 0"):
            focal_loss(CalibrationSet(np.array([[0.0, 1.0], [0.0, -1000.0]]), np.array([1, 1])))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"gamma": -0.5}, "gamma must be finite and non-negative"),
            ({"gamma": math.nan}, "gamma must be finite and non-negative"),
            ({"gamma": [0.0, -1.0]}, "gamma must be finite and non-negative"),
            ({"alpha": (1.0, 2.0)}, "alpha needs one weight per class"),
            ({"alpha": (1.0, 0.0, 2.0)}, "alpha entries must be finite and positive"),
            ({"alpha": (1.0, math.nan, 2.0)}, "alpha entries must be finite and positive"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, message):
        records = CalibrationSet(np.array([[0.0, 1.0, -1.0], [2.0, 0.5, 0.0]]), np.array([1, 0]))
        with pytest.raises(ValueError, match=message):
            focal_loss(records, **kwargs)


class TestRecordIo:
    def test_round_trip(self):
        records = generate_calibration_records(20, 1.7, 3, seed=9)
        text = serialize_calibration_records(records)
        assert read_text(read_calibration_records, text) == records

    def test_rejects_unknown_fields(self):
        with pytest.raises(ParseError, match="line 1"):
            read_text(read_calibration_records, '{"logits": [0, 1], "true_class": 1, "x": 2}')

    def test_rejects_bad_class(self):
        with pytest.raises(ParseError):
            read_text(read_calibration_records, '{"logits": [0, 1], "true_class": 5}')

    def test_rejects_mixed_logit_counts(self):
        text = '{"logits": [1, 2], "true_class": 1}\n\n{"logits": [1, 2, 3], "true_class": 1}\n'
        with pytest.raises(ParseError, match="^line 3: 3 logits, but line 1 has 2") as err:
            read_text(read_calibration_records, text)
        assert err.value.line_number == 3


def reference_fit_and_reliability(records, bins=10):
    """The record-by-record path this module used before CalibrationSet.

    Reads every record as Python numbers, turns them back into arrays,
    fits T with the un-hoisted NLL and bins the softmax.
    Returns (T, reliability CSV at T = 1, reliability CSV at T).
    """
    z = np.array(records.logits.tolist(), dtype=np.float64)
    y = np.array(records.true_class.tolist(), dtype=np.int64)

    def nll(t):
        zt = z / t
        m = zt.max(axis=1)
        log_norm = m + np.log(np.exp(zt - m[:, None]).sum(axis=1))
        return float(np.sum(log_norm - zt[np.arange(len(y)), y]))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.01, 100.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(c), nll(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = nll(d)
    t = (a + b) / 2.0
    if nll(1.0) < nll(t):
        t = 1.0

    def csv(temperature):
        shifted = z / temperature
        e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        conf = p.max(axis=1)
        correct = p.argmax(axis=1) == y
        idx = np.minimum((conf * bins).astype(np.int64), bins - 1)
        out = ["bin_lo,bin_hi,confidence,accuracy,count"]
        for i in range(bins):
            member = idx == i
            count = int(member.sum())
            mean_conf = repr(float(conf[member].mean())) if count else ""
            acc = repr(float(correct[member].mean())) if count else ""
            out.append(f"{i / bins!r},{(i + 1) / bins!r},{mean_conf},{acc},{count}")
        return "\n".join(out) + "\n"

    return t, csv(1.0), csv(t)


GOOD_RECORD = '{"logits": [0.0, 1.5, -2.0], "true_class": 1}'


class TestColumnarPath:
    def test_matches_record_by_record_reference(self):
        rng = np.random.default_rng(17)
        for i in range(24):
            n = int(rng.choice([50, 400, 3000]))
            k = int(rng.integers(1, 10))
            true_t = float(rng.uniform(0.3, 3.5))
            records = generate_calibration_records(n, true_t, k, seed=100 + i)
            ref_t, ref_before, ref_after = reference_fit_and_reliability(records)
            t = fit_temperature(records)
            assert t == pytest.approx(ref_t, rel=1e-12, abs=0.0), (n, k, true_t)
            assert reliability_csv(reliability(records, 1.0, 10)) == ref_before
            assert reliability_csv(reliability(records, t, 10)) == ref_after

    def test_separable_sets_fit_no_worse_than_reference(self):
        # With a handful of records the argmax often gets every one right.
        # Then the NLL falls toward T = 0.01 and flattens at rounding level,
        # so the search stops on rounding noise and T may differ from the
        # reference's; the NLL reached must not be worse.
        rng = np.random.default_rng(18)
        for i in range(40):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, 10))
            records = generate_calibration_records(n, float(rng.uniform(0.3, 3.5)), k, seed=i)
            ref_t = reference_fit_and_reliability(records)[0]
            t = fit_temperature(records)
            assert negative_log_likelihood(records, t) <= negative_log_likelihood(
                records, ref_t
            ) + 1e-12

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"logits": [NaN, 1.5, -2.0], "true_class": 1}', "logits must be finite"),
            ('{"logits": [0.0, Infinity, -2.0], "true_class": 1}', "logits must be finite"),
            ('{"logits": [0.0, 1.5, -Infinity], "true_class": 1}', "logits must be finite"),
            ('{"logits": [0.0, 1e400, -2.0], "true_class": 1}', "logits must be finite"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": 3}', "true_class 3 out of range"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": -1}', "true_class -1 out of range"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": 100000000000000000000}',
             "true_class 100000000000000000000 out of range"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": 1.7}', "true_class must be a JSON integer"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": 1.0}', "true_class must be a JSON integer"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": "1"}', "true_class must be a JSON integer"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": true}', "true_class must be a JSON integer"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": null}', "true_class must be a JSON integer"),
            ('{"logits": [0.0, "0.5", -2.0], "true_class": 1}', "logits must be a list of JSON numbers"),
            ('{"logits": [0.0, null, -2.0], "true_class": 1}', "logits must be a list of JSON numbers"),
            ('{"logits": [0.0, [1.5], -2.0], "true_class": 1}', "logits must be a list of JSON numbers"),
            ('{"logits": [[0.0], [1.5], [2.0]], "true_class": 1}', "logits must be a list of JSON numbers"),
            ('{"logits": 5, "true_class": 1}', "logits must be a list"),
            ('{"logits": "abc", "true_class": 1}', "logits must be a list"),
            ('{"logits": {"a": 1, "b": 2, "c": 3}, "true_class": 1}', "logits must be a list"),
            ('{"logits": [0.0, true, -2.0], "true_class": 1}', "logits must be a list of JSON numbers"),
            ('{"logits": [false, 1.5, -2.0], "true_class": 1}', "logits must be a list of JSON numbers"),
        ],
    )
    def test_bad_row_names_its_line(self, bad, message):
        lines = [GOOD_RECORD, "", "  ", bad, "", GOOD_RECORD, bad]
        with pytest.raises(ParseError, match=f"^line 4: {message}") as err:
            read_text(read_calibration_records, "\n".join(lines) + "\n")
        assert err.value.line_number == 4

    @pytest.mark.parametrize(
        "line2, line3, message",
        [
            ('{"logits": [0.0, "x", 1.0], "true_class": 1}',
             '{"logits": [0.0, 1.0], "true_class": 1}',
             "line 2: logits must be a list of JSON numbers, got 'x'"),
            ('{"logits": [0.0, 1.5, -2.0], "true_class": 1.0}',
             '{"logits": [0.0, "x", 1.0], "true_class": 1}',
             "line 2: true_class must be a JSON integer, got 1.0"),
        ],
        ids=["logit type before a later width", "class type before a later logit type"],
    )
    def test_first_faulty_line_is_reported(self, line2, line3, message):
        text = "\n".join([GOOD_RECORD, line2, line3]) + "\n"
        with pytest.raises(ParseError) as err:
            read_text(read_calibration_records, text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"logits": [0.5], "true_class": 0}', "logits need background plus >= 1 class"),
            ('{"logits": [], "true_class": 0}', "logits need background plus >= 1 class"),
            ('{"logits": [0.0, 1.0], "true_class": 2}', "true_class 2 out of range"),
        ],
    )
    def test_bad_first_row_names_its_line(self, bad, message):
        text = f"\n\n{bad}\n{bad}\n"
        with pytest.raises(ParseError, match=f"^line 3: {message}") as err:
            read_text(read_calibration_records, text)
        assert err.value.line_number == 3

    def test_arrays_are_read_only_copies(self):
        z = np.array([[0.0, 1.0], [2.0, -1.0]])
        y = np.array([1, 0])
        records = CalibrationSet(z, y)
        z[0, 0] = 9.0
        y[0] = 0
        assert records.logits[0, 0] == 0.0 and records.true_class[0] == 1
        for parsed in (records, read_text(read_calibration_records, GOOD_RECORD),
                       generate_calibration_records(5, 1.0, 2, seed=0)):
            assert parsed.logits.dtype == np.float64
            assert parsed.true_class.dtype == np.int64
            for array in (parsed.logits, parsed.true_class):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_set_validates_direct_construction(self):
        with pytest.raises(ValueError, match="row 1: logits must be finite"):
            CalibrationSet(np.array([[0.0, 1.0], [np.nan, 1.0]]), np.array([1, 1]))
        with pytest.raises(ValueError, match="row 0: true_class 2 out of range"):
            CalibrationSet(np.array([[0.0, 1.0]]), np.array([2]))
        with pytest.raises(ValueError, match="one true class per row"):
            CalibrationSet(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="true classes integers"):
            CalibrationSet(np.zeros((2, 2)), np.array([True, False]))
        with pytest.raises(ValueError, match="true classes integers"):
            CalibrationSet(np.array([["0", "1"]]), np.array([1]))

    def test_length_and_equality(self):
        a = generate_calibration_records(30, 1.5, 3, seed=4)
        assert len(a) == 30 and a
        assert not read_text(read_calibration_records, "")
        assert a == CalibrationSet(a.logits.copy(), a.true_class.copy())
        assert a != generate_calibration_records(30, 1.5, 3, seed=5)
        assert a != CalibrationSet(a.logits, (a.true_class + 1) % 4)

    def test_parse_retains_only_the_arrays(self):
        text = serialize_calibration_records(generate_calibration_records(20_000, 2.0, 9, seed=8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = read_text(read_calibration_records, text)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nbytes = records.logits.nbytes + records.true_class.nbytes
        assert retained < 1.5 * nbytes, (retained, nbytes)

    def test_generated_records_are_byte_stable(self):
        # The inputs of the benchmark's calib workload are made this way.
        text = serialize_calibration_records(generate_calibration_records(200, 2.0, 9, seed=1))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5bd5be87515aa08b317b76796e6836878b5797825bc7aa581b1321ca34dcdaee"
        )


class TestRecordText:
    """The serialiser writes json.dumps's text; the reader reads every double back."""

    def test_serializer_matches_json_dumps(self):
        rng = np.random.default_rng(21)
        special = np.array([0.0, -0.0, 1e-05, 1e16, 5e-324, -5e-324, 1.7976931348623157e308,
                            0.1, 1 / 3, 2.0**-1022, 123456789.0])
        for n, k in [(1, 1), (7, 2), (50, 9), (400, 4)]:
            z = rng.normal(0.0, 10.0 ** rng.uniform(-8, 8), size=(n, k + 1))
            z.flat[rng.integers(z.size, size=z.size // 2)] = rng.choice(special, z.size // 2)
            records = CalibrationSet(z, rng.integers(0, k + 1, size=n))
            expected = "".join(
                json.dumps({"logits": row, "true_class": c}) + "\n"
                for row, c in zip(records.logits.tolist(), records.true_class.tolist())
            )
            assert serialize_calibration_records(records) == expected
        empty = CalibrationSet(np.empty((0, 0)), np.empty(0, dtype=np.int64))
        assert serialize_calibration_records(empty) == ""

    def test_random_doubles_read_back_bit_identical(self, tmp_path):
        bits = np.random.default_rng(22).integers(0, 2**64, size=330_000, dtype=np.uint64)
        z = bits.view(np.float64)
        z = z[np.isfinite(z)][: 300_000].reshape(-1, 10)
        assert z.size == 300_000
        records = CalibrationSet(z, np.zeros(len(z), dtype=np.int64))
        path = tmp_path / "records.jsonl"
        path.write_text(serialize_calibration_records(records), encoding="utf-8")
        parsed = read_calibration_records(path)
        assert parsed.logits.view(np.uint64).tobytes() == z.view(np.uint64).tobytes()

    @pytest.mark.parametrize(
        "value, expected",
        [("100000000000000000000", 1e20), ("-9223372036854775809", -9223372036854775809.0),
         ("18446744073709551616", 2.0**64), ("9" * 300, float("9" * 300))],
    )
    def test_integer_logits_of_any_size_are_numbers(self, value, expected):
        records = read_text(read_calibration_records, f'{{"logits": [0.5, {value}], "true_class": 1}}')
        assert records.logits.tolist() == [[0.5, expected]]

    @pytest.mark.parametrize("value", ["1" + "0" * 400, "-1" + "0" * 400, "1e400", "-1e400"])
    def test_logits_beyond_the_double_range_are_not_finite(self, value):
        lines = [GOOD_RECORD, "", f'{{"logits": [0.0, {value}, -2.0], "true_class": 1}}']
        sign = "-" if value.startswith("-") else ""
        with pytest.raises(ParseError, match=rf"^line 3: logits must be finite, got \[0.0, "
                                             rf"{sign}inf, -2.0\]"):
            read_text(read_calibration_records, "\n".join(lines))


def reference_record_text(records):
    """Records formatted one value at a time with float.__repr__, which is how
    json.dumps prints a float."""
    return "".join(
        '{"logits": [%s], "true_class": %d}\n' % (", ".join(map(repr, z)), c)
        for z, c in zip(records.logits.tolist(), records.true_class.tolist())
    )


class TestBlockWriter:
    """The block writer prints orjson's text where it equals repr's and repr's
    elsewhere. An orjson whose float text changes fails here."""

    def check(self, records, tmp_path):
        text = serialize_calibration_records(records)
        assert text == reference_record_text(records)
        path = tmp_path / "records.jsonl"
        path.write_text(text, encoding="utf-8")
        parsed = read_calibration_records(path)
        assert parsed.logits.tobytes() == records.logits.tobytes()
        assert parsed.true_class.tobytes() == records.true_class.tobytes()

    def test_random_doubles(self, tmp_path):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2**64, size=660_000, dtype=np.uint64).view(np.float64)
        every_exponent = bits[np.isfinite(bits)][:600_000]
        # Random bits are rarely inside [1e-4, 1e16), where orjson's text is kept.
        decades = rng.choice([-1.0, 1.0], 600_000) * 10.0 ** rng.uniform(-6, 18, 600_000)
        z = np.concatenate([every_exponent, decades]).reshape(-1, 12)
        assert z.size >= 1_000_000
        self.check(CalibrationSet(z, rng.integers(0, 12, size=len(z))), tmp_path)

    def test_boundary_values(self, tmp_path):
        edges = [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 5e-324, -0.0, 0.0,
                 np.finfo(np.float64).max, np.finfo(np.float64).tiny, 2.0**53, 1e15]
        z = np.array(edges + [-v for v in edges])
        rows = np.stack([np.roll(z, i) for i in range(len(z))])  # each value in each column
        in_range = np.resize([0.5, -3.25, 1e-4, 9999999999999998.0], (len(rows), len(z) - 3))
        records = CalibrationSet(
            np.concatenate([rows, np.column_stack([rows[:, :3], in_range])]),
            np.arange(2 * len(rows)) % 4,
        )
        self.check(records, tmp_path)

    def test_mixed_rows(self, tmp_path):
        rng = np.random.default_rng(32)
        z = rng.normal(0.0, 3.0, size=(3 * calibration._TEXT_BLOCK_ROWS, 5))
        out_of_range = rng.random(z.shape) < 0.02
        z[out_of_range] = rng.choice([1e-05, -7e-300, 1e16, 3e200, 5e-324], out_of_range.sum())
        self.check(CalibrationSet(z, rng.integers(0, 5, size=len(z))), tmp_path)

    def test_fortran_order(self, tmp_path):
        z = np.asfortranarray(np.random.default_rng(33).normal(0.0, 4.0, size=(5000, 7)))
        records = CalibrationSet(z, np.arange(5000) % 7)
        assert records.logits.flags.f_contiguous and not records.logits.flags.c_contiguous
        self.check(records, tmp_path)

    BLOCK = calibration._TEXT_BLOCK_ROWS

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_row_counts(self, n, tmp_path):
        k = 3 if n else 0
        z = np.random.default_rng(n).normal(0.0, 2.0, size=(n, k))
        records = CalibrationSet(z, np.arange(n) % 3)
        assert (serialize_calibration_records(records) == "") == (n == 0)
        self.check(records, tmp_path)
