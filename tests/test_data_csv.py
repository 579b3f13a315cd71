"""CSV loading through numpy's parser and its line-by-line fallback.

``load_dataset`` parses the rows with ``np.loadtxt`` and, when that rejects
a row or reads a non-finite feature, reads the file again line by line so
the error names the line.  Either way a saved dataset loads back bit for
bit, labels mean what ``int()`` makes of them, and a damaged file is a typed
error.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_forge import data
from unlearn_forge.errors import DomainError


def write(tmp_path, text, name="ds.csv"):
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


datasets = st.builds(
    lambda seed, n, d, K, grouped: (seed, n, d, K, grouped),
    seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), d=st.integers(1, 6),
    K=st.integers(2, 5), grouped=st.booleans())


def make(seed, n, d, K, grouped):
    rng = np.random.default_rng(seed)
    # wide exponents, signed zeros and subnormals, all finite
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    X[rng.random((n, d)) < 0.1] = -0.0
    X[rng.random((n, d)) < 0.05] = 5e-324
    groups = rng.integers(-2 ** 62, 2 ** 62, size=n) if grouped else None
    return data.LabeledDataset(X, rng.integers(K, size=n), K, groups)


class TestRoundTrip:
    @given(case=datasets)
    @settings(max_examples=60, deadline=None)
    def test_save_then_load_is_bit_exact(self, case, tmp_path_factory):
        ds = make(*case)
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        data.save_dataset(ds, path)
        back = data.load_dataset(path, ds.K)
        assert back.X.tobytes() == ds.X.tobytes() and back.X.flags.c_contiguous
        assert back.y.dtype == np.int64 and back.y.tolist() == ds.y.tolist()
        if ds.groups is None:
            assert back.groups is None
        else:
            assert back.groups.dtype == np.int64 and back.groups.tolist() == ds.groups.tolist()

    @given(case=datasets, row_at=st.floats(0.0, 1.0, exclude_max=True),
           cut_at=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_a_file_cut_inside_a_row_is_a_typed_error(self, case, row_at, cut_at,
                                                      tmp_path_factory):
        ds = make(*case)
        path = tmp_path_factory.mktemp("cut") / "ds.csv"
        data.save_dataset(ds, path)
        text = path.read_text()
        # keep 1 to all the characters before the last comma of one row, so
        # that row loses at least one field (a header cut there can still be a
        # valid header: "f0,label" of "f0,label,group")
        lines = text.splitlines(keepends=True)
        row = 1 + int(row_at * (len(lines) - 1))
        start = sum(len(line) for line in lines[:row])
        path.write_text(text[:start + 1 + int(cut_at * lines[row].rindex(","))])
        with pytest.raises(DomainError):
            data.load_dataset(path, ds.K)


class TestLabelStrings:
    @pytest.mark.parametrize("label", ["3", "+3", " 3", "3 ", "-0", "07", "3_0", "٣"])
    def test_label_means_what_int_makes_of_it(self, tmp_path, label):
        path = write(tmp_path, f"f0,f1,label\n0.5,1.5,{label}\n1,2,0\n")
        back = data.load_dataset(path, 40)
        assert back.y.tolist() == [int(label), 0]
        assert back.X.tolist() == [[0.5, 1.5], [1.0, 2.0]]

    @pytest.mark.parametrize("label", ["3.0", "1e3", "", "0x1", "1 2"])
    def test_label_int_rejects_names_the_line(self, tmp_path, label):
        path = write(tmp_path, f"f0,f1,label\n1,2,0\n0.5,1.5,{label}\n")
        with pytest.raises(DomainError) as err:
            data.load_dataset(path)
        with pytest.raises(ValueError) as expected:
            int(label)
        assert str(err.value) == f"{path}: line 3: {expected.value}"

    @pytest.mark.parametrize("value", ["12345678901234567890", "-9223372036854775809"])
    def test_id_outside_int64_is_a_typed_error(self, tmp_path, value):
        for text in (f"f0,label\n0.5,{value}\n", f"f0,label,group\n0.5,1,0\n0.5,0,{value}\n"):
            path = write(tmp_path, text)
            with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}: line \d: label or "
                                                  "group id outside"):
                data.load_dataset(path)

    def test_int64_bounds_load(self, tmp_path):
        path = write(tmp_path, "f0,label,group\n0.5,0,9223372036854775807\n"
                               "0.5,1,-9223372036854775808\n")
        assert data.load_dataset(path).groups.tolist() == [2 ** 63 - 1, -2 ** 63]


class TestFeatureStrings:
    @pytest.mark.parametrize("value", ["1_0", " 1.5", "1.5 ", "+.5", ".5e-3", "4.9e-324", "١.٥"])
    def test_feature_means_what_float_makes_of_it(self, tmp_path, value):
        path = write(tmp_path, f"f0,label\n{value},1\n")
        assert data.load_dataset(path).X.tolist() == [[float(value)]]

    @pytest.mark.parametrize("value", ["1e400", "-Infinity", "NaN"])
    def test_non_finite_names_the_line(self, tmp_path, value):
        path = write(tmp_path, f"f0,label\n0.5,1\n{value},0\n")
        with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}: line 3: non-finite "
                                              "feature value$"):
            data.load_dataset(path)

    @pytest.mark.parametrize("text, message", [
        ("f0,label\n0.5,1,\n", "line 2: expected 2 fields, got 3"),
        ("f0,label\n#0.5,1\n", "line 2: could not convert string to float: '#0.5'"),
        ("f0,label\n0.5;1\n", "line 2: expected 2 fields, got 1"),
        ("f0,label\n0.5,1\n0.25,-1\n", "line 3: label -1 < 0"),
        ("f0,label\nnan,1\n0.5,x\n", "line 2: non-finite feature value"),
        ("f0,label\n0.5,-1\n1e400,0\n", "line 2: label -1 < 0")])
    def test_rejected_rows_keep_their_message(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(DomainError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: {message}"

    def test_label_past_k_names_the_line(self, tmp_path):
        path = write(tmp_path, "f0,label\n0.5,1\n\n0.25,3\n")
        with pytest.raises(DomainError) as err:
            data.load_dataset(path, 3)
        assert str(err.value) == f"{path}: line 4: label 3 >= K=3"

    @pytest.mark.parametrize("text", ["f0,label\n", "f0,label\n\n\n", "f0,label\r\n0.5,1\r\n\r\n"])
    def test_blank_lines_and_crlf(self, tmp_path, text):
        back = data.load_dataset(write(tmp_path, text), 2)
        assert back.X.shape == (text.count(",") - 1, 1)
