import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_forge import data
from unlearn_forge.errors import DimensionError, DomainError, StratificationError
from unlearn_forge.numcore import rng_stream


def blobs(seed=0, K=3, per_class=20, d=5, spread=1.0, subgroups=2):
    return data.gen_blobs(K, per_class, d, spread, subgroups, rng_stream(seed, 10))


class TestGenBlobs:
    def test_counts_and_balance(self):
        ds = data.gen_blobs(2, 10, 3, 1.0, 1, rng_stream(0, 0))
        assert ds.n == 20
        assert np.bincount(ds.y).tolist() == [10, 10]

    def test_spread_zero_degenerate(self):
        ds = data.gen_blobs(2, 6, 3, 0.0, 1, rng_stream(0, 0))
        for c in range(2):
            rows = ds.X[ds.y == c]
            assert np.all(rows == rows[0])

    def test_seed_determinism(self):
        a = data.gen_blobs(3, 7, 4, 1.0, 2, rng_stream(5, 1))
        b = data.gen_blobs(3, 7, 4, 1.0, 2, rng_stream(5, 1))
        assert a.X.tobytes() == b.X.tobytes()
        assert np.array_equal(a.y, b.y) and np.array_equal(a.groups, b.groups)

    def test_group_ids(self):
        ds = blobs(K=2, per_class=10, subgroups=2)
        assert set(np.unique(ds.groups)) == {0, 1, 2, 3}
        # subgroup ids stay within their class block
        for c in range(2):
            assert set(np.unique(ds.groups[ds.y == c])) == {2 * c, 2 * c + 1}

    def test_validation(self):
        with pytest.raises(DomainError):
            data.gen_blobs(1, 10, 3, 1.0, 1, rng_stream(0, 0))
        with pytest.raises(DomainError):
            data.gen_blobs(2, 10, 3, -1.0, 1, rng_stream(0, 0))


class TestSplitClasswise:
    def test_counts(self):
        ds = blobs(K=4, per_class=5)
        split, _ = data.split_classwise(ds, 0)
        assert split.forget_idx.size == 5
        assert split.retain_idx.size == 15

    def test_adjusted_test_set(self):
        ds = blobs(K=3)
        test = blobs(seed=1, K=3)
        _, adjusted = data.split_classwise(ds, 1, test)
        assert set(np.unique(adjusted.y)) == {0, 2}

    def test_class_absent(self):
        ds = blobs(K=3)
        with pytest.raises(DomainError):
            data.split_classwise(ds, 7)

    def test_partition(self):
        ds = blobs()
        split, _ = data.split_classwise(ds, 2)
        merged = np.sort(np.concatenate([split.retain_idx, split.forget_idx]))
        assert np.array_equal(merged, np.arange(ds.n))


class TestSplitRandom:
    def test_ten_percent_of_100(self):
        ds = blobs(K=2, per_class=50)
        split = data.split_random(ds, 0.1, rng_stream(0, 2))
        assert split.forget_idx.size == 10

    def test_every_class_represented(self):
        ds = blobs(K=4, per_class=15)
        split = data.split_random(ds, 0.2, rng_stream(3, 2))
        assert set(np.unique(ds.y[split.forget_idx])) == {0, 1, 2, 3}

    def test_same_seed_identical(self):
        ds = blobs()
        a = data.split_random(ds, 0.15, rng_stream(7, 2))
        b = data.split_random(ds, 0.15, rng_stream(7, 2))
        assert np.array_equal(a.forget_idx, b.forget_idx)

    def test_stratification_error(self):
        ds = blobs(K=3, per_class=5)
        with pytest.raises(StratificationError):
            data.split_random(ds, 0.1, rng_stream(0, 2))  # floor(0.5) = 0

    def test_fraction_domain(self):
        ds = blobs()
        with pytest.raises(DomainError):
            data.split_random(ds, 1.0, rng_stream(0, 2))


class TestSplitGroup:
    def test_single_subgroup(self):
        ds = blobs(K=2, per_class=10, subgroups=2)
        split = data.split_group(ds, [1])
        assert np.all(ds.groups[split.forget_idx] == 1)
        assert split.forget_idx.size == np.sum(ds.groups == 1)

    def test_small_group_fraction(self):
        # 1 of 4 subgroups in one class: forget size equals that group's size
        ds = data.gen_blobs(2, 40, 3, 1.0, 4, rng_stream(2, 0))
        split = data.split_group(ds, [3])
        assert split.forget_idx.size == int(np.sum(ds.groups == 3))

    def test_empty_list(self):
        with pytest.raises(DomainError):
            data.split_group(blobs(), [])

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            data.split_group(blobs(K=2, subgroups=1), [99])

    def test_no_groups(self):
        ds = data.LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), 2)
        with pytest.raises(DomainError):
            data.split_group(ds, [0])


class TestForgetSplitInvariants:
    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            data.ForgetSplit(np.array([0, 1]), np.array([1, 2]))

    def test_empty_forget_rejected(self):
        with pytest.raises(DomainError):
            data.ForgetSplit(np.array([0, 1]), np.array([], dtype=int))

    @pytest.mark.parametrize("retain, forget", [
        (np.arange(4), np.array([-1])),  # would name row n-1, which retain holds
        (np.array([0, 0, 1]), np.array([2])),
        (np.array([0, 1]), np.array([2, 2])),
    ], ids=["negative", "duplicate-retain", "duplicate-forget"])
    def test_negative_or_repeated_index_rejected(self, retain, forget):
        with pytest.raises(DomainError):
            data.ForgetSplit(retain, forget)


class TestSubset:
    @pytest.mark.parametrize("idx, bad", [([0, 30, 2], 30), ([100], 100), ([3, -1], -1)])
    def test_index_outside_rows_named(self, idx, bad):
        ds = blobs(per_class=10)
        with pytest.raises(DimensionError, match=f"row index {bad} outside a dataset of n = 30 rows"):
            ds.subset(np.array(idx))

    def test_rows_in_order(self):
        ds = blobs(per_class=10)
        sub = ds.subset(np.array([29, 0, 7]))
        assert sub.X.tobytes() == ds.X[[29, 0, 7]].tobytes()
        assert sub.y.tolist() == ds.y[[29, 0, 7]].tolist()
        assert ds.subset(np.array([], dtype=int)).n == 0


class TestFileRoundTrip:
    def test_bit_identical(self, tmp_path):
        ds = blobs(subgroups=2)
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert back.X.tobytes() == ds.X.tobytes()
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.groups, ds.groups)

    @pytest.mark.parametrize("groups, text", [
        (None, "f0,f1,label\n0.10000000000000001,-0,0\n"
               "1.0000000000000001e+300,4.9406564584124654e-324,1\n-2.5,1,1\n"),
        ([7, 12345, 0], "f0,f1,label,group\n0.10000000000000001,-0,0,7\n"
                        "1.0000000000000001e+300,4.9406564584124654e-324,1,12345\n-2.5,1,1,0\n")],
        ids=["no-group", "group"])
    def test_exact_text(self, tmp_path, groups, text):
        X = np.array([[0.1, -0.0], [1e300, 5e-324], [-2.5, 1.0]])
        ds = data.LabeledDataset(X, np.array([0, 1, 1]), 2,
                                 None if groups is None else np.array(groups))
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, path)
        assert path.read_bytes() == text.encode()

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,3\n")
        with pytest.raises(DomainError):
            data.load_dataset(path, K=2)

    def test_missing_group_column(self, tmp_path):
        path = tmp_path / "nogroup.csv"
        ds = data.LabeledDataset(np.array([[0.25], [1.5]]), np.array([0, 1]), 2)
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert back.groups is None

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DomainError):
            data.load_dataset(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("f0,label\n0.5\n")
        with pytest.raises(DomainError):
            data.load_dataset(path)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                           min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_float_roundtrip_exact(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "v.csv"
        X = np.array(values)[:, None]
        ds = data.LabeledDataset(X, np.zeros(len(values), dtype=np.int64), 2)
        data.save_dataset(ds, path)
        back = data.load_dataset(path, K=2)
        assert back.X.tobytes() == X.tobytes()


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejected_at_load_naming_the_line(self, tmp_path, value):
        path = tmp_path / "nf.csv"
        path.write_text(f"f0,f1,label\n0.5,1.0,0\n\n0.25,{value},1\n")
        with pytest.raises(DomainError, match=r"^line 4: non-finite"):
            data.load_dataset(path)
