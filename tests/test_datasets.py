"""Dataset loaders, synthetic generators, and the ingest front end."""

import re
import warnings
import tracemalloc

import numpy as np
import pytest

from relrbf import from_features, validate
from relrbf.datasets import (
    ingest,
    load_heart_cleveland,
    load_voting,
    load_wdbc,
    one_hot,
    standardize,
    synthetic_blobs,
)
from relrbf.errors import MalformedFileError, NonFiniteError, UnknownKindError

from conftest import find_dataset_file, traced_peak

VOTING_FIXTURE = """\
republican,n,y,n,y,y,y,n,n,n,y,?,y,y,y,n,y
democrat,y,n,y,n,n,n,y,y,y,n,n,n,n,n,y,y
democrat,?,?,y,n,n,n,y,y,y,n,y,n,n,n,y,?
republican,n,y,n,y,y,y,n,n,n,n,n,y,y,y,n,n
"""

HEART_FIXTURE = """\
63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0
67.0,1.0,4.0,160.0,286.0,0.0,2.0,108.0,1.0,1.5,2.0,3.0,3.0,2
67.0,1.0,4.0,120.0,229.0,0.0,2.0,129.0,1.0,2.6,2.0,2.0,?,1
41.0,0.0,2.0,130.0,204.0,0.0,2.0,172.0,0.0,1.4,1.0,0.0,3.0,0
"""


class TestWdbc:
    def test_genuine_file(self, wdbc_file):
        X, labels, names = load_wdbc(wdbc_file)
        assert X.shape == (569, 30)
        assert names == ["benign", "malignant"]
        assert (labels == 0).sum() == 357  # benign
        assert (labels == 1).sum() == 212  # malignant

    def test_ingest_builds_realizable_graph(self, wdbc_file):
        result = ingest("wdbc", wdbc_file)
        assert result.R.n == 569
        assert result.Y.shape == (569, 2)
        assert validate(result.R).euclidean_embeddable

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.data"
        bad.write_text("1,X,1.0\n")
        with pytest.raises(MalformedFileError):
            load_wdbc(bad)


class TestVoting:
    def test_fixture_encoding(self, tmp_path):
        path = tmp_path / "votes.data"
        path.write_text(VOTING_FIXTURE)
        X, labels, names = load_voting(path)
        assert X.shape == (4, 16)
        assert names == ["democrat", "republican"]
        np.testing.assert_array_equal(labels, [1, 0, 0, 1])
        # trinary codes: yea +1, nay -1, unknown 0
        assert X[0, 0] == -1.0 and X[0, 1] == 1.0
        assert X[2, 0] == 0.0 and X[0, 10] == 0.0
        assert set(np.unique(X)) <= {-1.0, 0.0, 1.0}

    def test_bad_party(self, tmp_path):
        path = tmp_path / "votes.data"
        path.write_text("whig," + ",".join(["y"] * 16) + "\n")
        with pytest.raises(MalformedFileError):
            load_voting(path)

    def test_real_file_when_available(self):
        path = find_dataset_file("house-votes-84.data", "voting.data")
        if path is None:
            pytest.skip("house-votes-84.data not present (no network in sandbox); "
                        "place it under $RELRBF_DATA_DIR or ./data to enable")
        X, labels, _ = load_voting(path)
        assert X.shape == (435, 16)
        assert (labels == 0).sum() == 267 and (labels == 1).sum() == 168


class TestHeartCleveland:
    def test_fixture_imputation_and_binarization(self, tmp_path):
        path = tmp_path / "heart.data"
        path.write_text(HEART_FIXTURE)
        X, labels, names = load_heart_cleveland(path)
        assert X.shape == (4, 13)
        assert names == ["absent", "present"]
        np.testing.assert_array_equal(labels, [0, 1, 1, 0])
        # the '?' in row 2, column 12 becomes the column median of 6, 3, 3
        assert X[2, 12] == pytest.approx(np.median([6.0, 3.0, 3.0]))
        assert np.all(np.isfinite(X))

    @pytest.mark.parametrize("missing", ["?", ""])
    def test_column_missing_in_every_row_is_named(self, tmp_path, missing):
        # there is no median to impute: the error names the file and the
        # column, and no empty-slice warning comes first
        rows = [row.split(",") for row in HEART_FIXTURE.splitlines()]
        for row in rows:
            row[4] = missing
        path = tmp_path / "heart.data"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedFileError, match=f"^{re.escape(str(path))}: column 5 "):
                load_heart_cleveland(path)

    def test_real_file_when_available(self):
        path = find_dataset_file("processed.cleveland.data", "heart-cleveland.data")
        if path is None:
            pytest.skip("processed.cleveland.data not present (no network in sandbox); "
                        "place it under $RELRBF_DATA_DIR or ./data to enable")
        X, labels, _ = load_heart_cleveland(path)
        assert X.shape == (303, 13)
        assert (labels == 0).sum() == 164 and (labels == 1).sum() == 139


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (load_wdbc, "1,B," + ",".join(["1.0"] * 30) + "\n2,M," + ",".join(["abc"] * 30), 2),
        (load_voting, VOTING_FIXTURE + "democrat," + ",".join(["y"] * 15) + ",x\n", 5),
        (load_heart_cleveland, HEART_FIXTURE + "\n" + "abc," + HEART_FIXTURE.split(",", 1)[1], 6),
    ],
    ids=["wdbc", "voting", "heart-cleveland"],
)
def test_unparsable_field_names_its_line(tmp_path, loader, text, line):
    path = tmp_path / "bad.data"
    path.write_text(text)
    with pytest.raises(MalformedFileError, match=f"^{re.escape(str(path))}:{line}: "):
        loader(path)


@pytest.mark.parametrize("loader", [load_wdbc, load_voting, load_heart_cleveland])
def test_blank_file_has_no_data_rows(tmp_path, loader):
    path = tmp_path / "blank.data"
    path.write_text("\n\n")
    with pytest.raises(MalformedFileError, match="no data rows"):
        loader(path)


class TestSyntheticBlobs:
    def test_generator_contract(self):
        X, labels = synthetic_blobs(60, classes=2, sep=10.0, seed=1)
        assert X.shape == (60, 2)
        counts = np.bincount(labels)
        np.testing.assert_array_equal(counts, [30, 30])
        result = ingest("synthetic-blobs", blobs={"n": 60, "classes": 2, "sep": 10.0, "seed": 1})
        assert validate(result.R).euclidean_embeddable
        assert result.Y.shape == (60, 2)

    def test_deterministic(self):
        a, _ = synthetic_blobs(30, classes=3, seed=7)
        b, _ = synthetic_blobs(30, classes=3, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_unbalanced_remainder(self):
        _, labels = synthetic_blobs(10, classes=3, seed=0)
        np.testing.assert_array_equal(np.bincount(labels), [4, 3, 3])


class TestStandardize:
    def test_drops_constant_column(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.warns(UserWarning, match="zero-variance"):
            Z = standardize(X)
        # remaining column standardized: (-1.22.., 0, 1.22..)
        z = (X[:, 0] - X[:, 0].mean()) / X[:, 0].std()
        np.testing.assert_allclose(Z, z[:, None], atol=1e-12)

    def test_rejects_non_finite(self):
        # an infinite column has no variance to keep, so it is an error,
        # not a dropped column
        X = np.array([[1.0, np.inf], [2.0, 0.0], [3.0, 1.0]])
        with pytest.raises(NonFiniteError):
            standardize(X)


class TestIngest:
    BLOBS = {"n": 30, "classes": 3, "sep": 4.0, "seed": 2}

    @pytest.mark.parametrize("standardized", [True, False])
    def test_features_realize_the_graph(self, standardized):
        result = ingest("synthetic-blobs", standardize=standardized, blobs=self.BLOBS)
        X, _ = synthetic_blobs(**self.BLOBS)
        expected = standardize(X) if standardized else X
        assert np.array_equal(result.R.features, expected)
        assert np.array_equal(from_features(result.R.features).values, result.R.values)

    def test_power_leaves_no_features(self):
        result = ingest("synthetic-blobs", power=1.5, blobs=self.BLOBS)
        assert result.R.features is None

    def test_unknown_kind(self):
        with pytest.raises(UnknownKindError):
            ingest("mystery")

    @pytest.mark.parametrize("kind", ["wdbc", "voting", "heart-cleveland", "adjacency-csv"])
    def test_file_kind_requires_a_path(self, kind):
        with pytest.raises(MalformedFileError, match=f"^{kind} requires a path$"):
            ingest(kind)

    def test_adjacency_csv_with_labels(self, tmp_path, three_point_R):
        from relrbf import write_adjacency

        apath = tmp_path / "adj.npy"
        lpath = tmp_path / "labels.csv"
        write_adjacency(three_point_R, apath)
        lpath.write_text("0\n1\n0\n")
        result = ingest("adjacency-csv", apath, labels_path=lpath)
        assert result.R.n == 3
        np.testing.assert_array_equal(result.Y.argmax(axis=1), [0, 1, 0])
        assert result.Y.shape == (3, 2)

    def test_adjacency_csv_label_count_mismatch(self, tmp_path, three_point_R):
        from relrbf import write_adjacency

        apath = tmp_path / "adj.npy"
        lpath = tmp_path / "labels.csv"
        write_adjacency(three_point_R, apath)
        lpath.write_text("0\n1\n")
        with pytest.raises(MalformedFileError):
            ingest("adjacency-csv", apath, labels_path=lpath)

    def test_power_makes_nonrealizable(self):
        result = ingest(
            "synthetic-blobs",
            power=1.5,
            blobs={"n": 30, "classes": 3, "sep": 4.0, "seed": 2},
        )
        assert not validate(result.R).euclidean_embeddable

    def test_powered_ingest_memory(self):
        # the power is taken in from_features' own buffer, so the powered
        # ingest peaks where from_features does, at about 1.17; a first,
        # small ingest makes the imports a first call makes lazily
        n = 400
        blobs = {"n": n, "classes": 2, "dim": 5, "seed": 0}
        ingest("synthetic-blobs", power=1.5, blobs={**blobs, "n": 10})
        peak = traced_peak(lambda: ingest("synthetic-blobs", power=1.5, blobs=blobs))
        assert peak <= 1.2 * n * n * 8

    def test_one_hot(self):
        np.testing.assert_array_equal(
            one_hot([0, 2, 1], 3),
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        )
