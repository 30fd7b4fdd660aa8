import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvbias.errors import SchemaMismatch, UnreadableInput
from cvbias.io import read_dataset_csv, read_matrix_csv, sha256_file


def read_text(tmp_path, text, newline=None):
    path = tmp_path / "m.csv"
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return read_matrix_csv(path)


class TestReadMatrixCsv:
    def test_header_detected(self, tmp_path):
        values, header = read_text(tmp_path, "a, b\n1,2\n3,4\n")
        assert header == ["a", "b"]
        assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_numeric_first_row_is_data(self, tmp_path):
        values, header = read_text(tmp_path, "1,2\n3,4\n")
        assert header is None
        assert values.shape == (2, 2)

    def test_single_column_is_two_dimensional(self, tmp_path):
        values, _ = read_text(tmp_path, "elpd\n-1.5\n-2.0\n")
        assert values.shape == (2, 1)

    def test_quoted_cells(self, tmp_path):
        values, header = read_text(tmp_path, '"a","b"\n"1.5",2\n3,"-4e-3"\n')
        assert header == ["a", "b"]
        assert values.tolist() == [[1.5, 2.0], [3.0, -4e-3]]

    def test_blank_lines_skipped(self, tmp_path):
        values, header = read_text(tmp_path, "\n\na,b\n\n1,2\n\n3,4\n\n")
        assert header == ["a", "b"]
        assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_line_ends(self, tmp_path):
        values, header = read_text(tmp_path, "a,b\r\n1,2\r\n\r\n3,4\r\n", newline="")
        assert header == ["a", "b"]
        assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,#\n",  # '#' is a cell, not a comment
            "a,b\n1,2\n#3,4\n",
            "a,b\n1,x\n",
            "a,b\n1,\n",
            "a,b\n1_0,2\n",  # float() accepts digit separators; the reader does not
        ],
    )
    def test_non_numeric_cell_names_file(self, tmp_path, text):
        with pytest.raises(UnreadableInput, match="m.csv"):
            read_text(tmp_path, text)

    def test_ragged_row_names_file(self, tmp_path):
        with pytest.raises(UnreadableInput, match="m.csv"):
            read_text(tmp_path, "a,b\n1,2\n3\n")

    @pytest.mark.parametrize("text", ["", "\n\n", "a,b\n", "a,b\n\n\n"])
    def test_no_data_rows(self, tmp_path, text):
        with pytest.raises(UnreadableInput, match="m.csv"):
            read_text(tmp_path, text)

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n")
        values, header = read_matrix_csv(path)
        assert header is None
        assert values.tolist() == [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_empty_input_is_unreadable_not_a_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnreadableInput, match="no data rows"):
                read_text(tmp_path, "a,b\n\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableInput, match="cannot read"):
            read_matrix_csv(tmp_path / "absent.csv")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(UnreadableInput, match="cannot read"):
            read_matrix_csv(path)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 5)),
            elements=st.floats(allow_nan=False),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_repr_round_trip_bit_identical(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "m.csv"
        header = ",".join(f"c{j}" for j in range(values.shape[1]))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
        path.write_text(header + "\n" + rows + "\n", encoding="utf-8")
        got, _ = read_matrix_csv(path)
        assert got.shape == values.shape
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


class TestReadDatasetCsv:
    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("x,y\n1,2\n3,5\n4,4\n".encode("utf-8-sig"))
        data = read_dataset_csv(path, "x")
        assert data.columns == ("y",)
        assert data.y.tolist() == [1.0, 3.0, 4.0]

    def test_duplicate_names_rejected(self, tmp_path):
        # a second "y" would otherwise become a predictor: the target leaks
        path = tmp_path / "d.csv"
        path.write_text("a,y,b,y,b\n1,2,3,2,3\n4,5,6,5,6\n")
        with pytest.raises(SchemaMismatch, match="duplicate column names: b, y"):
            read_dataset_csv(path, "y")


@pytest.mark.parametrize("size", [0, (5 << 19) + 3], ids=["empty", "several_chunks"])
def test_sha256_file_streams_the_whole_file(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()
