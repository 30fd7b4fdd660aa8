import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvbias.errors import SchemaMismatch, UnreadableInput
from cvbias.io import _Sha256Reader, read_dataset_csv, read_matrix_csv


def read_text(tmp_path, text, newline=None):
    """The values and header of ``text`` written to ``m.csv``."""
    path = tmp_path / "m.csv"
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return read_matrix_csv(path)[:2]


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

    @pytest.mark.parametrize(
        "text, where",
        [
            ("a,b,c\n\n1,2,3\n1,x,3\n", "line 4, column 2: 'x' is not a number"),
            ("a,b,c\r\n\r\n1,2,3\r\n\r\n4,5,\r\n", "line 5, column 3: '' is not a number"),
            ('a,b\n\n"1.5",2\n\n"1_0",3\n', "line 5, column 1: '1_0' is not a number"),
            ("a,b\n\n1,2\n\n3,4,5\n", "line 5 has 3 cells where line 1 has 2 cells"),
            ("a,b\n1,2\n\n3\n", "line 4 has 1 cell where line 1 has 2 cells"),
            ("\n1,2\n3,4,5\n", "line 3 has 3 cells where line 2 has 2 cells"),
            # the cell count is checked first, as the parser checks it
            ("a,b\n1,2\n3,x,5\n", "line 3 has 3 cells where line 1 has 2 cells"),
            # rows that agree with each other but not with their header
            ("\na,y\n1,2,9\n3,5,9\n", "line 3 has 3 cells where line 2 has 2 cells"),
            ("a,b,y\n\n1,2\n3,5\n", "line 3 has 2 cells where line 1 has 3 cells"),
        ],
        ids=["cell", "empty_cell_crlf", "quoted", "ragged", "short", "no_header", "both",
             "wider_than_header", "narrower_than_header"],
    )
    def test_malformed_line_is_named_by_its_file_line(self, tmp_path, text, where):
        # a byte-order mark is not a line of its own
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8-sig"))
        with pytest.raises(UnreadableInput) as caught:
            read_matrix_csv(path)
        assert str(caught.value) == f"{path}: {where}"

    @pytest.mark.parametrize("text", ["", "\n\n", "a,b\n", "a,b\n\n\n"])
    def test_no_data_rows(self, tmp_path, text):
        with pytest.raises(UnreadableInput, match="m.csv"):
            read_text(tmp_path, text)

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n")
        values, header, _ = read_matrix_csv(path)
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
        got, _, _ = read_matrix_csv(path)
        assert got.shape == values.shape
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


class TestReadDatasetCsv:
    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("x,y\n1,2\n3,5\n4,4\n".encode("utf-8-sig"))
        data, digest = read_dataset_csv(path, "x")
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert data.columns == ("y",)
        assert data.y.tolist() == [1.0, 3.0, 4.0]

    def test_duplicate_names_rejected(self, tmp_path):
        # a second "y" would otherwise become a predictor: the target leaks
        path = tmp_path / "d.csv"
        path.write_text("a,y,b,y,b\n1,2,3,2,3\n4,5,6,5,6\n")
        with pytest.raises(SchemaMismatch, match="duplicate column names: b, y"):
            read_dataset_csv(path, "y")


@pytest.mark.parametrize(
    "size",
    [0, 1, 65535, 65536, 65537, (5 << 19) + 3],
    ids=["empty", "one_byte", "one_short", "one_buffer", "one_over", "several_chunks"],
)
def test_reader_hashes_every_byte_it_returns(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    raw = _Sha256Reader(open(path, "rb", buffering=0))
    with io.BufferedReader(raw, 1 << 16) as fh:
        assert fh.read() == data
    assert raw.sha256.hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "data",
    [
        b"a,b\n1,2\n3,4\n",
        b"\n\na,b\n\n1,2\n\n3,4\n\n",
        b"a,b\r\n1,2\r\n\r\n3,4\r\n",
        b"a,b\r1,2\r3,4\r",
        b"\xef\xbb\xbf1.5,2\n3,4\n",
        b'"a","b"\n"1.5",2\n3,"-4e-3"',
        "\n".join(["c0,c1", *(f"{i},{i / 7!r}" for i in range(20000))]).encode(),
    ],
    ids=["plain", "blank_lines", "crlf", "bare_cr", "bom", "quoted_no_final_newline", "chunks"],
)
def test_digest_is_of_the_bytes_parsed(tmp_path, data):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    values, _, digest = read_matrix_csv(path)
    assert values.size and digest == hashlib.sha256(data).hexdigest()
