"""Matrix helpers, activation batches, and the binary dump format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modquant.tensor import (
    ActivationBatch,
    ModalityTag,
    TensorFormatError,
    as_matrix,
    load_tensor,
    save_tensor,
)


class TestAsMatrix:
    def test_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf, 0.0]])


class TestActivationBatch:
    def test_text_and_vision_rows(self):
        b = ActivationBatch(np.zeros((3, 2)), [0, 1, 0])
        assert b.text_rows.tolist() == [0, 2]
        assert b.vision_rows.tolist() == [1]

    def test_rejects_tag_length_mismatch(self):
        with pytest.raises(ValueError, match="tag-length mismatch"):
            ActivationBatch(np.zeros((3, 2)), [0, 1])

    def test_rejects_bad_tag_values(self):
        with pytest.raises(ValueError, match="tags"):
            ActivationBatch(np.zeros((2, 2)), [0, 7])

    def test_rejects_two_dimensional_tags(self):
        with pytest.raises(ValueError, match="^tags must be a 1-D sequence$"):
            ActivationBatch(np.zeros((2, 2)), [[0], [1]])

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            ActivationBatch(np.zeros((0, 2)), [])

    def test_rejects_batch_without_channels(self):
        with pytest.raises(ValueError, match="batch must have at least one channel"):
            ActivationBatch(np.zeros((4, 0)), [0, 0, 1, 1])

    def test_single_modality_is_fine(self):
        b = ActivationBatch(np.ones((2, 3)), [1, 1])
        assert b.text_rows.size == 0
        assert b.vision_rows.size == 2


class TestDumpFormat:
    def test_matrix_round_trip(self, tmp_path):
        w = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "w.spqt"
        save_tensor(path, w)
        np.testing.assert_array_equal(load_tensor(path), w)

    def test_batch_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        b = ActivationBatch(rng.standard_normal((4, 7)), [0, 1, 1, 0])
        path = tmp_path / "b.spqt"
        save_tensor(path, b)
        back = load_tensor(path)
        assert isinstance(back, ActivationBatch)
        np.testing.assert_array_equal(back.data, b.data)
        np.testing.assert_array_equal(back.tags, b.tags)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.spqt"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(TensorFormatError, match="bad magic"):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.spqt"
        save_tensor(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TensorFormatError, match="truncated payload"):
            load_tensor(path)

    def test_tag_length_mismatch(self, tmp_path):
        path = tmp_path / "x.spqt"
        save_tensor(path, ActivationBatch(np.ones((2, 2)), [0, 1]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # drop one tag byte
        with pytest.raises(TensorFormatError, match="tag-length mismatch"):
            load_tensor(path)

    def test_trailing_byte_after_matrix(self, tmp_path):
        path = tmp_path / "x.spqt"
        save_tensor(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(TensorFormatError, match="^trailing bytes after matrix payload$"):
            load_tensor(path)

    def test_tag_byte_outside_the_modalities(self, tmp_path):
        path = tmp_path / "x.spqt"
        save_tensor(path, ActivationBatch(np.ones((2, 2)), [0, 1]))
        path.write_bytes(path.read_bytes()[:-1] + bytes([2]))
        with pytest.raises(TensorFormatError, match="^invalid modality tag$"):
            load_tensor(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "x.spqt"
        save_tensor(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        import struct

        header = 4 + struct.calcsize("<IBQQ")
        raw[header : header + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="non-finite value"):
            load_tensor(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.spqt"
        save_tensor(path, np.ones((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="version"):
            load_tensor(path)

    @given(
        data=arrays(np.float64, (3, 4), elements=st.floats(-1e12, 1e12)),
        tags=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, data, tags):
        path = tmp_path_factory.mktemp("rt") / "b.spqt"
        b = ActivationBatch(data, tags)
        save_tensor(path, b)
        back = load_tensor(path)
        np.testing.assert_array_equal(back.data, data)
        np.testing.assert_array_equal(back.tags, np.asarray(tags, dtype=np.uint8))

    def test_modality_tag_values(self):
        assert int(ModalityTag.TEXT) == 0
        assert int(ModalityTag.VISION) == 1
