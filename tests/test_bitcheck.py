"""tools/bitcheck.py: its digests and its report."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "bitcheck", Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


def digest(value):
    h = hashlib.sha256()
    bitcheck._update(h, value)
    return h.hexdigest()


def test_digest_covers_type_dtype_shape_and_bits():
    values = [1.0, np.float64(1.0), np.array(1.0), np.array([1.0]), np.array([1.0], np.float32),
              np.nextafter(1.0, 2.0), -0.0, 0.0, "1.0", (1.0,), [1.0], None,
              ValueError("x"), TypeError("x"), {"a": 1.0}, {"b": 1.0}]
    assert len({digest(v) for v in values}) == len(values)
    assert digest(np.array([[1.0, 2.0]]).T) == digest(np.array([[1.0], [2.0]]))
    assert digest(ValueError("x must be >= 0")) == digest(ValueError("x must be >= 0"))


def test_digest_refuses_what_it_cannot_read_bit_for_bit():
    for value in (np.array([None]), object()):
        with pytest.raises(TypeError):
            digest(value)


def test_report_names_every_difference():
    old = {"a solve": "1", "a solution.f_at_k": "2", "b solve": "3", "cli vqt solve": "4"}
    assert bitcheck.compare(old, dict(old)) == []
    new = {"a solve": "1", "b solve": "9", "cli vqt solve": "8", "a mixture.k": "5"}
    assert bitcheck.compare(old, new) == [
        "first differing record: b solve",
        "differ: 1 x solve",
        "differ: 1 x cli",
        "only in OLD: 1 x solution.f_at_k",
        "only in NEW: 1 x mixture.k",
    ]
