"""Outputs that must keep their bits: digests recomputed against tests/golden.json."""

from __future__ import annotations

import json

import pytest

from make_golden import CASES, GOLDEN, digest

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_case():
    assert list(RECORDED) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_its_golden_digest(name):
    assert digest(name) == RECORDED[name]["sha256"]
