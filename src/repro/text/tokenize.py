"""Minimal text normalization for user-supplied corpora.

The reproduction's synthetic corpora are pre-tokenized; for real text we
provide the normalization word2vec.c's demo scripts apply: lowercase,
punctuation stripped to spaces, whitespace-split.  Deliberately simple and
dependency-free — serious pipelines should tokenize upstream.
"""

from __future__ import annotations

import re

__all__ = ["simple_tokenize"]

_NON_WORD = re.compile(r"[^\w']+", flags=re.UNICODE)


def simple_tokenize(text: str) -> list[str]:
    """Lowercase, split on non-word characters, drop empties."""
    return [token for token in _NON_WORD.split(text.lower()) if token]
