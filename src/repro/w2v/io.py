"""Model interchange: the word2vec text format.

word2vec.c, gensim and most embedding tooling exchange vectors as

    <vocab_size> <dim>
    <word> <v_0> <v_1> ... <v_{dim-1}>
    ...

This module reads such files, so vectors trained by external tools can be
served and compared against the ones trained here;
:meth:`repro.serve.store.EmbeddingStore.from_word2vec_text` is the entry
point.  Models, checkpoints and serving stores persist as artifacts
(:mod:`repro.util.artifact`); this text format is for interchange only.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

__all__ = ["load_word2vec_text"]


def load_word2vec_text(source: TextIO | str) -> tuple[list[str], np.ndarray]:
    """Read a word2vec text file; returns ``(words, vectors)``.

    ``vectors[i]`` corresponds to ``words[i]`` in file order.  Trailing
    whitespace ends a row (word2vec.c writes a space after every value).
    The header is validated against the content: malformed or non-integer
    headers, rows whose width disagrees with ``dim``, empty or duplicate
    words, components that are not finite float32 numbers, truncated files
    and files with more rows than the header declares all raise
    ``ValueError`` naming the offending line, instead of silently
    misparsing.
    """
    handle: TextIO
    close = False
    if isinstance(source, str):
        handle = open(source, "r", encoding="utf-8")
        close = True
    else:
        handle = source
    try:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError("malformed header: expected '<vocab> <dim>'")
        try:
            V, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(
                f"malformed header: non-integer vocab/dim {header!r}"
            ) from None
        if V <= 0 or dim <= 0:
            raise ValueError(f"invalid dimensions in header: {V} x {dim}")
        words: list[str] = []
        seen: dict[str, int] = {}
        # Rows are collected rather than preallocated from the header, so a
        # hostile header cannot demand an arbitrary allocation.
        rows: list[np.ndarray] = []
        for i in range(V):
            lineno = i + 2
            line = handle.readline()
            if not line:
                raise ValueError(f"truncated file: expected {V} rows, got {i}")
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"line {lineno}: expected word + {dim} values, got {len(parts) - 1}"
                )
            word = parts[0]
            if not word:
                raise ValueError(f"line {lineno}: empty word")
            if word in seen:
                raise ValueError(
                    f"line {lineno}: duplicate word {word!r} "
                    f"(first seen on line {seen[word] + 2})"
                )
            seen[word] = i
            words.append(word)
            try:
                # Past float32's range a value casts to inf, rejected below.
                with np.errstate(over="ignore"):
                    row = np.array([float(x) for x in parts[1:]], dtype=np.float32)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric vector component for {word!r}"
                ) from None
            if not np.isfinite(row).all():
                raise ValueError(
                    f"line {lineno}: vector component for {word!r} is not a "
                    "finite float32"
                )
            rows.append(row)
        for extra in handle:
            if extra.strip():
                raise ValueError(
                    f"header declares {V} rows but the file has more; "
                    "vocab size and content disagree"
                )
        return words, np.array(rows)
    finally:
        if close:
            handle.close()
