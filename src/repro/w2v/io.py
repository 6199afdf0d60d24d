"""Model interchange: the word2vec text format.

word2vec.c, gensim and most embedding tooling exchange vectors as

    <vocab_size> <dim>
    <word> <v_0> <v_1> ... <v_{dim-1}>
    ...

These helpers write a trained model's embedding layer in that format and
read such files back, so embeddings trained here can be consumed by (or
compared against) external tools, and vice versa.  Models, checkpoints
and serving stores persist as artifacts (:mod:`repro.util.artifact`);
this text format is for interchange only.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from repro.text.vocab import Vocabulary
from repro.w2v.model import Word2VecModel

__all__ = ["save_word2vec_text", "load_word2vec_text"]


def save_word2vec_text(
    model: Word2VecModel | np.ndarray,
    vocabulary: Vocabulary,
    destination: TextIO | str,
    precision: int = 6,
) -> None:
    """Write the embedding in word2vec text format.

    ``destination`` is a file path or text stream.  Rows are written in
    node-id order; words containing whitespace are rejected (they would
    corrupt the format).
    """
    embedding = model.embedding if isinstance(model, Word2VecModel) else np.asarray(model)
    if embedding.ndim != 2:
        raise ValueError("embedding must be 2-D")
    if embedding.shape[0] != len(vocabulary):
        raise ValueError(
            f"embedding rows ({embedding.shape[0]}) != vocabulary size "
            f"({len(vocabulary)})"
        )
    handle: TextIO
    close = False
    if isinstance(destination, str):
        handle = open(destination, "w", encoding="utf-8")
        close = True
    else:
        handle = destination
    try:
        V, dim = embedding.shape
        handle.write(f"{V} {dim}\n")
        for node_id in range(V):
            word = vocabulary.word_of(node_id)
            if any(ch.isspace() for ch in word):
                raise ValueError(f"word {word!r} contains whitespace")
            values = " ".join(f"{v:.{precision}g}" for v in embedding[node_id])
            handle.write(f"{word} {values}\n")
    finally:
        if close:
            handle.close()


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
