"""Model interchange: word2vec text format and training checkpoints.

word2vec.c, gensim and most embedding tooling exchange vectors as

    <vocab_size> <dim>
    <word> <v_0> <v_1> ... <v_{dim-1}>
    ...

These helpers write a trained model's embedding layer in that format and
read such files back, so embeddings trained here can be consumed by (or
compared against) external tools, and vice versa.

The module also owns the *checkpoint* wire format used by
:meth:`repro.w2v.distributed.GraphWord2Vec.save_checkpoint`.  Checkpoints
are **round-granular**: they record the canonical model at a
synchronization-round boundary plus the ``(completed_epochs,
completed_rounds)`` cursor and pair-accounting state, so a run killed
mid-epoch resumes exactly (work generation is a pure function of the seed
tree).  The same state is what crash recovery restores from (see
:mod:`repro.cluster.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from repro.text.vocab import Vocabulary
from repro.w2v.model import Word2VecModel

__all__ = [
    "save_word2vec_text",
    "load_word2vec_text",
    "CheckpointState",
    "save_checkpoint_blob",
    "load_checkpoint_blob",
]


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


@dataclass
class CheckpointState:
    """Everything a checkpoint carries, decoded.

    ``completed_rounds`` counts synchronization rounds finished inside the
    *current* (uncounted) epoch; ``partial_pairs`` are the training pairs
    those rounds processed, so a resumed run's per-epoch pair accounting
    matches an uninterrupted one.
    """

    embedding: np.ndarray
    training: np.ndarray
    completed_epochs: int
    completed_rounds: int = 0
    partial_pairs: int = 0
    pairs_total: int = 0
    epoch_pairs: list[int] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def model(self) -> Word2VecModel:
        return Word2VecModel(self.embedding, self.training)


def save_checkpoint_blob(state: CheckpointState) -> bytes:
    """Serialize a :class:`CheckpointState` (compressed ``.npz`` container)."""
    import io

    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        embedding=state.embedding,
        training=state.training,
        completed_epochs=np.int64(state.completed_epochs),
        completed_rounds=np.int64(state.completed_rounds),
        partial_pairs=np.int64(state.partial_pairs),
        pairs_total=np.int64(state.pairs_total),
        epoch_pairs=np.asarray(state.epoch_pairs, dtype=np.int64),
        fingerprint=np.frombuffer(state.fingerprint.encode(), dtype=np.uint8),
    )
    return buf.getvalue()


#: Per checkpoint key: the rank and dtype kinds its value must have, and
#: the default of keys epoch-granular blobs predate (``None``: required).
_CHECKPOINT_KEYS = {
    "embedding": (2, "f", None),
    "training": (2, "f", None),
    "completed_epochs": (0, "iu", None),
    "completed_rounds": (0, "iu", np.int64(0)),
    "partial_pairs": (0, "iu", np.int64(0)),
    "pairs_total": (0, "iu", np.int64(0)),
    "epoch_pairs": (1, "iu", np.empty(0, dtype=np.int64)),
    "fingerprint": (1, "u", None),
}


def load_checkpoint_blob(blob: bytes) -> CheckpointState:
    """Decode a checkpoint produced by :func:`save_checkpoint_blob`.

    Epoch-granular blobs from before round-granular checkpointing decode
    with a zero round cursor (they were taken at epoch boundaries).  Bytes
    that are no readable ``.npz`` container raise ``ValueError("not a
    checkpoint ...")``; a missing key or a value of the wrong rank, dtype
    or sign raises a ``ValueError`` naming the key.
    """
    import io

    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as loaded:
            data = {key: loaded[key] for key in loaded.files}
    # Damaged bytes make zipfile, zlib and the .npy header parser raise an
    # open-ended set of types (BadZipFile, zlib.error, EOFError,
    # NotImplementedError, SyntaxError, tokenize.TokenError, ...; a bare
    # .npy array is a TypeError here); to the caller each means the same,
    # and the cause stays chained.
    except Exception as err:
        raise ValueError(f"not a checkpoint ({type(err).__name__}: {err})") from err
    for key, (ndim, kinds, default) in _CHECKPOINT_KEYS.items():
        value = data.setdefault(key, default)
        if value is None:
            raise ValueError(f"checkpoint key {key!r} is missing")
        if value.ndim != ndim or value.dtype.kind not in kinds or (kinds == "iu" and (value < 0).any()):
            raise ValueError(
                f"checkpoint key {key!r} must be a {ndim}-D "
                f"{'float' if kinds == 'f' else 'non-negative integer'} array, "
                f"got {value.dtype} {value.tolist() if value.size < 4 else value.shape}"
            )
    try:
        fingerprint = bytes(data["fingerprint"]).decode()
    except UnicodeDecodeError as err:
        raise ValueError(f"checkpoint key 'fingerprint' is not UTF-8 ({err})") from err
    return CheckpointState(
        embedding=data["embedding"],
        training=data["training"],
        completed_epochs=int(data["completed_epochs"]),
        completed_rounds=int(data["completed_rounds"]),
        partial_pairs=int(data["partial_pairs"]),
        pairs_total=int(data["pairs_total"]),
        epoch_pairs=[int(p) for p in data["epoch_pairs"]],
        fingerprint=fingerprint,
    )


def load_word2vec_text(source: TextIO | str) -> tuple[list[str], np.ndarray]:
    """Read a word2vec text file; returns ``(words, vectors)``.

    ``vectors[i]`` corresponds to ``words[i]`` in file order.  The header
    is validated against the content: malformed or non-integer headers,
    rows whose width disagrees with ``dim``, duplicate words, truncated
    files and files with more rows than the header declares all raise
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
        vectors = np.empty((V, dim), dtype=np.float32)
        for i in range(V):
            line = handle.readline()
            if not line:
                raise ValueError(f"truncated file: expected {V} rows, got {i}")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"line {i + 2}: expected word + {dim} values, got {len(parts) - 1}"
                )
            word = parts[0]
            if word in seen:
                raise ValueError(
                    f"line {i + 2}: duplicate word {word!r} "
                    f"(first seen on line {seen[word] + 2})"
                )
            seen[word] = i
            words.append(word)
            try:
                vectors[i] = [float(x) for x in parts[1:]]
            except ValueError:
                raise ValueError(
                    f"line {i + 2}: non-numeric vector component for {word!r}"
                ) from None
        trailing = handle.readline()
        if trailing.strip():
            raise ValueError(
                f"header declares {V} rows but the file has more; "
                "vocab size and content disagree"
            )
        return words, vectors
    finally:
        if close:
            handle.close()
