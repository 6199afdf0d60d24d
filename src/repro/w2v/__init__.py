"""Word2Vec Skip-Gram with negative sampling, shared-memory and distributed.

- :mod:`repro.w2v.params` — hyperparameters (paper §5.1 defaults),
- :mod:`repro.w2v.model` — the per-node label vectors (embedding and
  output layers; Figure 1's node labels),
- :mod:`repro.w2v.sgd` — pair generation and the vectorized SGNS kernel,
- :mod:`repro.w2v.cbow` / :mod:`repro.w2v.hs` / :mod:`repro.w2v.huffman` —
  the rest of the Word2Vec family (CBOW; hierarchical softmax over a
  Huffman tree),
- :mod:`repro.w2v.steps` — uniform round-work construction for all four
  architecture x objective configurations,
- :mod:`repro.w2v.shared_memory` — the single-host trainer (the paper's SM
  baseline and the per-host compute of the distributed trainer),
- :mod:`repro.w2v.distributed` — GraphWord2Vec (Algorithm 1) over the
  Gluon substrate with pluggable combiners and communication plans.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "distributed": ("DistributedTrainResult", "GraphWord2Vec"),
        "huffman": ("HuffmanTree",),
        "model": ("Word2VecModel",),
        "params": ("Word2VecParams",),
        "shared_memory": ("SharedMemoryWord2Vec",),
    },
)
