"""Graph-node embeddings on the Word2Vec stack.

The paper's introduction motivates embedding targets beyond words — social
networks (DeepWalk), biological sequences, code.  This package implements
only the graph case, end to end on this repository's own substrates:
random-walk corpora generated from :class:`repro.dgraph.graph.Graph`
(uniform DeepWalk walks or node2vec's (p, q)-biased second-order walks) are
fed to any of the Word2Vec trainers, including distributed GraphWord2Vec.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "deepwalk": (
            "DeepWalkConfig",
            "NodeEmbedding",
            "deepwalk_corpus",
            "random_walks",
            "train_node_embedding",
        ),
        "sbm": ("community_separation", "knn_label_accuracy", "stochastic_block_model"),
    },
)
