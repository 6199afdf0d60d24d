"""GraphWord2Vec: distributed Word2Vec on a graph-analytics substrate.

Reproduction of "Distributed Training of Embeddings using Graph Analytics"
(Gill et al.): Skip-Gram training formulated as a distributed graph problem
on a D-Galois/Gluon-style BSP framework, synchronized with projection-based
*model combiners* instead of gradient averaging.

Quickstart::

    from repro import (
        SyntheticCorpusSpec, generate_corpus, Word2VecParams,
        GraphWord2Vec, evaluate_analogies,
    )

    corpus, questions = generate_corpus(SyntheticCorpusSpec(num_tokens=100_000))
    trainer = GraphWord2Vec(corpus, Word2VecParams(epochs=8), num_hosts=8)
    result = trainer.train()
    print(evaluate_analogies(result.model, corpus.vocabulary, questions))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro._exports import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cluster": ("FaultConfig", "FaultReport", "FaultSchedule"),
        "core": (
            "AvgCombiner",
            "ModelCombiner",
            "SumCombiner",
            "combine_pair",
            "combine_sequence",
            "get_combiner",
        ),
        "eval": ("evaluate_analogies", "most_similar"),
        "serve": (
            "EmbeddingStore",
            "ExactIndex",
            "LoadConfig",
            "QueryEngine",
            "WorkloadReport",
            "run_load",
        ),
        "text": (
            "AnalogyQuestionSet",
            "Corpus",
            "SyntheticCorpusSpec",
            "UnigramTable",
            "Vocabulary",
            "generate_corpus",
        ),
        "w2v": (
            "GraphWord2Vec",
            "SharedMemoryWord2Vec",
            "Word2VecModel",
            "Word2VecParams",
        ),
    },
)
__all__.append("__version__")
