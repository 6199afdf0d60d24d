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

from repro.cluster import FaultConfig, FaultReport, FaultSchedule
from repro.core import (
    AvgCombiner,
    ModelCombiner,
    SumCombiner,
    combine_pair,
    combine_sequence,
    get_combiner,
)
from repro.eval import evaluate_analogies, most_similar
from repro.serve import (
    EmbeddingStore,
    ExactIndex,
    LoadConfig,
    QueryEngine,
    WorkloadReport,
    run_load,
)
from repro.text import (
    AnalogyQuestionSet,
    Corpus,
    SyntheticCorpusSpec,
    UnigramTable,
    Vocabulary,
    generate_corpus,
)
from repro.w2v import (
    GraphWord2Vec,
    SharedMemoryWord2Vec,
    Word2VecModel,
    Word2VecParams,
)

__version__ = "0.1.0"

__all__ = [
    "AvgCombiner",
    "ModelCombiner",
    "SumCombiner",
    "combine_pair",
    "combine_sequence",
    "get_combiner",
    "evaluate_analogies",
    "most_similar",
    "AnalogyQuestionSet",
    "Corpus",
    "SyntheticCorpusSpec",
    "UnigramTable",
    "Vocabulary",
    "generate_corpus",
    "GraphWord2Vec",
    "SharedMemoryWord2Vec",
    "Word2VecModel",
    "Word2VecParams",
    "FaultConfig",
    "FaultSchedule",
    "FaultReport",
    "EmbeddingStore",
    "ExactIndex",
    "QueryEngine",
    "LoadConfig",
    "WorkloadReport",
    "run_load",
    "__version__",
]
