"""The paper's primary contribution: gradient/model combiners (§3).

When several hosts train replicas of the same model between synchronization
points, their accumulated updates ("gradients" at sync granularity) must be
reduced to one update.  Summing diverges when the gradients are aligned;
averaging degenerates toward batch gradient descent as hosts grow.  The
*model combiner* projects each additional gradient onto the orthogonal
complement of what has already been combined, which provably (first order)
decreases every contributing loss without exceeding any single gradient's
step size — so the sequential learning rate remains safe at any host count.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "combiners": (
            "AvgCombiner",
            "GradientCombiner",
            "KeepFirstCombiner",
            "ModelCombiner",
            "SumCombiner",
            "get_combiner",
        ),
        "projection": (
            "combine_pair",
            "combine_sequence",
            "cosine",
            "orthogonal_component",
            "project_onto",
        ),
        "validity": ("direction_validity", "ValidityReport"),
    },
)
