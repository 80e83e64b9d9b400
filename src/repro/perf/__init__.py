"""Hot-path performance layer: caching, batching, the scale benchmark.

Everything in this package is determinism-preserving: the feature
cache memoizes a pure function, length-bucketed tagging decodes each
sentence independently of its batch, the prep cache replays recorded
shard-prep outcomes, and ``bench_scale`` only measures. Pipeline output
with these optimisations enabled is bit-identical to the unoptimised
path (asserted in ``tests/test_perf_cache.py`` and
``tests/test_prep_cache.py``).
"""

from .bucketing import length_buckets
from .cache import FeatureCache, FeatureInterner, InternedRows

__all__ = [
    "FeatureCache",
    "FeatureInterner",
    "InternedRows",
    "length_buckets",
]
