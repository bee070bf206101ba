"""Adaptive pipeline parallelism (paper Sec. III-B/C).

* :mod:`repro.pipeline.partition` — micro-batch partitioning: split-by-B
  (MPipeMoE, Fig. 5b) and split-by-N (FasterMoE, Fig. 5a).
* :mod:`repro.pipeline.executor` — functional pipelined execution of the
  S -> C -> R middle section with memory-reuse strategies and explicit
  backward (restoration via offload / re-communication / recompute).
* :mod:`repro.pipeline.schedule` — Op-DAG construction for the timing
  simulator: forward and backward timelines of Fig. 4(b)/Fig. 7.
* :mod:`repro.pipeline.granularity` — Algorithm 1, the online adaptive
  granularity configuration.
"""

from repro.pipeline.schedule import (
    CompiledTimeline,
    MoEStageCosts,
    TimelineTemplate,
    build_timeline,
    compile_timeline,
    timeline_makespan,
    timeline_template,
)
from repro.pipeline.granularity import GranularitySearcher, RangeSet
from repro.utils.lazy import lazy_exports

__all__ = [
    "split_capacity",
    "partition_slices",
    "split_by_ranks",
    "PipelinedMoEMiddle",
    "MiddleContext",
    "reference_middle",
    "CompiledTimeline",
    "MoEStageCosts",
    "TimelineTemplate",
    "build_timeline",
    "compile_timeline",
    "timeline_makespan",
    "timeline_template",
    "GranularitySearcher",
    "RangeSet",
]

# The numpy partitioner and executor load on first access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "split_capacity": "repro.pipeline.partition:split_capacity",
    "partition_slices": "repro.pipeline.partition:partition_slices",
    "split_by_ranks": "repro.pipeline.partition:split_by_ranks",
    "PipelinedMoEMiddle": "repro.pipeline.executor:PipelinedMoEMiddle",
    "MiddleContext": "repro.pipeline.executor:MiddleContext",
    "reference_middle": "repro.pipeline.executor:reference_middle",
})
