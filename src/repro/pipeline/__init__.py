"""Adaptive pipeline parallelism (paper Sec. III-B/C).

* :mod:`repro.pipeline.partition` — micro-batch partitioning along the
  token axis: split-by-B (MPipeMoE, Fig. 5b).
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
from repro.pipeline.partition import partition_slices, split_capacity
from repro.utils.lazy import lazy_exports

__all__ = [
    "split_capacity",
    "partition_slices",
    "PipelinedMoEMiddle",
    "MiddleContext",
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

# The numpy executor loads on first access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "PipelinedMoEMiddle": "repro.pipeline.executor:PipelinedMoEMiddle",
    "MiddleContext": "repro.pipeline.executor:MiddleContext",
})
