"""Session/pipeline layer: one instrumented context from BDD manager to
BLIF out.

Public surface:

* :class:`Session` — serves one input: owns the BDD manager, config,
  event bus, netlist + component cache, and enforces resource budgets;
* :class:`Pipeline` / :class:`PipelineInput` / :class:`PipelineRun` —
  the named-stage pipeline (parse -> build_isfs -> preprocess ->
  decompose -> verify -> map -> emit) for one input;
* :class:`PipelineConfig` — validated run-level configuration;
* :func:`run_batch_parallel` / :class:`ParallelBatchResult` /
  :class:`ParallelPipelineRun` — the multi-process batch executor
  (one fresh session per input, component sharing through the
  persistent store, worker-tagged events);
* :class:`EventBus` / :class:`Event` — structured observability;
* the limit primitives (:class:`Deadline`, :func:`recursion_guard`) and
  clean failures (:class:`PipelineTimeout`, :class:`NodeLimitExceeded`).
"""

from repro.pipeline.limits import (DEFAULT_RECURSION_LIMIT, Deadline,
                                   NodeLimitExceeded, PipelineError,
                                   PipelineTimeout, recursion_guard)
from repro.pipeline.events import Event, EventBus
from repro.pipeline.config import FLOWS, STAGE_NAMES, PipelineConfig
from repro.pipeline.session import Session
from repro.pipeline.pipeline import (Pipeline, PipelineInput, PipelineRun,
                                     input_stem, stage_build_isfs,
                                     stage_decompose, stage_emit, stage_map,
                                     stage_parse, stage_preprocess,
                                     stage_verify)
from repro.pipeline.parallel import (ParallelBatchResult,
                                     ParallelPipelineRun,
                                     run_batch_parallel)

__all__ = [
    "DEFAULT_RECURSION_LIMIT", "Deadline", "NodeLimitExceeded",
    "PipelineError", "PipelineTimeout", "recursion_guard",
    "Event", "EventBus", "FLOWS", "STAGE_NAMES", "PipelineConfig",
    "Session",
    "Pipeline", "PipelineInput", "PipelineRun", "input_stem",
    "ParallelBatchResult", "ParallelPipelineRun", "run_batch_parallel",
    "stage_parse", "stage_build_isfs", "stage_preprocess",
    "stage_decompose", "stage_verify", "stage_map", "stage_emit",
]
