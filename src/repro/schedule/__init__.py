"""repro.schedule — superblock formation and list scheduling."""

from .listsched import Schedule, list_schedule
from .pipelining import PipelineBounds, compute_bounds
from .superblock import (
    FormationError,
    SuperblockLoop,
    form_superblock,
    merge_trace,
    select_trace,
    tail_duplicate,
)

__all__ = [
    "Schedule", "list_schedule",
    "PipelineBounds", "compute_bounds",
    "FormationError", "SuperblockLoop",
    "form_superblock", "merge_trace", "select_trace", "tail_duplicate",
]
