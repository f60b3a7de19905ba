"""The names of the pipeline's stages, in chain order.

:data:`repro.pipeline.stages.STAGES` maps each name to its stage
class; the name tuple lives here so that the serve spool and the CLI's
argument parser can name stages without importing the pipeline.
"""

__all__ = ["STAGE_ORDER"]

STAGE_ORDER = ("mesh", "levels", "partition", "taskgraph", "schedule")
