"""Experiment runners: one module per paper figure/claim family.

Every runner returns plain row dictionaries; :mod:`.registry` is the one
catalogue of them (runner + parameters, shape gates, EXPERIMENTS.md
prose per committed record) that the bench, the CLI and :mod:`.report`
read.  Scale comes from :func:`repro.experiments.common.current_scale`
-- set ``REPRO_SCALE=paper`` for full-size runs (the default ``quick``
preset keeps each bench in seconds).
"""

from repro.experiments.common import (
    SCALES,
    Scale,
    current_scale,
    format_table,
    get_network,
)

__all__ = ["SCALES", "Scale", "current_scale", "format_table", "get_network"]
