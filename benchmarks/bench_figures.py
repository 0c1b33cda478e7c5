"""Every figure, claim and extension of the catalogue, as one bench.

``repro.experiments.registry.FIGURES`` is the catalogue; this file runs
a row at the ``REPRO_SCALE`` preset, writes its record to that scale's
directory and asserts the row's shape gates on what the runner
returned (``wall*`` values included, so the live half of the churn
soak is judged here and nowhere else).

    pytest benchmarks/ -q                         # every row, quick scale
    pytest benchmarks/ -q -k fig05_hybrid_small   # one row
"""

import pytest

from _common import emit
from repro.core.gates import failed_gates
from repro.experiments import current_scale
from repro.experiments.registry import FIGURES
from repro.experiments.report import record_dir


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
def bench_figure(figure):
    scale = current_scale()
    record = figure.record(scale)
    emit(record, figure.table(record), record_dir(scale.name))
    assert failed_gates(figure.gates, figure.view(record)) == []
