"""Figure rendering and the serving core.

:mod:`repro.bench.figures` computes, for every figure of the paper's
evaluation, the data series the figure plots (using the profiles of
:mod:`repro.workload.profiles` and the cost model) and renders each
figure through one table (:func:`~repro.bench.figures.render`), which
``repro figures`` and the committed ``benchmarks/results/figNN.txt``
share.  :mod:`repro.bench.render` turns the series into fixed-width text
tables.  :mod:`repro.bench.serve` is the serving core the ``repro
serve`` daemon and the benchmark ladder drive.
"""

from repro.bench.render import format_series, format_table
from repro.bench import figures

__all__ = ["format_series", "format_table", "figures"]
