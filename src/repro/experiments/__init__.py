"""Per-figure and per-table experiment drivers.

One module per item of the paper's evaluation section.  Each module
exposes a ``run(config=None, ...)`` entry point returning a result
object with:

* ``rows()`` — the measured values, each judged by its band in
  :data:`repro.conformance.BANDS`;
* ``render_lines()`` — a printable reproduction of the figure/table.

The benchmark suite (``benchmarks/``) and the examples call these
directly, so a regenerated figure is always one function call away.
"""

from repro.experiments import common

__all__ = ["common"]
