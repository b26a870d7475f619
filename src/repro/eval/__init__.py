"""Experiment harness: regenerate every table and figure of the evaluation.

Each module reproduces one artefact of Section 7:

* :mod:`~repro.eval.figure7`  — speedups of every prefetching scheme.
* :mod:`~repro.eval.figure8`  — L1 prefetch utilisation and read hit rates.
* :mod:`~repro.eval.figure9`  — PPU clock-speed and PPU-count sweeps.
* :mod:`~repro.eval.figure10` — per-PPU activity factors.
* :mod:`~repro.eval.figure11` — event triggering vs blocking on loads.
* :mod:`~repro.eval.memtraffic` — extra memory accesses (Section 7.2 text).
* :mod:`~repro.eval.table1`   — the simulated system configuration.
* :mod:`~repro.eval.table2`   — the benchmark summary.
* :mod:`~repro.eval.extended` — the off-paper workloads (registry extras).
* :mod:`~repro.eval.report`   — runs everything and renders EXPERIMENTS.md.

Every experiment function returns a plain data structure (suitable for tests
and further analysis) read off results that have already run.  Its module
turns that data into :class:`~repro.eval.table.Table` objects, with the
paper's reading beside each measured value, and
:func:`~repro.eval.table.render_tables` draws any list of them as Markdown.
"""

from .extended import EXTENDED_MODES, ExtendedData, extended_table, run_extended
from .figure7 import Figure7Data, figure7_tables, run_figure7
from .figure8 import Figure8Data, figure8_table, run_figure8
from .figure9 import Figure9Data, figure9_tables, run_figure9
from .figure10 import Figure10Data, figure10_table, run_figure10
from .figure11 import Figure11Data, figure11_table, run_figure11
from .memtraffic import MemTrafficData, memtraffic_table, run_memtraffic
from .table1 import run_table1, table1_table
from .table2 import run_table2, table2_table

__all__ = [
    "run_figure7",
    "figure7_tables",
    "Figure7Data",
    "run_figure8",
    "figure8_table",
    "Figure8Data",
    "run_figure9",
    "figure9_tables",
    "Figure9Data",
    "run_figure10",
    "figure10_table",
    "Figure10Data",
    "run_figure11",
    "figure11_table",
    "Figure11Data",
    "run_memtraffic",
    "memtraffic_table",
    "MemTrafficData",
    "run_table1",
    "table1_table",
    "run_table2",
    "table2_table",
    "run_extended",
    "extended_table",
    "ExtendedData",
    "EXTENDED_MODES",
]
