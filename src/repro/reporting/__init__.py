"""Renderers and runners for the paper's tables and figures."""

from .figures import figure5, figure6
from .runner import DESIGN_ORDER, run_grid, run_one
from .tables import (equivalence_table, render_table, results_csv,
                     table1, table2, table3, table4)

__all__ = [
    "figure5", "figure6",
    "run_grid", "run_one", "DESIGN_ORDER",
    "render_table", "table1", "table2", "table3", "table4", "results_csv",
    "equivalence_table",
]
