"""Cointegration graph construction and tick-by-tick pair monitoring.

Build a directed graph over a price universe (pairwise regression plus a
unit-root test on the residuals), then watch it tick by tick: every node
with a fresh price leash-checks the edges to its fresh neighbours, local
alerts fold into a global health verdict, and only the edges that broke
their leash are refit. Each tick runs as one array pass over the edges
(alert.tick_kernel), the package's only tick path; the node-by-node loop
it is tested against lives with the tests (tests/oracle.py).
"""

from .alert import (
    AlertConfig,
    AlertReport,
    RecomputeSummary,
    global_reduce,
    leash_check,
    selective_recompute,
    tick_loop,
)
from .coint import CointModel, PairResult, PriceSeries, ScanResult, coint_fit, scan_pairs
from .errors import CointwatchError
from .graph import (
    CointEdge,
    CointGraph,
    SymbolNode,
    audit_adjacency,
    build_graph,
    export,
    neighbors,
    remove_edges,
    update_prices,
)
from .pipeline import PriceTable, load_graph, load_prices, save_graph, slice_window
from .stats import AdfResult, LinearModel, Series, adf_test, default_lag, diff, ols_fit

__version__ = "0.1.0"

__all__ = [
    "AdfResult",
    "AlertConfig",
    "AlertReport",
    "CointEdge",
    "CointGraph",
    "CointModel",
    "CointwatchError",
    "LinearModel",
    "PairResult",
    "PriceSeries",
    "PriceTable",
    "RecomputeSummary",
    "ScanResult",
    "Series",
    "SymbolNode",
    "adf_test",
    "audit_adjacency",
    "build_graph",
    "coint_fit",
    "default_lag",
    "diff",
    "export",
    "global_reduce",
    "leash_check",
    "load_graph",
    "load_prices",
    "neighbors",
    "ols_fit",
    "remove_edges",
    "save_graph",
    "scan_pairs",
    "selective_recompute",
    "slice_window",
    "tick_loop",
    "update_prices",
]
