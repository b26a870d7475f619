"""The evaluation workloads: eight paper benchmarks plus off-paper kernels.

Each workload re-implements the memory behaviour of its benchmark over the
simulated address space: it builds the data structures, emits the dynamic
trace the main core executes (with data dependences), and provides the
prefetcher programming for every mode the paper evaluates — PPU kernels
(*manual*, derived from the loop IR or, where the workload says why,
hand-written), the loop IR plus software prefetches that the conversion
pass consumes (*converted*), the pragma-annotated loop (*pragma generated*)
and the software-prefetch trace variant (*software*).

Workloads register themselves with :mod:`repro.workloads.registry` via the
``@register_workload`` decorator; every driver resolves workloads through
that registry, so adding a workload is one file (see ``docs/workloads.md``).

| Name       | Source benchmark        | Pattern                                | Paper? |
|------------|-------------------------|----------------------------------------|--------|
| g500-csr   | Graph500 BFS            | BFS over CSR arrays                    | yes    |
| g500-list  | Graph500 BFS            | BFS over linked edge lists             | yes    |
| hj2        | Hash join (Blanas)      | stride-hash-indirect                   | yes    |
| hj8        | Hash join (Blanas)      | stride-hash-indirect + list walks      | yes    |
| pagerank   | Boost Graph Library     | stride-indirect                        | yes    |
| randacc    | HPCC RandomAccess       | stride-hash-indirect                   | yes    |
| intsort    | NAS IS                  | stride-indirect                        | yes    |
| conjgrad   | NAS CG                  | stride-indirect                        | yes    |
| bfs        | frontier BFS            | frontier-stride-indirect + edge walks  | no     |
| spmv       | CSR SpMV                | stride-indirect gather                 | no     |
| unionfind  | union-find (halving)    | stride-indirect + pointer chasing      | no     |
"""

from .base import Workload, WorkloadScale
from . import registry

# Workload modules self-register on import.  The paper benchmarks are
# imported in figure (Table 2) order so that ``registry.paper_names()`` —
# and therefore :data:`WORKLOAD_ORDER` — matches the paper's bar order; the
# off-paper extensions follow.
from .g500_csr import Graph500CSRWorkload
from .g500_list import Graph500ListWorkload
from .hashjoin import HashJoin2Workload, HashJoin8Workload
from .pagerank import PageRankWorkload
from .randacc import RandomAccessWorkload
from .intsort import IntSortWorkload
from .conjgrad import ConjGradWorkload
from .bfs import FrontierBFSWorkload
from .spmv import SpMVWorkload
from .unionfind import UnionFindWorkload

#: Workload constructors keyed by canonical name (all registered workloads).
#: Kept for backwards compatibility — new code should use
#: :func:`repro.workloads.registry.get` / :func:`~repro.workloads.registry.build`.
WORKLOADS = {spec.name: spec.factory for spec in registry.specs()}

#: Order used throughout the paper reproduction (matches the paper's figures).
#: Off-paper workloads are listed by :func:`registry.extended_names`.
WORKLOAD_ORDER = [
    "g500-csr",
    "g500-list",
    "hj2",
    "hj8",
    "pagerank",
    "randacc",
    "intsort",
    "conjgrad",
]

# The registry's paper order is the import order above, which every figure
# driver consumes via ``registry.paper_names()``.  Guard it against silent
# permutation (an auto-formatter sorting the import block would otherwise
# reorder the bars of Figures 7-11).
if WORKLOAD_ORDER != registry.paper_names():
    raise ImportError(
        "workload registration order no longer matches the paper's figure "
        f"order: expected {WORKLOAD_ORDER}, registered {registry.paper_names()}; "
        "keep the imports in repro/workloads/__init__.py in paper order"
    )


def build_workload(name: str, scale: str = "default", seed: int = 42) -> Workload:
    """Construct and build the workload registered under ``name``.

    Args:
        name: A name from :func:`registry.names`.
        scale: A :class:`WorkloadScale` name the workload supports.
        seed: Seed for the workload's data generators.

    Returns:
        A fully built :class:`Workload`.

    Raises:
        repro.errors.RegistryError: If ``name`` is not registered.
        repro.errors.WorkloadError: If ``scale`` is unsupported.
    """

    return registry.build(name, scale=scale, seed=seed)


__all__ = [
    "Workload",
    "WorkloadScale",
    "registry",
    "WORKLOADS",
    "WORKLOAD_ORDER",
    "build_workload",
    "Graph500CSRWorkload",
    "Graph500ListWorkload",
    "HashJoin2Workload",
    "HashJoin8Workload",
    "PageRankWorkload",
    "RandomAccessWorkload",
    "IntSortWorkload",
    "ConjGradWorkload",
    "FrontierBFSWorkload",
    "SpMVWorkload",
    "UnionFindWorkload",
]
