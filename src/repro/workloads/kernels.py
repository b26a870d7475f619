"""Shared helpers for the hand-written manual PPU kernel configurations.

Most workloads derive their manual kernels from the loop IR
(:mod:`repro.compiler.pipeline`); these helpers serve the ones that still
hand-write them (each says why in its ``derive_note``).  Their chains follow
the two-event shape the paper's Figure 4 illustrates: a strided *root* array
whose demand loads trigger a look-ahead prefetch of the root itself, and an
*indirect target* array whose element index is computed from the root value
(possibly hashed).  :func:`add_stride_indirect_chain` builds that pair of
kernels, the tags, the EWMA stream and the filter-table entries; workloads
with extra levels (hash-join list walks, Graph500) write further kernels by
hand on top.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..programmable.config_api import PrefetcherConfiguration
from ..programmable.kernel import KernelBuilder, Reg

#: A transform takes the kernel builder, the register holding the root value
#: and the configuration, and returns the register (or immediate) holding the
#: target element index.
IndexTransform = Callable[[KernelBuilder, Reg, PrefetcherConfiguration], Union[Reg, int]]


def identity_transform(builder: KernelBuilder, data: Reg, config: PrefetcherConfiguration) -> Reg:
    """Target index is the root value itself (``count[key[i]]`` style)."""

    del config
    return data


def hash_transform(multiplier_global: str, mask_global: str) -> IndexTransform:
    """Target index is ``(root_value * multiplier) & mask`` (hash-join style)."""

    def transform(builder: KernelBuilder, data: Reg, config: PrefetcherConfiguration) -> Reg:
        product = builder.mul(
            data, builder.get_global(config.global_index(multiplier_global))
        )
        return builder.and_(product, builder.get_global(config.global_index(mask_global)))

    return transform


def add_stride_indirect_chain(
    config: PrefetcherConfiguration,
    *,
    prefix: str,
    root_name: str,
    root_base: int,
    root_end: int,
    target_name: str,
    target_base: int,
    target_end: Optional[int] = None,
    root_element_shift: int = 3,
    target_element_shift: int = 3,
    transform: IndexTransform = identity_transform,
    extra_targets: Optional[list[tuple[str, int, int, IndexTransform]]] = None,
    default_distance: int = 8,
    follow_on_tag: Optional[int] = None,
) -> str:
    """Register a two-event stride-indirect prefetch chain; returns the stream name.

    ``extra_targets`` lets one root fill fan out to several indirect arrays
    (PageRank prefetches both ``rank[src]`` and ``outdeg[src]`` from the same
    observation).  Each entry is ``(name, base, element_shift, transform)``.
    ``follow_on_tag`` tags the *target* prefetch so a further, workload-specific
    kernel runs when it returns (used by the hash-join list walks).
    """

    stream = f"{prefix}_{root_name}"
    config.add_stream(stream, default_distance=default_distance)
    root_base_global = config.set_global(f"{prefix}_{root_name}_base", root_base)
    target_base_global = config.set_global(f"{prefix}_{target_name}_base", target_base)
    extra_globals: list[tuple[int, int, IndexTransform]] = []
    for name, base, shift, extra_transform in extra_targets or []:
        extra_globals.append(
            (config.set_global(f"{prefix}_{name}_base", base), shift, extra_transform)
        )

    fill_kernel = f"{prefix}_on_{root_name}_fill"
    load_kernel = f"{prefix}_on_{root_name}_load"

    # Kernel run when the look-ahead prefetch of the root array returns: use
    # the fetched value to prefetch the indirect target(s).
    builder = KernelBuilder(fill_kernel)
    data = builder.get_data()
    index = transform(builder, data, config)
    address = builder.add(
        builder.get_global(target_base_global), builder.shl(index, target_element_shift)
    )
    builder.prefetch(address, tag=-1 if follow_on_tag is None else follow_on_tag)
    for base_global, shift, extra_transform in extra_globals:
        extra_index = extra_transform(builder, data, config)
        extra_address = builder.add(
            builder.get_global(base_global), builder.shl(extra_index, shift)
        )
        builder.prefetch(extra_address, tag=-1)
    config.add_kernel(builder.build())

    root_tag = config.add_tag(f"{prefix}_{root_name}_fill", fill_kernel, stream=stream)

    # Kernel run on every demand load of the root array: recover the index
    # from the address and prefetch the element ``lookahead`` ahead.
    builder = KernelBuilder(load_kernel)
    base = builder.get_global(root_base_global)
    vaddr = builder.get_vaddr()
    element = builder.shr(builder.sub(vaddr, base), root_element_shift)
    lookahead = builder.get_lookahead(config.stream_index(stream))
    target = builder.add(
        base, builder.shl(builder.add(element, lookahead), root_element_shift)
    )
    builder.prefetch(target, tag=root_tag)
    config.add_kernel(builder.build())

    config.add_range(
        f"{prefix}_{root_name}",
        root_base,
        root_end,
        load_kernel=load_kernel,
        stream=stream,
        time_iterations=True,
        chain_start=True,
    )
    if target_end is not None:
        config.add_range(
            f"{prefix}_{target_name}_end",
            target_base,
            target_end,
            stream=stream,
            chain_end=True,
        )
    return stream
