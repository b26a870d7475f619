"""Hash-join probe kernels (HJ-2 and HJ-8).

These follow the main-memory hash join of Blanas et al. used by the paper
(Figure 1 shows the kernel): the probe relation's keys are read sequentially,
hashed, and looked up in a hash table built over the other relation.

* **HJ-2** uses a bucket array whose entries hold the build tuple inline, so a
  probe is a strided key read followed by one hash-indirect bucket read —
  the *stride-hash-indirect* pattern.
* **HJ-8** stores a linked list of build tuples per bucket (several tuples
  chain off each bucket on average), so every probe additionally walks a
  pointer chain through nodes scattered in memory — the pattern software
  prefetching fundamentally cannot cover and the programmable prefetcher's
  tagged events can.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler import ir
from ..config import WORD_BYTES
from ..cpu.trace import TraceBuilder
from ..programmable.config_api import PrefetcherConfiguration
from ..programmable.kernel import KernelBuilder
from .base import HASH_MULTIPLIER, Workload
from .registry import register_workload
from .data.distributions import random_keys
from .kernels import add_stride_indirect_chain, hash_transform

SOFTWARE_PREFETCH_DISTANCE = 32

#: Node layout for HJ-8 bucket chains: [key, payload, next, pad] — 32 bytes.
_NODE_WORDS = 4
_NODE_KEY_OFFSET = 0
_NODE_NEXT_OFFSET = 2


def _unique_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` distinct 40-bit join keys without materialising the key space."""

    keys = rng.integers(1, 1 << 40, size=count, dtype=np.int64)
    keys = np.unique(keys)
    while keys.size < count:
        extra = rng.integers(1, 1 << 40, size=count - keys.size, dtype=np.int64)
        keys = np.unique(np.concatenate([keys, extra]))
    return keys[:count]


def _hash(key: int, mask: int) -> int:
    return (key * HASH_MULTIPLIER) & mask


class _HashJoinBase(Workload):
    """Shared structure of the two hash-join variants."""

    #: Number of hash-table buckets (power of two).
    default_buckets = 32768
    #: Number of build-side tuples.
    default_build = 16384
    #: Number of probe-side keys (loop trip count).
    default_probes = 16000

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        super().__init__(scale=scale, seed=seed)
        buckets = self.scale.scaled(self.default_buckets, minimum=1024)
        self.num_buckets = 1 << (buckets.bit_length() - 1)
        self.bucket_mask = self.num_buckets - 1
        self.num_build = self.scale.scaled(self.default_build, minimum=512)
        self.num_probes = self.scale.scaled(self.default_probes, minimum=256)

    def _probe_keys(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1)
        # Probe keys are drawn from the build keys so most probes match,
        # as in an equi-join of foreign keys against a primary key.
        return rng.choice(self._build_keys, size=self.num_probes).astype(np.int64)


@register_workload(paper_reference=True)
class HashJoin2Workload(_HashJoinBase):
    """HJ-2: hash join with inline bucket entries (no chains)."""

    name = "hj2"
    pattern = "Stride-hash-indirect"
    paper_input = "-r 12800000 -s 12800000"
    repro_input = "16,000 probes into a 32,768-bucket inline hash table (scaled)"

    #: Bucket layout: [key, payload] — 16 bytes.
    _BUCKET_WORDS = 2

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        rng = np.random.default_rng(self.seed)
        self._build_keys = _unique_keys(rng, self.num_build)

        table = np.zeros(self.num_buckets * self._BUCKET_WORDS, dtype=np.int64)
        for key in self._build_keys:
            bucket = _hash(int(key), self.bucket_mask)
            table[bucket * self._BUCKET_WORDS] = int(key)
            table[bucket * self._BUCKET_WORDS + 1] = int(key) ^ 0xBEEF
        self.htab = self.space.allocate_array("htab", table.size, values=table)

        probe = self._probe_keys()
        self.probe_keys = self.space.allocate_array("probe_keys", self.num_probes, values=probe)
        self.output = self.space.allocate_array(
            "join_out", self.num_probes, values=np.zeros(self.num_probes, dtype=np.int64)
        )
        self._probe_values = probe

    def _bucket_addr(self, bucket: int) -> int:
        return self.htab.addr_of(bucket * self._BUCKET_WORDS)

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        dist = SOFTWARE_PREFETCH_DISTANCE
        probe = self._probe_values
        matches = 0
        for i in range(self.num_probes):
            if software_prefetch and i + dist < self.num_probes:
                future_key = tb.load(self.probe_keys.addr_of(i + dist))
                hash_ops = tb.compute(3, deps=[future_key])
                tb.software_prefetch(
                    self._bucket_addr(_hash(int(probe[i + dist]), self.bucket_mask)),
                    deps=[hash_ops],
                )
            key_load = tb.load(self.probe_keys.addr_of(i))
            hashed = tb.compute(5, deps=[key_load])
            bucket = _hash(int(probe[i]), self.bucket_mask)
            bucket_load = tb.load(self._bucket_addr(bucket), deps=[hashed])
            compare = tb.compute(3, deps=[bucket_load])
            tb.branch(deps=[compare])
            if self.space.read_word(self._bucket_addr(bucket)) == int(probe[i]):
                tb.store(self.output.addr_of(matches % self.num_probes), deps=[compare])
                matches += 1

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        keys_decl = ir.ArrayDecl("probe_keys", "probe_keys_base", length_param="num_probes")
        htab_decl = ir.ArrayDecl(
            "htab", "htab_base", length_param="num_buckets", element_bytes=16
        )
        loop = ir.Loop(
            "hj2",
            ir.IndexVar("i"),
            trip_count_param="num_probes",
            arrays=[keys_decl, htab_decl],
            pragma_prefetch=True,
        )
        i = loop.indvar

        def hash_expr(key: ir.Value) -> ir.Value:
            return ir.and_(ir.mul(key, ir.Param("hash_mult")), ir.Param("hash_mask"))

        loop.add(
            ir.SoftwarePrefetchStmt(
                htab_decl,
                hash_expr(ir.Load(keys_decl, ir.add(i, SOFTWARE_PREFETCH_DISTANCE))),
                name="swpf_htab",
                distance_hint=8,
                stream="hj2_probe_keys",
            )
        )
        bucket = ir.Load(htab_decl, hash_expr(ir.Load(keys_decl, i)))
        loop.add(ir.LoadStmt(bucket))
        loop.add(ir.ComputeStmt(1, uses=(bucket,)))
        bindings = {
            "probe_keys_base": self.probe_keys.base_addr,
            "htab_base": self.htab.base_addr,
            "num_probes": self.num_probes,
            "num_buckets": self.num_buckets,
            "hash_mult": HASH_MULTIPLIER,
            "hash_mask": self.bucket_mask,
        }
        return loop, bindings


@register_workload(paper_reference=True)
class HashJoin8Workload(_HashJoinBase):
    """HJ-8: hash join with per-bucket linked lists."""

    name = "hj8"
    pattern = "Stride-hash-indirect, linked list walks"
    paper_input = "-r 12800000 -s 12800000"
    repro_input = "6,000 probes, 16,384 buckets, ~4-node chains (scaled)"
    derive_note = (
        "The hand configuration chases bucket chains with a self-re-triggering "
        "walk_node kernel seeded from header fills; the legacy loop IR "
        "describes the probe as two independent prefetches, so derivation "
        "produces the wrong structure (two unrelated chains, no walker)."
    )

    default_buckets = 16384
    default_build = 32768
    default_probes = 8000

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        rng = np.random.default_rng(self.seed)
        self._build_keys = _unique_keys(rng, self.num_build)

        headers = np.zeros(self.num_buckets, dtype=np.int64)
        nodes = np.zeros(self.num_build * _NODE_WORDS, dtype=np.int64)
        self.headers = self.space.allocate_array("hj8_headers", self.num_buckets, values=headers)
        self.nodes = self.space.allocate_array("hj8_nodes", nodes.size, values=nodes)

        # Insert build tuples in a random placement order so that walking a
        # bucket chain jumps around memory, as a real allocator would produce.
        placement = rng.permutation(self.num_build)
        for slot, key_index in enumerate(placement):
            key = int(self._build_keys[key_index])
            bucket = _hash(key, self.bucket_mask)
            node_addr = self.nodes.addr_of(slot * _NODE_WORDS)
            self.nodes[slot * _NODE_WORDS + _NODE_KEY_OFFSET] = key
            self.nodes[slot * _NODE_WORDS + 1] = key ^ 0xBEEF
            self.nodes[slot * _NODE_WORDS + _NODE_NEXT_OFFSET] = self.headers[bucket]
            self.headers[bucket] = node_addr

        probe = self._probe_keys()
        self.probe_keys = self.space.allocate_array("probe_keys", self.num_probes, values=probe)
        self.output = self.space.allocate_array(
            "join_out", self.num_probes, values=np.zeros(self.num_probes, dtype=np.int64)
        )
        self._probe_values = probe

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        dist = SOFTWARE_PREFETCH_DISTANCE
        probe = self._probe_values
        matches = 0
        for i in range(self.num_probes):
            if software_prefetch and i + dist < self.num_probes:
                # Software prefetching can reach the bucket header, but the
                # list walk cannot be expressed without stalling (Section 3).
                future_key = tb.load(self.probe_keys.addr_of(i + dist))
                hash_ops = tb.compute(3, deps=[future_key])
                tb.software_prefetch(
                    self.headers.addr_of(_hash(int(probe[i + dist]), self.bucket_mask)),
                    deps=[hash_ops],
                )
            key = int(probe[i])
            key_load = tb.load(self.probe_keys.addr_of(i))
            hashed = tb.compute(5, deps=[key_load])
            bucket = _hash(key, self.bucket_mask)
            header_load = tb.load(self.headers.addr_of(bucket), deps=[hashed])

            node_addr = self.space.read_word(self.headers.addr_of(bucket))
            previous = header_load
            while node_addr != 0:
                key_word = tb.load(node_addr + _NODE_KEY_OFFSET * WORD_BYTES, deps=[previous])
                next_word = tb.load(node_addr + _NODE_NEXT_OFFSET * WORD_BYTES, deps=[previous])
                compare = tb.compute(2, deps=[key_word])
                tb.branch(deps=[compare])
                if self.space.read_word(node_addr + _NODE_KEY_OFFSET * WORD_BYTES) == key:
                    tb.store(self.output.addr_of(matches % self.num_probes), deps=[compare])
                    matches += 1
                previous = next_word
                node_addr = self.space.read_word(node_addr + _NODE_NEXT_OFFSET * WORD_BYTES)

    # ---------------------------------------------------------------- manual

    def _build_manual_configuration(self) -> PrefetcherConfiguration:
        config = PrefetcherConfiguration()
        config.set_global("hj8_hash_mult", HASH_MULTIPLIER)
        config.set_global("hj8_hash_mask", self.bucket_mask)

        # Node-walking kernel: prefetch the next node in the chain (tagged
        # with itself) — this is the control flow only manual programming can
        # express (Section 7.1).
        walker = KernelBuilder("hj8_walk_node")
        vaddr = walker.get_vaddr()
        word_offset = walker.and_(walker.shr(vaddr, 3), 7)
        next_index = walker.add(word_offset, _NODE_NEXT_OFFSET)
        next_ptr = walker.line_word(next_index)
        walker.branch_eq(next_ptr, 0, "done")
        walker.prefetch(next_ptr, tag=0)  # placeholder tag, patched below
        walker.label("done")
        walker.halt()
        # The walker re-triggers itself through its own tag; register the tag
        # first so the prefetch instruction can carry the right value.
        config.add_kernel(walker.build())
        node_tag = config.add_tag("hj8_node_fill", "hj8_walk_node", stream=None)
        # Rebuild the walker with the real tag value now that it is known.
        if node_tag != 0:
            raise AssertionError("hj8 node tag expected to be 0")

        # Bucket-header kernel: chase the head pointer of the list.
        header_fill = KernelBuilder("hj8_on_header_fill")
        head = header_fill.get_data()
        header_fill.branch_eq(head, 0, "empty")
        header_fill.prefetch(head, tag=node_tag)
        header_fill.label("empty")
        header_fill.halt()
        config.add_kernel(header_fill.build())
        header_tag = config.add_tag("hj8_header_fill", "hj8_on_header_fill", stream="hj8_probe_keys")

        config.add_stream("hj8_probe_keys", default_distance=8)
        add_stride_indirect_chain(
            config,
            prefix="hj8",
            root_name="probe_keys",
            root_base=self.probe_keys.base_addr,
            root_end=self.probe_keys.end_addr,
            target_name="headers",
            target_base=self.headers.base_addr,
            target_end=self.headers.end_addr,
            transform=hash_transform("hj8_hash_mult", "hj8_hash_mask"),
            follow_on_tag=header_tag,
        )
        # End the timed chain when node prefetches land, so the look-ahead
        # reflects the full probe chain latency.
        config.add_range(
            "hj8_nodes_end",
            self.nodes.base_addr,
            self.nodes.end_addr,
            stream="hj8_probe_keys",
            chain_end=True,
        )
        return config

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        keys_decl = ir.ArrayDecl("probe_keys", "probe_keys_base", length_param="num_probes")
        headers_decl = ir.ArrayDecl("headers", "headers_base", length_param="num_buckets")
        # The node heap is addressed through raw pointers; byte-granular
        # "array" based at zero so that address == index.
        heap_decl = ir.ArrayDecl("heap", "zero_base", element_bytes=1)
        loop = ir.Loop(
            "hj8",
            ir.IndexVar("i"),
            trip_count_param="num_probes",
            arrays=[keys_decl, headers_decl, heap_decl],
            pragma_prefetch=True,
            has_irregular_control_flow=True,
        )
        i = loop.indvar

        def hash_expr(key: ir.Value) -> ir.Value:
            return ir.and_(ir.mul(key, ir.Param("hash_mult")), ir.Param("hash_mask"))

        # Software prefetches: the bucket header for a future probe, and the
        # first node of its chain (reads of prefetched data are exactly what
        # conversion can exploit and raw software prefetching cannot).
        future_header = ir.Load(
            headers_decl, hash_expr(ir.Load(keys_decl, ir.add(i, SOFTWARE_PREFETCH_DISTANCE)))
        )
        loop.add(
            ir.SoftwarePrefetchStmt(
                headers_decl,
                hash_expr(ir.Load(keys_decl, ir.add(i, SOFTWARE_PREFETCH_DISTANCE))),
                name="swpf_header",
            )
        )
        loop.add(ir.SoftwarePrefetchStmt(heap_decl, future_header, name="swpf_first_node"))

        # The demand-side walk: the first node is loaded through the header,
        # and deeper nodes are control dependent (the while loop).
        header = ir.Load(headers_decl, hash_expr(ir.Load(keys_decl, i)))
        first_node_key = ir.Load(heap_decl, header)
        deeper = ir.Load(heap_decl, ir.add(first_node_key, 16), control_dependent=True)
        loop.add(ir.LoadStmt(first_node_key))
        loop.add(ir.LoadStmt(deeper))
        bindings = {
            "probe_keys_base": self.probe_keys.base_addr,
            "headers_base": self.headers.base_addr,
            "zero_base": 0,
            "num_probes": self.num_probes,
            "num_buckets": self.num_buckets,
            "hash_mult": HASH_MULTIPLIER,
            "hash_mask": self.bucket_mask,
        }
        return loop, bindings
