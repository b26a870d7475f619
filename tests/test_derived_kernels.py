"""Derived manual kernels reproduce the hand-written ones they replaced.

Six workloads — bfs, spmv, unionfind, randacc, intsort and hj2 — once
shipped hand-written manual-mode kernels next to the ones the loop-IR
pipeline (``repro.compiler.pipeline``) derives.  Before the hand-written
kernels were deleted, their configurations were frozen at tiny scale, seed
42, into ``tests/data/manual_kernels.json``: the global values in slot
order, the streams, the filter ranges and tags with their kernel instruction
lists, and the configuration-instruction count.  This module pins every
derived configuration to that reference two ways:

* structurally — the same streams, ranges and tags, each range and tag
  running the same instruction stream, the same global values and the same
  configuration-instruction count.  The one freedom is which global
  register slot holds which value, so every ``GET_GLOBAL`` is compared by
  the value in its slot rather than by slot number;
* differentially — hypothesis drives trigger-aligned kernel pairs through
  the interpreter on randomised contexts, each side reading its own global
  register file, and demands identical prefetches, instruction counts and
  abort flags.

End to end, the golden-stats suite (``tests/test_sim_integration.py``) runs
these workloads' ``manual``/``manual-blocked`` modes on the derived kernels,
compiled and through the interpreter oracle.  Here the frozen configurations
are rebuilt and simulated in place of the derived ones: they reproduce the
same golden fingerprints, so the reference holds everything that reached a
statistic.  The module also audits the registry: exactly these six
workloads derive, and every workload that hand-writes its kernels says why
in its ``derive_note``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.programmable.config_api import PrefetcherConfiguration
from repro.programmable.interpreter import execute_kernel
from repro.programmable.kernel import (
    Instruction,
    KernelContext,
    KernelProgram,
    Opcode,
    Operand,
    default_lookahead,
)
from repro.sim import PrefetchMode, simulate
from repro.workloads import build_workload, registry
from repro.workloads.base import Workload

FROZEN_PATH = Path(__file__).resolve().parent / "data" / "manual_kernels.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_stats.json"
FROZEN = json.loads(FROZEN_PATH.read_text(encoding="utf-8"))

#: Workloads whose derived kernels replaced hand-written ones.
DERIVED = list(FROZEN["workloads"])

_U64 = (1 << 64) - 1


def _derived_configuration(name):
    return build_workload(name, scale=FROZEN["scale"], seed=FROZEN["seed"]).manual_configuration()


# -------------------------------------------------------- frozen encoding


def _encode_operand(operand: Operand):
    return operand.value if operand.is_immediate else f"r{operand.value}"


def _decode_operand(value) -> Operand:
    return Operand(False, int(value[1:])) if isinstance(value, str) else Operand(True, value)


def _rows(program: KernelProgram) -> list:
    return [
        [Opcode(i.opcode).name, i.dst, _encode_operand(i.a), _encode_operand(i.b), i.target]
        for i in program.instructions
    ]


def _program(name: str, rows: list) -> KernelProgram:
    return KernelProgram(
        name,
        tuple(
            Instruction(Opcode[op], dst, _decode_operand(a), _decode_operand(b), target)
            for op, dst, a, b, target in rows
        ),
    )


def _freeze(configuration) -> dict:
    """``configuration`` in the encoding of ``manual_kernels.json``."""

    def body(kernel_name):
        return None if kernel_name is None else _rows(configuration.kernel(kernel_name))

    return {
        "globals": configuration.global_values(),
        "streams": [
            {"index": s.index, "name": s.name, "default_distance": s.default_distance}
            for s in sorted(configuration.streams.values(), key=lambda s: s.index)
        ],
        "ranges": [
            {
                "base": entry.base,
                "end": entry.end,
                "load_kernel": body(entry.load_kernel),
                "prefetch_kernel": body(entry.prefetch_kernel),
                "stream": entry.stream,
                "time_iterations": entry.time_iterations,
                "chain_start": entry.chain_start,
                "chain_end": entry.chain_end,
            }
            for entry in configuration.ranges
        ],
        "tags": [
            {"tag": t.tag, "kernel": body(t.kernel), "stream": t.stream, "chain_end": t.chain_end}
            for t in sorted(configuration.tags.values(), key=lambda t: t.tag)
        ],
        "kernel_count": len(configuration.kernels),
        "config_instructions": configuration.config_instruction_count(),
    }


def _thaw(frozen: dict) -> PrefetcherConfiguration:
    """The configuration ``frozen`` was taken from, rebuilt.

    Globals go back into their recorded slots, streams and tags get their
    recorded numbers, and identical instruction lists share one kernel.
    Kernel, range, tag and global names are made up: none reaches a
    statistic.
    """

    configuration = PrefetcherConfiguration()
    for slot, value in enumerate(frozen["globals"]):
        configuration.set_global(f"global{slot}", value)
    for stream in frozen["streams"]:
        configuration.add_stream(stream["name"], stream["default_distance"])
    kernel_names: dict[str, str] = {}

    def kernel(name, rows):
        if rows is None:
            return None
        key = json.dumps(rows)
        if key not in kernel_names:
            kernel_names[key] = name
            configuration.add_kernel(_program(name, rows))
        return kernel_names[key]

    for index, entry in enumerate(frozen["ranges"]):
        configuration.add_range(
            f"range{index}",
            entry["base"],
            entry["end"],
            load_kernel=kernel(f"range{index}.load", entry["load_kernel"]),
            prefetch_kernel=kernel(f"range{index}.prefetch", entry["prefetch_kernel"]),
            stream=entry["stream"],
            time_iterations=entry["time_iterations"],
            chain_start=entry["chain_start"],
            chain_end=entry["chain_end"],
        )
    for tag in frozen["tags"]:
        configuration.add_tag(
            f"tag{tag['tag']}",
            kernel(f"tag{tag['tag']}", tag["kernel"]),
            stream=tag["stream"],
            chain_end=tag["chain_end"],
        )
    return configuration


def _resolved(frozen: dict) -> dict:
    """``frozen`` with each ``GET_GLOBAL`` reading its slot's value.

    Global values become a sorted list: which slot holds which value is the
    one thing a derived configuration may change.
    """

    values = frozen["globals"]

    def body(rows):
        if rows is None:
            return None
        return [
            [op, dst, ("global", values[a]) if op == "GET_GLOBAL" else a, b, target]
            for op, dst, a, b, target in rows
        ]

    return {
        **frozen,
        "globals": sorted(values),
        "ranges": [
            {**entry, "load_kernel": body(entry["load_kernel"]),
             "prefetch_kernel": body(entry["prefetch_kernel"])}
            for entry in frozen["ranges"]
        ],
        "tags": [{**tag, "kernel": body(tag["kernel"])} for tag in frozen["tags"]],
    }


# -------------------------------------------------------------- registry audit


class TestRegistryAudit:
    def test_some_workloads_derive(self):
        derivable = sorted(spec.name for spec in registry.specs() if spec.derives_manual)
        assert derivable == sorted(DERIVED)

    def test_every_workload_declares_derivation_status(self):
        """A workload either derives its manual kernels or, having written
        them by hand, says in its ``derive_note`` why it cannot."""

        for spec in registry.specs():
            assert spec.derives_manual != bool(spec.derive_note.strip()), spec.name
            overrides = spec.factory._build_manual_configuration is not (
                Workload._build_manual_configuration
            )
            assert spec.derives_manual != overrides, spec.name

    def test_derivable_workloads_actually_derive(self, tiny_workloads):
        for name in DERIVED:
            workload = tiny_workloads.get(name)
            assert workload.derived_kernels().derived, name
            assert workload.manual_configuration() is workload.derived_kernels().configuration

    def test_non_derivable_workload_fails_loudly_when_forced(self, tiny_workloads):
        workload = tiny_workloads.get("pagerank")
        with pytest.raises(WorkloadError, match="derived no manual kernels"):
            Workload._build_manual_configuration(workload)
        with pytest.raises(WorkloadError):
            workload.manual_configuration_for("compiled")

    def test_kernel_source_accessors_name_the_one_source(self, tiny_workloads):
        bfs, pagerank = tiny_workloads.get("bfs"), tiny_workloads.get("pagerank")
        assert bfs.resolve_kernel_source() == "compiled"
        assert pagerank.resolve_kernel_source() == "hand"
        assert bfs.manual_configuration_for("compiled") is bfs.manual_configuration()
        assert pagerank.manual_configuration_for("hand") is pagerank.manual_configuration()
        with pytest.raises(WorkloadError):
            bfs.manual_configuration_for("hand")


# ------------------------------------------------------ structural equivalence


class TestStructuralEquivalence:
    @pytest.mark.parametrize("name", DERIVED)
    def test_derived_configuration_matches_hand_written(self, name):
        configuration = _derived_configuration(name)
        referenced = {t.kernel for t in configuration.tags.values()}
        for entry in configuration.ranges:
            referenced.update(k for k in (entry.load_kernel, entry.prefetch_kernel) if k)
        assert referenced == set(configuration.kernels), f"{name}: untriggered kernel"

        derived = _resolved(_freeze(configuration))
        hand = _resolved(FROZEN["workloads"][name])
        assert derived.keys() == hand.keys()
        for key in hand:
            assert derived[key] == hand[key], f"{name}: {key} diverged"

    @pytest.mark.parametrize("name", DERIVED)
    def test_derived_configuration_validates(self, name):
        _derived_configuration(name).validate()


# ------------------------------------------------------------- differential


def _aligned_kernel_pairs():
    """Kernel pairs aligned by *trigger*: the load (or prefetch) kernel of
    the i-th filter range, and the kernel of tag number k.  Each pair
    carries both sides' global register files."""

    pairs = []
    for name in DERIVED:
        hand = FROZEN["workloads"][name]
        derived = _derived_configuration(name)
        hand_globals = tuple(hand["globals"])
        derived_globals = tuple(derived.global_values())
        assert len(hand["ranges"]) == len(derived.ranges), name
        for index, (h_range, d_range) in enumerate(zip(hand["ranges"], derived.ranges)):
            for role in ("load_kernel", "prefetch_kernel"):
                rows, d_name = h_range[role], getattr(d_range, role)
                assert (rows is None) == (d_name is None), (name, index, role)
                if rows is not None:
                    trigger = f"{name}/range{index}.{role}"
                    pairs.append((trigger, _program(trigger, rows), hand_globals,
                                  derived.kernel(d_name), derived_globals))
        assert [tag["tag"] for tag in hand["tags"]] == sorted(derived.tags), name
        for tag in hand["tags"]:
            trigger = f"{name}/tag{tag['tag']}"
            pairs.append((trigger, _program(trigger, tag["kernel"]), hand_globals,
                          derived.kernel(derived.tags[tag["tag"]].kernel), derived_globals))
    return pairs


_PAIRS = _aligned_kernel_pairs()


@st.composite
def _pair_and_context(draw):
    pair = draw(st.sampled_from(_PAIRS))
    context = KernelContext(
        vaddr=draw(st.integers(min_value=0, max_value=1 << 36)) * 8,
        line_base=0,
        line_words=draw(st.one_of(
            st.none(),
            st.lists(st.integers(min_value=0, max_value=_U64), min_size=8, max_size=8).map(tuple),
        )),
        global_registers=(),
        lookahead=draw(st.sampled_from(
            [default_lookahead, lambda stream: (stream * 5 + 2) % 64]
        )),
    )
    return pair, context


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(case=_pair_and_context())
    def test_hand_and_derived_kernels_bit_identical(self, case):
        (trigger, hand, hand_globals, derived, derived_globals), context = case
        hand_result = execute_kernel(hand, context._replace(global_registers=hand_globals))
        derived_result = execute_kernel(
            derived, context._replace(global_registers=derived_globals)
        )
        label = f"{trigger} ({derived.name})"
        assert derived_result.prefetches == hand_result.prefetches, label
        assert (
            derived_result.instructions_executed == hand_result.instructions_executed
        ), label
        assert derived_result.aborted == hand_result.aborted, label


# ----------------------------------------------------------------- end-to-end


class TestFrozenReference:
    """The frozen hand kernels still produce the golden fingerprints."""

    @pytest.mark.parametrize("name", DERIVED)
    @pytest.mark.parametrize("mode", [PrefetchMode.MANUAL, PrefetchMode.MANUAL_BLOCKED])
    def test_frozen_kernels_reproduce_golden_entry(
        self, name, mode, tiny_workloads, monkeypatch
    ):
        frozen = FROZEN["workloads"][name]
        configuration = _thaw(frozen)
        configuration.validate()
        assert json.loads(json.dumps(_freeze(configuration))) == frozen, name

        workload = tiny_workloads.get(name)
        assert (workload.scale.name, workload.seed) == (FROZEN["scale"], FROZEN["seed"])
        monkeypatch.setattr(workload, "manual_configuration", lambda: configuration)
        result = simulate(workload, mode, SystemConfig.scaled())
        measured = json.loads(json.dumps(result.as_dict()))
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert measured == golden[f"{name}/{mode.value}"], (
            f"{name}/{mode.value}: the frozen hand kernels diverged from the "
            f"golden fingerprint"
        )
