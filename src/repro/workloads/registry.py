"""Declarative workload registry — the single source of truth for workloads.

Every benchmark the simulator can drive is described by a
:class:`WorkloadSpec` and registered with the :func:`register_workload`
decorator.  The spec names the workload, the scales it supports, whether it
reproduces a paper (Table 2) benchmark or is an off-paper extension, and the
factory that builds its traces and PPU kernel configurations.  Drivers — the
figure/table reproductions, the batch engine's runners, the sweeps and the
benchmark harness — resolve workloads exclusively through this module, so
adding a workload is one file::

    from repro.workloads.base import Workload
    from repro.workloads.registry import register_workload

    @register_workload()
    class MyKernel(Workload):
        name = "mykernel"
        ...

Importing :mod:`repro.workloads` populates the registry with the eight paper
benchmarks plus the off-paper extensions (BFS, SpMV, union-find); the
module-level helpers (:func:`names`, :func:`get`, :func:`build`, ...) operate
on that shared registry.  A workload's manual kernels have one source: they
are derived from its loop IR unless the class hand-writes them, and
registration rejects a hand-written workload that does not say why in its
``derive_note``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..errors import RegistryError, WorkloadError
from .base import Workload, WorkloadScale

#: Scale names every workload supports unless its spec narrows them.
DEFAULT_SCALES = ("tiny", "small", "default", "large")


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one registered workload.

    Attributes:
        name: Canonical workload name (``SimRequest.workload`` key).
        factory: Callable ``(scale, seed) -> Workload`` — the workload class
            itself for decorator registrations.  The constructed object owns
            the trace builder (:meth:`Workload.trace`) and the PPU kernel
            builders (:meth:`Workload.manual_configuration` et al.).
        scales: Scale names the workload accepts (subset of
            :data:`DEFAULT_SCALES`).
        paper_reference: ``True`` for the eight Table 2 benchmarks whose
            results are compared against published figures; ``False`` for
            off-paper extensions.
        pattern: Access-pattern summary (the Table 2 column).
        description: One-line summary, taken from the factory docstring when
            not given explicitly.
        derives_manual: ``True`` when the workload's manual-mode kernels
            are derived from its loop IR by the compiler pipeline; ``False``
            when the class hand-writes them.
        derive_note: For a hand-written workload, why the pipeline cannot
            derive its kernels.
    """

    name: str
    factory: Callable[..., Workload]
    scales: tuple[str, ...] = DEFAULT_SCALES
    paper_reference: bool = False
    pattern: str = ""
    description: str = ""
    derives_manual: bool = True
    derive_note: str = ""

    def build(self, scale: str = "default", seed: int = 42) -> Workload:
        """Construct the workload, build its data structures and return it.

        Args:
            scale: One of :attr:`scales` (:class:`WorkloadScale` names).
            seed: Seed for the workload's data generators.

        Returns:
            A fully built :class:`Workload` whose traces and prefetcher
            configurations can be requested immediately.

        Raises:
            WorkloadError: If ``scale`` is not supported by this workload.
        """

        if scale not in self.scales:
            raise WorkloadError(
                f"workload {self.name!r} does not support scale {scale!r}; "
                f"supported: {sorted(self.scales)}"
            )
        workload = self.factory(scale=scale, seed=seed)
        workload.build()
        return workload


@dataclass
class WorkloadRegistry:
    """An insertion-ordered mapping of workload name → :class:`WorkloadSpec`."""

    _specs: dict[str, WorkloadSpec] = field(default_factory=dict)

    def register(self, spec: WorkloadSpec) -> WorkloadSpec:
        """Add ``spec``; registering a name twice raises :class:`RegistryError`."""

        if spec.name in self._specs:
            raise RegistryError(
                f"workload {spec.name!r} is already registered "
                f"(by {self._specs[spec.name].factory!r})"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> WorkloadSpec:
        """Return the spec registered under ``name``.

        Raises:
            RegistryError: If no workload of that name is registered.
        """

        try:
            return self._specs[name]
        except KeyError as error:
            raise RegistryError(
                f"unknown workload {name!r}; available: {self.names()}"
            ) from error

    def build(self, name: str, scale: str = "default", seed: int = 42) -> Workload:
        """Construct and build the workload registered under ``name``."""

        return self.get(name).build(scale=scale, seed=seed)

    def names(self) -> list[str]:
        """Every registered workload name, in registration order."""

        return list(self._specs)

    def paper_names(self) -> list[str]:
        """The paper (Table 2) benchmarks, in registration (figure) order."""

        return [name for name, spec in self._specs.items() if spec.paper_reference]

    def extended_names(self) -> list[str]:
        """The off-paper workloads, in registration order."""

        return [name for name, spec in self._specs.items() if not spec.paper_reference]

    def specs(self) -> list[WorkloadSpec]:
        """Every registered spec, in registration order."""

        return list(self._specs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[WorkloadSpec]:
        return iter(self._specs.values())


#: The process-wide registry that :func:`register_workload` populates.
REGISTRY = WorkloadRegistry()


def register_workload(
    *,
    name: Optional[str] = None,
    scales: tuple[str, ...] = DEFAULT_SCALES,
    paper_reference: bool = False,
    registry: Optional[WorkloadRegistry] = None,
) -> Callable[[type[Workload]], type[Workload]]:
    """Class decorator registering a :class:`Workload` subclass.

    Args:
        name: Canonical name; defaults to the class's ``name`` attribute.
        scales: Scale names the workload supports.
        paper_reference: Whether the workload reproduces a Table 2 benchmark.
        registry: Target registry; defaults to the shared :data:`REGISTRY`
            (tests pass their own to exercise registration in isolation).

    Returns:
        The class, unchanged, so decoration does not alter construction.

    Raises:
        RegistryError: For a missing or duplicate name, or a class that
            hand-writes its manual kernels without a ``derive_note``.
    """

    target = registry if registry is not None else REGISTRY

    def decorator(cls: type[Workload]) -> type[Workload]:
        spec_name = name if name is not None else cls.name
        if not spec_name or spec_name == Workload.name:
            raise RegistryError(
                f"{cls.__name__} must define a distinct 'name' attribute to register"
            )
        for scale in scales:
            WorkloadScale.from_name(scale)  # fail fast on unknown scale names
        if not cls.derives_manual and not cls.derive_note.strip():
            raise RegistryError(
                f"{cls.__name__} hand-writes its manual kernels; "
                "say why the pipeline cannot derive them in 'derive_note'"
            )
        doc = (cls.__doc__ or "").strip().splitlines()
        target.register(
            WorkloadSpec(
                name=spec_name,
                factory=cls,
                scales=tuple(scales),
                paper_reference=paper_reference,
                pattern=cls.pattern,
                description=doc[0] if doc else "",
                derives_manual=cls.derives_manual,
                derive_note=cls.derive_note,
            )
        )
        return cls

    return decorator


# ------------------------------------------------------- module-level helpers
# Thin delegates so drivers can write `from repro.workloads import registry`
# and call `registry.names()` without touching the singleton directly.


def names() -> list[str]:
    """Every registered workload name, in registration order."""

    return REGISTRY.names()


def paper_names() -> list[str]:
    """The eight paper (Table 2) benchmark names, in figure order."""

    return REGISTRY.paper_names()


def extended_names() -> list[str]:
    """The off-paper workload names (the "bring your own kernel" set)."""

    return REGISTRY.extended_names()


def get(name: str) -> WorkloadSpec:
    """Return the :class:`WorkloadSpec` registered under ``name``."""

    return REGISTRY.get(name)


def build(name: str, scale: str = "default", seed: int = 42) -> Workload:
    """Construct and build the workload registered under ``name``."""

    return REGISTRY.build(name, scale=scale, seed=seed)


def specs() -> list[WorkloadSpec]:
    """Every registered spec, in registration order."""

    return REGISTRY.specs()
