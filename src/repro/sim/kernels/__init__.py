"""Specialized simulation kernels: per-configuration generated hot loops.

``compile_kernel(config)`` turns a :class:`~repro.sim.config.SimulationConfig`
into a :class:`KernelProgram` — an ``exec``-compiled module whose
``kernel_run(pipeline, seqs, total, capacity, trace_arrays)`` entry point is
an event-driven pipeline loop fused with the configuration's interface tick
and batched stat accounting (see :mod:`repro.sim.kernels.generator`).
``compile_kernel(config, observe=True)`` builds the *observe* variant, the
same loop plus the :class:`~repro.obs.collector.RunCollector` hooks, which
observed runs execute instead of the default kernel.

Programs are cached per *content hash*: a digest of the primitive spec the
generator consumed (excluding the config's name and seed) plus the generator
version and the variant, so every sweep cell sharing a configuration shape
compiles once — including across pool workers when the campaign executor's
initializer calls :func:`prewarm` with the campaign's distinct configs.

``"specialized"`` (the default) runs these kernels; ``kernel="generic"``
runs the cycle-driven reference loop
(:meth:`repro.cpu.pipeline.OutOfOrderPipeline._run_cycle_driven`), the
differential-testing oracle, which is also what runs whenever a kernel's
runtime guards decline.

Generated sources are registered with :mod:`linecache` under a synthetic
``<repro-kernel-...>`` filename, so tracebacks out of exec-compiled code show
real source lines; ``repro report --kernel-source CONFIG`` dumps the same
text for offline reading.
"""

from __future__ import annotations

import hashlib
import linecache
from dataclasses import dataclass
from typing import Callable, Dict, Iterable

from repro.sim.config import SimulationConfig
from repro.sim.kernels.generator import (
    GENERATOR_VERSION,
    KIND_CLASSES,
    build_spec,
    generate_source,
)

__all__ = [
    "GENERATOR_VERSION",
    "KERNELS",
    "KernelProgram",
    "compile_kernel",
    "content_hash",
    "kernel_source",
    "prewarm",
]

#: recognised kernel selections (the first is the default)
KERNELS = ("specialized", "generic")


@dataclass(frozen=True)
class KernelProgram:
    """A compiled specialized kernel plus its provenance."""

    kind: str
    content_hash: str
    filename: str
    source: str
    entry: Callable


def content_hash(config: SimulationConfig, observe: bool = False) -> str:
    """Digest of everything the generated code depends on.

    Two configs differing only in ``name``/``seed`` hash identically (the
    spec excludes both), so sweep cells share one compiled kernel.  The
    generator version and the observe flag are part of the spec, so
    emitted-code changes roll the hash over and the two variants never
    share a cache slot.
    """
    spec = build_spec(config, observe)
    payload = repr(sorted(spec.items())).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


#: per-process program cache, keyed by content hash
_CACHE: Dict[str, KernelProgram] = {}

_CACHE_LIMIT = 512


def _bump(name: str, amount: float = 1.0) -> None:
    """Bump an obs counter iff metrics are on (lazy import: repro.obs pulls
    in the simulator, which imports this module — a top-level import would
    be circular)."""
    from repro.obs import metrics as obs_metrics

    if obs_metrics.enabled():
        obs_metrics.registry.counter(name).inc(amount)


def kernel_source(config: SimulationConfig, observe: bool = False) -> str:
    """The generated module text for ``config`` (for dumping/debugging)."""
    digest = content_hash(config, observe)
    return generate_source(build_spec(config, observe), digest)


def compile_kernel(
    config: SimulationConfig, _count: bool = True, observe: bool = False
) -> KernelProgram:
    """Build (or fetch from the per-process cache) ``config``'s kernel.

    ``observe=True`` selects the collector-instrumented variant.

    Bumps ``kernel.cache.hit``/``kernel.cache.miss`` when metrics are on;
    :func:`prewarm` passes ``_count=False`` so warm-up compiles stay out of
    the hit/miss ledger and the counters stay invariant across job counts
    (prewarmed pool worker vs cold serial path).
    """
    digest = content_hash(config, observe)
    program = _CACHE.get(digest)
    if program is not None:
        if _count:
            _bump("kernel.cache.hit")
        return program
    if _count:
        _bump("kernel.cache.miss")
    spec = build_spec(config, observe)
    source = generate_source(spec, digest)
    variant = "-observe" if observe else ""
    filename = f"<repro-kernel-{spec['kind']}{variant}-{digest[:8]}>"
    # Register with linecache so tracebacks through exec-compiled code show
    # real source lines with real line numbers.
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    program = KernelProgram(
        kind=spec["kind"],
        content_hash=digest,
        filename=filename,
        source=source,
        entry=namespace["kernel_run"],
    )
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[digest] = program
    return program


def prewarm(configs: Iterable[SimulationConfig]) -> int:
    """Compile the kernels of ``configs`` (deduplicated); returns the count.

    Called from pool-worker initializers so every worker pays each distinct
    configuration's generation+compile cost once, up front, instead of on its
    first cell.
    """
    compiled = 0
    seen = set()
    for config in configs:
        digest = content_hash(config)
        if digest in seen:
            continue
        seen.add(digest)
        compile_kernel(config, _count=False)
        compiled += 1
    if compiled:
        # Counts distinct configs *processed*, not cache misses, so the value
        # is deterministic whether or not the cache was already warm.
        _bump("kernel.prewarm", compiled)
    return compiled
