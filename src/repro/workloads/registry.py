"""The workload registry: the paper's fifteen applications plus the
dense-tensor family.

Section 2.2's suites, with each original's role noted:

* Spec2000 (single-threaded): ammp, art, equake, gzip, twolf, mcf.
* Mediabench: rawdaudio, mpeg2encode, djpeg.
* Splash2 (multithreaded): fft, lu, ocean, raytrace, water, radix.
* Tensor (post-paper): tiled GEMM in three stationarity disciplines
  plus a 3x3 convolution -- see :mod:`repro.workloads.tensor`.
"""

from __future__ import annotations

from .base import Suite, Workload
from .media import djpeg, mpeg2encode, rawdaudio
from .spec import ammp, art, equake, gzip, mcf, twolf
from .splash import fft, lu, ocean, radix, raytrace, water
from .tensor import conv, gemm

WORKLOADS: dict[str, Workload] = {}


def _register(workload: Workload) -> Workload:
    if workload.name in WORKLOADS:
        raise ValueError(f"duplicate workload {workload.name}")
    WORKLOADS[workload.name] = workload
    return workload


_register(Workload(
    name="gzip", suite=Suite.SPEC, build=gzip.build,
    reference=gzip.reference,
    description="run-length compression (control-heavy integer)",
    default_k=3,
))
_register(Workload(
    name="mcf", suite=Suite.SPEC, build=mcf.build, reference=mcf.reference,
    description="pointer chase over an in-memory graph (latency-bound)",
    default_k=2,
))
_register(Workload(
    name="twolf", suite=Suite.SPEC, build=twolf.build,
    reference=twolf.reference,
    description="placement-improvement sweep with in-memory swaps",
    default_k=3,
))
_register(Workload(
    name="ammp", suite=Suite.SPEC, build=ammp.build,
    reference=ammp.reference, uses_fp=True,
    description="molecular force accumulation (FP divide pipeline)",
    default_k=3,
))
_register(Workload(
    name="art", suite=Suite.SPEC, build=art.build, reference=art.reference,
    uses_fp=True,
    description="neural-layer evaluation with winner-take-all",
    default_k=4,
))
_register(Workload(
    name="equake", suite=Suite.SPEC, build=equake.build,
    reference=equake.reference, uses_fp=True,
    description="sparse matrix-vector product (CSR)",
    default_k=4,
))

_register(Workload(
    name="djpeg", suite=Suite.MEDIA, build=djpeg.build,
    reference=djpeg.reference,
    description="block inverse transform with saturation",
    default_k=3,
))
_register(Workload(
    name="mpeg2encode", suite=Suite.MEDIA, build=mpeg2encode.build,
    reference=mpeg2encode.reference,
    description="motion-estimation SAD search",
    default_k=4,
))
_register(Workload(
    name="rawdaudio", suite=Suite.MEDIA, build=rawdaudio.build,
    reference=rawdaudio.reference,
    description="ADPCM decode (serial recurrence)",
    default_k=4,
))

_register(Workload(
    name="fft", suite=Suite.SPLASH, build=fft.build, reference=fft.reference,
    multithreaded=True, uses_fp=True,
    description="parallel radix-2 butterfly stage",
    default_k=3,
))
_register(Workload(
    name="lu", suite=Suite.SPLASH, build=lu.build, reference=lu.reference,
    multithreaded=True, uses_fp=True,
    description="parallel LU elimination step (shared pivot row)",
    default_k=4,
))
_register(Workload(
    name="ocean", suite=Suite.SPLASH, build=ocean.build,
    reference=ocean.reference, multithreaded=True, uses_fp=True,
    description="stencil relaxation over partitioned grid",
    default_k=4,
))
_register(Workload(
    name="radix", suite=Suite.SPLASH, build=radix.build,
    reference=radix.reference, multithreaded=True,
    description="parallel digit histogram (PSQ-heavy)",
    default_k=3,
))
_register(Workload(
    name="raytrace", suite=Suite.SPLASH, build=raytrace.build,
    reference=raytrace.reference, multithreaded=True, uses_fp=True,
    description="ray-sphere intersection with divergent hits",
    default_k=4,
))
_register(Workload(
    name="water", suite=Suite.SPLASH, build=water.build,
    reference=water.reference, multithreaded=True, uses_fp=True,
    description="pairwise short-range forces (ring neighbours)",
    default_k=4,
))


_register(Workload(
    name="gemm_os", suite=Suite.TENSOR, build=gemm.build_os,
    reference=gemm.reference, uses_fp=True,
    description="tiled GEMM, output-stationary (C tile in carried state)",
    default_k=3,
))
_register(Workload(
    name="gemm_ws", suite=Suite.TENSOR, build=gemm.build_ws,
    reference=gemm.reference, uses_fp=True,
    description="tiled GEMM, weight-stationary (B tile carried, C in memory)",
    default_k=3,
))
_register(Workload(
    name="gemm_is", suite=Suite.TENSOR, build=gemm.build_is,
    reference=gemm.reference, uses_fp=True,
    description="tiled GEMM, input-stationary (A tile carried, C in memory)",
    default_k=3,
))
_register(Workload(
    name="conv3x3", suite=Suite.TENSOR, build=conv.build,
    reference=conv.reference, uses_fp=True,
    description="3x3 valid convolution, weights pinned as loop invariants",
    default_k=3,
))


def by_suite(suite: Suite) -> list[Workload]:
    return [w for w in WORKLOADS.values() if w.suite is suite]


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; have {sorted(WORKLOADS)}"
        ) from None


def all_names() -> list[str]:
    return sorted(WORKLOADS)


SPEC_NAMES = tuple(sorted(w.name for w in by_suite(Suite.SPEC)))
MEDIA_NAMES = tuple(sorted(w.name for w in by_suite(Suite.MEDIA)))
SPLASH_NAMES = tuple(sorted(w.name for w in by_suite(Suite.SPLASH)))
TENSOR_NAMES = tuple(sorted(w.name for w in by_suite(Suite.TENSOR)))

#: Suite name -> its workload names, as ``repro`` commands and
#: ``repro lint`` accept them.
SUITES = {
    "spec": SPEC_NAMES,
    "media": MEDIA_NAMES,
    "splash": SPLASH_NAMES,
    "tensor": TENSOR_NAMES,
    "all": tuple(sorted(WORKLOADS)),
}
