"""Bottom-up area estimator (the RTL-model substitute).

The paper derives its per-entry area constants from Synopsys/Cadence
synthesis of real Verilog onto TSMC 90 nm cells.  Without that flow we
re-derive the same constants from first principles and check they land
within a factor of ~2 of the paper's calibrated numbers.  The
design-space study itself always uses the paper's constants
(:mod:`repro.area.model`); this estimator exists to justify them and to
let users extrapolate to structures the paper never synthesised.

Density assumptions (90 nm):

* Small, heavily ported microarchitectural storage (matching tables,
  instruction stores, ordering tables, network queues) synthesises to
  flop/latch arrays via DesignWare building blocks: ~18 um^2 per bit
  including muxing.
* The L1 is a compiled SRAM macro with 4 access ports ("4 accesses per
  cycle", Table 1); multi-porting costs roughly the square of the port
  count in cell area: ~16x a single-ported bit, ~2x peripheral
  overhead.
* The L2 is a large single-ported compiled macro: ~1.0 um^2/bit plus
  25% periphery.
* Synthesised logic: ~250k NAND2-equivalent gates per mm^2; a compact
  64-bit Booth multiplier ~12k gates, 64-bit ALU ~1.2k gates, an FPU
  ~120k gates.
"""

from __future__ import annotations

from dataclasses import dataclass

FLOP_UM2_PER_BIT = 18.0
SRAM_UM2_PER_BIT = 1.0
GATES_PER_MM2 = 250_000.0
UM2_PER_MM2 = 1e6


def flop_array_mm2(bits: float) -> float:
    """Area of a small flop/latch-based storage structure."""
    return bits * FLOP_UM2_PER_BIT / UM2_PER_MM2


def sram_mm2(bits: float, ports: int = 1, overhead: float = 1.25) -> float:
    """Area of a compiled SRAM macro with ``ports`` access ports."""
    port_factor = float(ports * ports) if ports > 1 else 1.0
    return bits * SRAM_UM2_PER_BIT * port_factor * overhead / UM2_PER_MM2


def logic_mm2(gates: float) -> float:
    return gates / GATES_PER_MM2


# ----------------------------------------------------------------------
# Structure-level estimates
# ----------------------------------------------------------------------
def matching_entry_bits() -> int:
    """Bits per matching-table row: two 64-bit operand columns, the
    1-bit third column, and the tracker-board tag (thread + wave +
    instruction index ~48 bits, presence bits, LRU)."""
    return 64 * 2 + 1 + 48 + 4


def matching_table_mm2(entries: int) -> float:
    return flop_array_mm2(entries * matching_entry_bits()) + \
        logic_mm2(6_000)  # hash, comparators, bank arbitration


def istore_entry_bits() -> int:
    """Decoded instruction: opcode, immediate, 4 destinations, wave
    annotation, control bits -- ~110 bits over several small per-stage
    arrays (Section 3.2 keeps each single-ported)."""
    return 110


def istore_mm2(entries: int) -> float:
    return flop_array_mm2(entries * istore_entry_bits())


def pe_logic_mm2() -> float:
    """INPUT/DISPATCH/EXECUTE/OUTPUT logic: ALU + compact multiplier,
    queues and pipeline registers."""
    return logic_mm2(1_200 + 12_000 + 4_000)


def l1_mm2_per_kb() -> float:
    # Data + tags (~9%) with 4 access ports.
    bits_per_kb = 8 * 1024 * 1.09
    return sram_mm2(bits_per_kb, ports=4, overhead=2.0) + logic_mm2(1_000)


def l2_mm2_per_mb() -> float:
    bits_per_mb = 8 * 1024 * 1024 * 1.07
    return sram_mm2(bits_per_mb, ports=1, overhead=1.25)


def store_buffer_mm2() -> float:
    """Ordering tables for 4 in-flight waves (128 entries x ~200 bits:
    address, data, annotation links), two partial store queues, and the
    3-stage processing pipeline."""
    ordering = flop_array_mm2(4 * 128 * 200)
    psqs = flop_array_mm2(2 * 4 * 140)
    logic = logic_mm2(60_000)
    return ordering + psqs + logic


def network_switch_mm2() -> float:
    """Six ports x two virtual channels x 8-entry output queues of
    ~72-bit flits, plus crossbar and routing logic."""
    queues = flop_array_mm2(6 * 2 * 8 * 72)
    return queues + logic_mm2(40_000)


def pseudo_pe_mm2() -> float:
    """MEM/NET pseudo-PEs: interface queues and arbitration."""
    return flop_array_mm2(16 * 72) + logic_mm2(20_000)


# ----------------------------------------------------------------------
# Model-level estimates (same shape as repro.area.model)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EstimatedConstants:
    """First-principles counterparts of the Table 3 constants."""

    matching_mm2_per_entry: float
    istore_mm2_per_instruction: float
    pe_other_mm2: float
    pseudo_pe_mm2: float
    store_buffer_mm2: float
    l1_mm2_per_kb: float
    network_switch_mm2: float
    l2_mm2_per_mb: float


def estimate_constants() -> EstimatedConstants:
    """Derive per-unit constants from the structure estimates, using
    the same reference sizes the paper synthesised (128 entries)."""
    return EstimatedConstants(
        matching_mm2_per_entry=matching_table_mm2(128) / 128,
        istore_mm2_per_instruction=istore_mm2(128) / 128,
        pe_other_mm2=pe_logic_mm2(),
        pseudo_pe_mm2=pseudo_pe_mm2(),
        store_buffer_mm2=store_buffer_mm2(),
        l1_mm2_per_kb=l1_mm2_per_kb(),
        network_switch_mm2=network_switch_mm2(),
        l2_mm2_per_mb=l2_mm2_per_mb(),
    )
