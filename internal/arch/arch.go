// Package arch describes the hardware organization of the simulated
// accelerator: a TPU-like core with multiple weight-stationary systolic
// PE arrays, an HBM channel for weight traffic, physically decoupled
// on-chip SRAM buffers, and a host link (PCIe) for feature movement.
//
// All other packages derive their timing and capacity constants from a
// Config value; nothing else in the repository hard-codes hardware
// parameters. The default configuration, PaperConfig, reproduces
// Table I of the AI-MT paper (ISCA 2020).
package arch

import (
	"errors"
	"fmt"
)

// Cycles counts clock cycles of the accelerator core.
type Cycles int64

// Bytes counts storage or transferred data in bytes.
type Bytes int64

// Common byte quantities.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// Config captures the hardware parameters of one accelerator core. A
// Config is a plain value describing one machine: no field is derived
// later. The zero value is not usable; start from a preset
// (PaperConfig, TPUv2Config) or fill every field. Compile and the
// simulator check it with Validate.
type Config struct {
	// PEDim is the height and width of each square PE array
	// (Table I: 128).
	PEDim int

	// NumArrays is the number of PE arrays in the core (Table I: 16).
	NumArrays int

	// FreqHz is the core clock frequency in hertz (Table I: 1 GHz).
	FreqHz int64

	// MemBandwidth is the sustained HBM bandwidth available for weight
	// traffic, in bytes per second (Table I: 450 GB/s).
	MemBandwidth int64

	// WeightSRAM is the capacity of the on-chip buffer used to stage
	// prefetched weights (Table I: 1 MB).
	WeightSRAM Bytes

	// IOSRAM is the capacity of the on-chip buffers holding input and
	// output features (Table I: 18 MB). The simulator treats it as a
	// constraint on feature residency, not a scheduled resource.
	IOSRAM Bytes

	// WeightBytes is the storage size of one weight element. The paper
	// evaluates 8-bit integer inference (1 byte).
	WeightBytes int

	// HostBandwidth is the PCIe bandwidth, in bytes per second, used to
	// move input and output features between host and accelerator.
	// Fig 15 attributes the speedup reduction at large batch sizes to
	// this link becoming dominant.
	HostBandwidth int64

	// FillLatency is the pipeline fill time of one PE array: cycles from
	// the first input injected until the first output emerges. It must
	// be positive; the presets set 2*PEDim (a diagonal wavefront must
	// traverse the array twice: once down the rows, once across the
	// columns).
	FillLatency Cycles
}

// PaperConfig returns the hardware configuration of Table I:
// 16 PE arrays of 128x128 MACs at 1 GHz, 450 GB/s HBM, 1 MB weight
// SRAM, 18 MB input/output SRAM, 8-bit weights, 16 GB/s host link,
// and a 2*PEDim = 256-cycle array fill.
func PaperConfig() Config {
	return Config{
		PEDim:         128,
		NumArrays:     16,
		FreqHz:        1_000_000_000,
		MemBandwidth:  450_000_000_000,
		WeightSRAM:    1 * MiB,
		IOSRAM:        18 * MiB,
		WeightBytes:   1,
		HostBandwidth: 16_000_000_000,
		FillLatency:   2 * 128,
	}
}

// TPUv2Config returns the unscaled baseline the paper starts from
// (§II-B): two 128x128 PE arrays per core with 16-bit weights and
// 300 GB/s HBM. The paper scales this to PaperConfig for server-scale
// 8-bit inference.
func TPUv2Config() Config {
	return Config{
		PEDim:         128,
		NumArrays:     2,
		FreqHz:        1_000_000_000,
		MemBandwidth:  300_000_000_000,
		WeightSRAM:    1 * MiB,
		IOSRAM:        18 * MiB,
		WeightBytes:   2,
		HostBandwidth: 16_000_000_000,
		FillLatency:   2 * 128,
	}
}

// Validation errors.
var (
	ErrBadPEDim     = errors.New("arch: PEDim must be positive")
	ErrBadArrays    = errors.New("arch: NumArrays must be positive")
	ErrBadFreq      = errors.New("arch: FreqHz must be positive")
	ErrBadBandwidth = errors.New("arch: MemBandwidth must be positive")
	ErrBadSRAM      = errors.New("arch: WeightSRAM must hold at least one weight block")
	ErrBadWeight    = errors.New("arch: WeightBytes must be positive")
	ErrBadHostLink  = errors.New("arch: HostBandwidth must be zero (instant) or at least one byte per cycle")
	ErrBadFill      = errors.New("arch: FillLatency must be positive")
)

// Validate returns the first problem with the configuration: a field
// the cycle arithmetic would divide by zero with (a non-positive PEDim,
// NumArrays, FreqHz or WeightBytes, or an HBM or set host link below
// one byte per cycle), a non-positive FillLatency, or a weight SRAM
// that cannot hold one weight block. It never changes the config.
func (c Config) Validate() error {
	if c.PEDim <= 0 {
		return ErrBadPEDim
	}
	if c.NumArrays <= 0 {
		return ErrBadArrays
	}
	if c.FreqHz <= 0 {
		return ErrBadFreq
	}
	if c.MemBandwidth <= 0 {
		return ErrBadBandwidth
	}
	if c.BytesPerCycle() < 1 {
		return fmt.Errorf("%w: %d B/s at %d Hz is below one byte per cycle", ErrBadBandwidth, c.MemBandwidth, c.FreqHz)
	}
	if c.WeightBytes <= 0 {
		return ErrBadWeight
	}
	if c.HostBandwidth > 0 && c.HostBytesPerCycle() < 1 {
		return fmt.Errorf("%w: %d B/s at %d Hz", ErrBadHostLink, c.HostBandwidth, c.FreqHz)
	}
	if c.FillLatency <= 0 {
		return fmt.Errorf("%w: have %d", ErrBadFill, c.FillLatency)
	}
	if c.WeightSRAM < c.BlockBytes() {
		return fmt.Errorf("%w: have %d, need >= %d", ErrBadSRAM, c.WeightSRAM, c.BlockBytes())
	}
	return nil
}

// BytesPerCycle is the HBM bandwidth expressed per core cycle.
func (c Config) BytesPerCycle() float64 {
	return float64(c.MemBandwidth) / float64(c.FreqHz)
}

// HostBytesPerCycle is the PCIe bandwidth expressed per core cycle.
// It returns 0 when no host link is configured (infinite bandwidth).
func (c Config) HostBytesPerCycle() float64 {
	if c.HostBandwidth <= 0 {
		return 0
	}
	return float64(c.HostBandwidth) / float64(c.FreqHz)
}

// BlockBytes is the weight footprint of a fully loaded PE array —
// the unit of SRAM allocation ("weight block") and the payload of a
// CONV memory block: PEDim^2 weights.
func (c Config) BlockBytes() Bytes {
	return Bytes(c.PEDim) * Bytes(c.PEDim) * Bytes(c.WeightBytes)
}

// ReadCyclesPerArray is the paper's read_cyc_per_array: the cycles
// needed to stream one PE array's weight block from HBM into SRAM at
// full bandwidth. It is always at least 1.
func (c Config) ReadCyclesPerArray() Cycles {
	cyc := Cycles(ceilDiv(int64(c.BlockBytes()), int64(c.BytesPerCycle())))
	if cyc < 1 {
		cyc = 1
	}
	return cyc
}

// WeightBlocks is the number of whole weight blocks that fit in the
// weight SRAM; this bounds how many CONV MBs can be resident at once.
func (c Config) WeightBlocks() int {
	return int(c.WeightSRAM / c.BlockBytes())
}

// TotalColumns is the number of PE columns across all arrays: the
// number of FC filters the core can hold simultaneously.
func (c Config) TotalColumns() int {
	return c.PEDim * c.NumArrays
}

// MemCycles converts a byte count into cycles of HBM occupancy at full
// bandwidth, rounding up and never returning less than 1 for a
// positive transfer.
func (c Config) MemCycles(n Bytes) Cycles {
	if n <= 0 {
		return 0
	}
	bpc := c.BytesPerCycle()
	cyc := Cycles(ceilDiv(int64(n), int64(bpc)))
	if cyc < 1 {
		cyc = 1
	}
	return cyc
}

// HostCycles converts a byte count into cycles of PCIe occupancy. A
// zero-bandwidth (unconfigured) host link transfers instantly.
func (c Config) HostCycles(n Bytes) Cycles {
	if n <= 0 || c.HostBandwidth <= 0 {
		return 0
	}
	cyc := Cycles(ceilDiv(int64(n), int64(c.HostBytesPerCycle())))
	if cyc < 1 {
		cyc = 1
	}
	return cyc
}

// String renders the configuration in the style of Table I.
func (c Config) String() string {
	return fmt.Sprintf(
		"PE %dx%d x%d arrays, %.1f GHz, HBM %.0f GB/s, weight SRAM %s, I/O SRAM %s",
		c.PEDim, c.PEDim, c.NumArrays,
		float64(c.FreqHz)/1e9, float64(c.MemBandwidth)/1e9,
		FormatBytes(c.WeightSRAM), FormatBytes(c.IOSRAM),
	)
}

// FormatBytes renders a byte count using binary units (KiB/MiB/GiB).
func FormatBytes(n Bytes) string {
	switch {
	case n >= GiB && n%GiB == 0:
		return fmt.Sprintf("%d GiB", n/GiB)
	case n >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(GiB))
	case n >= MiB && n%MiB == 0:
		return fmt.Sprintf("%d MiB", n/MiB)
	case n >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(MiB))
	case n >= KiB && n%KiB == 0:
		return fmt.Sprintf("%d KiB", n/KiB)
	case n >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("arch: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}
