package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Host time on a shared machine drifts by tens of percent between runs
// of identical code. Two measures keep gated host metrics steady. They
// count the process's CPU time, all threads together, rather than wall
// time, which leaves out the time other tenants hold the CPUs. And
// every timed section is preceded by a fixed reference kernel, so that
// host metrics can be reported as section time ÷ kernel time ×
// kernelRefSeconds: a slowdown that hits the kernel and the section
// alike, such as a lower clock or a shared cache, cancels. The kernel
// is part of the benchmark and must never change, or calibrated
// numbers from different commits stop being comparable.

// kernelRefSeconds is the nominal duration of one reference-kernel
// pass. It only scales calibrated times into seconds; it is fixed so
// that two commits measured on different days share one scale.
const kernelRefSeconds = 2e-3

// kernelIters sets the kernel length to about kernelRefSeconds of CPU
// time on a 2-vCPU x86-64 cloud instance.
const kernelIters = 1 << 18

// kernelTable is the kernel's working set: 256 KiB, small enough to
// live in L2, so the kernel mixes dependent loads with integer work the
// way the simulator's event loop does.
var kernelTable [1 << 15]uint64

// kernelSink keeps the kernel's result observable.
var kernelSink uint64

// referenceKernel runs one allocation-free pass of the reference kernel
// and returns the CPU time it took.
func referenceKernel() time.Duration {
	start := cpuTime()
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint64
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & (uint64(len(kernelTable)) - 1)
		acc += kernelTable[j] + x
		kernelTable[j] = acc
	}
	kernelSink += acc
	return cpuTime() - start
}

// cpuTime returns the CPU time the process has used so far, user and
// system, summed over its threads. Linux and macOS report it to the
// microsecond.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrated runs f after one reference-kernel pass and returns its
// calibrated CPU time in seconds.
func calibrated(f func()) float64 {
	k := referenceKernel()
	start := cpuTime()
	f()
	return (cpuTime() - start).Seconds() / k.Seconds() * kernelRefSeconds
}

// allocSample reads the process's cumulative heap object count.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapObjects returns the number of heap objects allocated so far.
func heapObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// quantile returns the q-quantile (0..1) of vals by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// lowerDecile is the statistic behind gated host times: units repeat
// identical work, so the spread above the fastest ones comes from the
// machine, not the code.
func lowerDecile(vals []float64) float64 { return quantile(vals, 0.1) }
