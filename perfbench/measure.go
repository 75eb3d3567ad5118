package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (0 for no samples). xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond reports how many samples lie strictly above the q-quantile
// rank, the count the run length has to keep at ten or more.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// cpuTime is the process's user+sys CPU time, to the nanosecond
// (CLOCK_PROCESS_CPUTIME_ID). Time the host takes away from the
// process, by other tenants or by the hypervisor, does not count in it,
// which is why the gated timings are CPU times: on a shared host they
// repeat where wall-clock times do not.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// runtimeSample is the process state read at each edge of a timed
// window.
type runtimeSample struct {
	wall      time.Time
	cpu       time.Duration
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds, as the runtime accounts it
	allocs    uint64  // heap bytes allocated
	pauseNano uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		wall:      time.Now(),
		cpu:       cpuTime(),
		gcCPU:     s[0].Value.Float64(),
		totalCPU:  s[1].Value.Float64(),
		allocs:    s[2].Value.Uint64(),
		pauseNano: ms.PauseTotalNs,
	}
}

// liveHeapMB collects until the live heap stops shrinking (finalizers
// release epoch backings a cycle after they die), at most five times,
// and reports what stays live.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	last := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= last {
			break
		}
		last = ms.HeapAlloc
	}
	return float64(ms.HeapAlloc) / (1 << 20)
}

// drainHeap runs the collector twice so the set-up's garbage, including
// finalizer-released epoch backings, is gone before timing starts.
func drainHeap() {
	runtime.GC()
	runtime.GC()
}

// stopwatch marks the start of one timed operation.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// latencies collects one operation type's client-observed latencies in
// milliseconds: wall-clock, and the process CPU time spent meanwhile.
type latencies struct{ wall, cpu []float64 }

func (l *latencies) add(sw stopwatch) {
	cpu := cpuTime()
	l.wall = append(l.wall, ms(time.Since(sw.wall)))
	l.cpu = append(l.cpu, ms(cpu-sw.cpu))
}

func (l *latencies) len() int { return len(l.wall) }
