package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the lower quartile, median and upper quartile of
// xs by nearest rank.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, pm := range []int{250, 500, 750} {
		q[i] = s[max(nearestRank(pm, len(s)), 1)-1]
	}
	return q
}

// tailLadder lists the percentiles op_tail_ms may report, in tenths
// of a percent, highest first. It stops at p99: past it the tail is
// set by one op, or by host scheduler stalls, rather than by the
// mapper's spread of op costs.
var tailLadder = []int{990, 950, 900, 850, 750, 500}

// tail is one percentile of the op times, by nearest rank.
type tail struct {
	pct    float64
	value  float64
	n      int // samples in the distribution
	beyond int // samples strictly above the percentile's rank
}

// nearestRank is the 1-based nearest rank of percentile pm (tenths of
// a percent) among n samples.
func nearestRank(pm, n int) int { return (pm*n + 999) / 1000 }

// tailOf returns percentile pm of xs, or, when fewer than ten samples
// lie beyond it, the highest lower ladder percentile that has ten
// (the median when none has).
func tailOf(xs []float64, pm int) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	pick := 500
	for _, p := range tailLadder {
		if p <= pm && n-nearestRank(p, n) >= 10 {
			pick = p
			break
		}
	}
	rank := nearestRank(pick, n)
	return tail{pct: float64(pick) / 10, value: s[rank-1], n: n, beyond: n - rank}
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuTime returns the process's CPU time, user plus system over all
// threads (garbage collection and helper goroutines too), with
// nanosecond resolution: getrusage reports microseconds, too coarse for
// a cache hit.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// The clock exists on every Linux the toolchain supports.
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
