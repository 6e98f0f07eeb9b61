package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// canaryMBs runs the single-thread SHA-256 canary once and returns its
// throughput. It shares nothing with the system under test, so its drift
// is the host's drift. The input is big enough that a pass takes tens of
// milliseconds and transient, so it does not sit in the peak RSS.
func canaryMBs() float64 {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i) // fault the pages in before the clock starts
	}
	start := time.Now()
	sha256.Sum256(buf)
	return float64(len(buf)) / 1e6 / time.Since(start).Seconds()
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB reads VmHWM, the process's peak resident set, from /proc.
func rssPeakMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostInfo is the envelope's host block.
type hostInfo struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CanaryMBs  float64 `json:"canary_mb_s"`
}

func newHostInfo(canary float64) hostInfo {
	return hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CanaryMBs:  canary,
	}
}

// summary is a metric's distribution over repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of vs (linear interpolation
// between order statistics, so n=1 and n=2 are well defined).
func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return summary{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(s)}
}

func median(vs []float64) float64 { return summarize(vs).Median }
