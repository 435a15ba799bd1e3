package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// dist summarizes the samples of one metric: Value is the median.
type dist struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(unit string, xs []float64) dist {
	if len(xs) == 0 {
		return dist{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{Unit: unit, Value: quantile(s, 0.5), Q1: quantile(s, 0.25),
		Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostInfo identifies where and on what a result was measured.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is read from .git by hand: the benchmark starts no git
	// process, and a checkout without .git reports "unknown".
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if buf, err := os.ReadFile(".git/" + name); err == nil {
				ref = strings.TrimSpace(string(buf))
			}
		}
		h.Commit = ref
	}
	return h
}

// resetHWM restarts this process's peak-resident-set mark, so that each
// rep reports its own peak. Where the kernel refuses, the mark keeps
// rising and later reps report the peak so far.
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// vmHWM reads a process's peak resident set in MiB from /proc.
func vmHWM(pid string) float64 {
	kb, _ := statusField(pid, "VmHWM")
	return float64(kb) / 1024
}

func statusField(pid, key string) (int64, bool) {
	buf, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			f := strings.Fields(v)
			if len(f) == 0 {
				return 0, false
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// childrenHWM sums the peak resident set of this process's live children
// (the served simulator subprocess; finished toolchain processes are gone).
func childrenHWM() float64 {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	self := int64(os.Getpid())
	var total float64
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		if ppid, ok := statusField(e.Name(), "PPid"); ok && ppid == self {
			total += vmHWM(e.Name())
		}
	}
	return total
}
