package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint every report carries, so that numbers from
// different machines, or from a busy machine, are not compared by mistake.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CPUModel   string  `json:"cpu_model"`
	Clients    int     `json:"clients"`
	LoadStart  float64 `json:"loadavg_1m_start"`
	LoadEnd    float64 `json:"loadavg_1m_end"`
	// NoisyHost is set when the machine was already busy before the run
	// began: treat a slow result as suspect, not as a regression.
	NoisyHost bool `json:"noisy_host"`
}

func hostFingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		CPUModel:   cpuModel(),
		Clients:    drainWorkers(),
		LoadStart:  loadAverage(),
	}
	h.NoisyHost = h.LoadStart > float64(h.NumCPU)/2
	return h
}

func (h *host) finish() { h.LoadEnd = loadAverage() }

func (h host) print(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d clients=%d go=%s commit=%s cpu=%q loadavg_1m=%.2f..%.2f noisy_host=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.Clients, h.GoVersion, h.Commit, h.CPUModel, h.LoadStart, h.LoadEnd, h.NoisyHost)
}

// loadAverage is the 1-minute load average, or -1 where the host has none to
// read.
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git for the checked-out revision; a checkout that is not a
// repository has none.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// The host this benchmark was built on changes speed under it: the same
// arithmetic loop takes anywhere from 0.15 s to 0.38 s there, for seconds at
// a time, in CPU time as much as in wall time (so it is not steal). No
// median over epochs survives that. Every timed interval is therefore
// bracketed by two runs of a yardstick, a fixed amount of work of the three
// kinds the program does (arithmetic, cache-missing reads, allocation), and
// timing metrics are reported at yardRef speed: a time is multiplied, a rate
// divided, by yardRef over the yardstick's own duration. The raw values are
// in report.json beside them.

// yardRef is the yardstick's duration, in seconds, at the speed the build
// host runs at most of the time.
const yardRef = 0.022

var yardMem = make([]uint64, 1<<21) // 16 MiB, larger than the cache

// yardstick does its fixed work sz.yardPasses times (seven: one pass alone
// is as noisy as what it is to correct) and returns the median of the
// seconds each took. With no passes it reads yardRef, which leaves every
// metric as measured.
func yardstick() float64 {
	if sz.yardPasses == 0 {
		return yardRef
	}
	ys := make([]float64, sz.yardPasses)
	for i := range ys {
		ys[i] = yardstickOnce()
	}
	return median(ys)
}

func yardstickOnce() float64 {
	t0 := time.Now()
	x := 1.0
	for i := 0; i < 8_000_000; i++ {
		x = x*1.0000001 + 0.0000001
	}
	j := uint64(x) // 0 or more; keeps the loop above alive
	for i := 0; i < 150_000; i++ {
		j = (j*6364136223846793005 + 1442695040888963407) % uint64(len(yardMem))
		yardMem[j] += j
	}
	m := make(map[uint64]uint64, 1024)
	for i := uint64(0); i < 40_000; i++ {
		m[i*2654435761%100_003] = i
	}
	yardMem[0] += uint64(len(m))
	return time.Since(t0).Seconds()
}

// hostSpeed is how fast the host is running relative to yardRef, from the
// yardstick runs on either side of an interval.
func hostSpeed(before, after float64) float64 { return yardRef / ((before + after) / 2) }
