package main

import (
	"bufio"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the provenance block written beside every result, so a
// number can be traced to the machine and commit that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if c := os.Getenv("BENCH_GIT_COMMIT"); c != "" {
		h.GitCommit = c
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

// The calibration kernel checksums 64 MiB as sixteen passes over a 4 MiB
// buffer: the same bytes of CRC work as one 64 MiB pass, without a
// 64 MiB allocation that would set the process's peak RSS on the
// workloads that hold little state.
const (
	calibrationBytes  = 64 << 20
	calibrationPasses = 16
	calibrationReps   = 7
)

// calibrationBuf is filled once; the kernel reads it and writes nothing.
var calibrationBuf []byte

// calibrate runs the calibration kernel — CRC-32 over 64 MiB — and
// returns its throughput in MB/s. It is timed before and after each
// workload: the pair tells a reader how much the host itself moved
// during the run, and the absolute value lets numbers from two hosts be
// normalised.
func calibrate() float64 {
	if calibrationBuf == nil {
		calibrationBuf = make([]byte, calibrationBytes/calibrationPasses)
		x := uint32(2463534242)
		for i := range calibrationBuf {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			calibrationBuf[i] = byte(x)
		}
	}
	// One 64 MiB kernel takes a few milliseconds, short enough for a
	// single scheduling hiccup to halve it; the reading is the median of
	// calibrationReps kernels.
	reps := make([]float64, 0, calibrationReps)
	for r := 0; r < calibrationReps; r++ {
		start := time.Now()
		var sum uint32
		for i := 0; i < calibrationPasses; i++ {
			sum = crc32.Update(sum, crc32.IEEETable, calibrationBuf)
		}
		if el := time.Since(start); sum != 0 && el > 0 {
			reps = append(reps, float64(calibrationBytes)/1e6/el.Seconds())
		}
	}
	return median(reps)
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

// peakRSSMB returns the process's resident-set high-water mark in MB
// (getrusage's Maxrss, which Linux reports in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
