package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD: the calling OS thread only.
const rusageThread = 1

// threadCPU is the calling OS thread's CPU time. The caller must hold its
// goroutine on the thread (runtime.LockOSThread) for deltas to mean
// anything.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate line of /proc/stat: steal and total jiffies.
type cpuStat struct{ steal, total uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user/nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealMeter accumulates host steal over measured intervals.
type stealMeter struct {
	at         cpuStat
	steal, tot uint64
}

func (m *stealMeter) start() { m.at = readCPUStat() }

func (m *stealMeter) stop() {
	now := readCPUStat()
	m.steal += now.steal - m.at.steal
	m.tot += now.total - m.at.total
}

// share is the steal fraction of all CPU time over the measured intervals.
func (m *stealMeter) share() float64 {
	if m.tot == 0 {
		return 0
	}
	return float64(m.steal) / float64(m.tot)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
