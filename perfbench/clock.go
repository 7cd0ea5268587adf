package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on virtual machines whose CPUs the hypervisor takes
// away for seconds at a time when other tenants are busy. That time is
// accounted as steal (the steal column of /proc/stat), and it slowed whole
// runs by up to 2× while it lasted, which no amount of repetition inside a
// run averages out. The benchmark therefore keeps stolen time out of its
// clocks: per-check latencies are the checking thread's CPU time, which
// the kernel's paravirtual time accounting already keeps free of steal, and
// campaign intervals are wall time minus the steal that fell in them.

// stolen is the CPU time the hypervisor has stolen from this machine so
// far, divided over its CPUs: the wall time that a process keeping every
// CPU busy lost to it. It is 0 where /proc/stat has no steal column.
func stolen() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	if i := bytes.IndexByte(raw, '\n'); i >= 0 {
		raw = raw[:i]
	}
	// cpu user nice system idle iowait irq softirq steal ...
	f := bytes.Fields(raw)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ticks) * tick / time.Duration(runtime.NumCPU())
}

// since is the wall time since t0, less the steal since steal0 (a reading
// of stolen taken with t0).
func since(t0 time.Time, steal0 time.Duration) time.Duration {
	return time.Since(t0) - (stolen() - steal0)
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU is the calling OS thread's CPU time; callers lock their
// goroutine to its thread (runtime.LockOSThread) around the interval.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
