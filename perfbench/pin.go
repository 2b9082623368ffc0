package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// CPU pinning for the serving workloads: the server gets the last CPU
// and the generator the others, so neither preempts the other and the
// generator's CPU use stops confounding the server's latency. Off on a
// one-CPU box.

// pinning is the CPU split of a serving run.
type pinning struct{ gen, srv []int }

// pinGenerator pins this process to all CPUs but the last and returns
// the split, or nil on a one-CPU box.
func pinGenerator() (*pinning, error) {
	n := runtime.NumCPU()
	if n < 2 {
		return nil, nil
	}
	p := &pinning{srv: []int{n - 1}}
	for c := 0; c < n-1; c++ {
		p.gen = append(p.gen, c)
	}
	return p, pinSelf(p.gen)
}

// setAffinity pins one thread (0 = the calling thread).
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinSelf pins every thread of this process; threads created later
// inherit the mask of the thread that creates them.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpus); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startPinned runs start on a thread temporarily pinned to cpus, so the
// process it forks inherits that mask, and then restores the thread to
// restore.
func startPinned(cpus, restore []int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, restore); err == nil {
		err = rerr
	}
	return err
}

// cpuJiffies returns the box's cumulative CPU jiffies from /proc/stat:
// all of them, and those the hypervisor stole from this VM.
func cpuJiffies() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}
