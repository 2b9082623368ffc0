package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Keeping the CPUs out of idle during the open-loop HTTP runs. The
// benchmark runs in a virtual machine whose idle vCPUs halt, and waking
// a halted vCPU costs a trip through the hypervisor's scheduler. On a
// busy host that trip grows, and every login request pays several of
// them (request to the server, reply to the generator), so latency
// tracked the host's load rather than the program. One spinner per CPU
// at SCHED_IDLE keeps each vCPU running; it runs only when no other
// thread wants its CPU, and a waking thread preempts it at once. It is
// the user-space analogue of booting a latency benchmark with
// idle=poll. Closed-loop runs keep their CPUs busy without it.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinMain is the spinner child. It inherits its CPU from the thread
// that starts it, drops to SCHED_IDLE and spins until it is killed.
func spinMain() error {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var param [1]int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param[0]))); errno != 0 {
		return errno
	}
	for {
		cpuRelax()
	}
}

// startSpinners starts one spinner on each CPU of a pinned run.
func startSpinners(pin *pinning) ([]*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []*child
	for _, cpu := range append(append([]int(nil), pin.gen...), pin.srv...) {
		cmd := exec.Command(exe, "spin")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err := startPinned([]int{cpu}, pin.gen, cmd.Start)
		if cmd.Process != nil {
			out = append(out, track(cmd))
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
