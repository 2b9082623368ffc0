//go:build !amd64

package main

// cpuRelax is a plain busy-loop step where no spin-wait hint exists.
func cpuRelax() {}
