package main

// cpuRelax executes PAUSE, the spin-wait hint that keeps a busy loop
// from starving a hyperthread sibling.
func cpuRelax()
