package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

type cpuMask [maxCPUs / 64]uint64

func allowedCPUs() []int {
	var m cpuMask
	if _, _, en := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0]))); en != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < maxCPUs; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pinSelf restricts every thread of this process (and so every thread it
// starts later) to cpus and sizes GOMAXPROCS to match. Where the sandbox
// forbids it the process runs unpinned; the run's notes say which.
func pinSelf(cpus []int) error {
	if len(cpus) == 0 {
		return syscall.EINVAL
	}
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, en := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0]))); en != 0 && en != syscall.ESRCH {
			return en
		}
	}
	runtime.GOMAXPROCS(len(cpus))
	return nil
}

// selfCPU is this process's user + system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
