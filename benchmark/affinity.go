package main

import (
	"strconv"
	"strings"
)

// The HTTP workloads split the machine: the load generator keeps the lower
// half of the processors, the serve child the upper half, each with
// GOMAXPROCS to match, so client and server threads together stay within
// nproc and neither migrates onto the other. On a two-core box unpinned runs
// were bimodal (p50 100 us when the kernel co-located the two processes, 200 us
// when it did not); pinned, they are not. Pinning, and the process's own CPU
// time, are Linux system calls (affinity_linux.go); elsewhere the benchmark
// builds and runs unpinned, without cpu_us_per_op.

const maxCPUs = 1024

// allCPUs is the processor set this process started with; clientCPUs and
// serverCPUs are its two halves. With one processor both halves are that one.
var (
	allCPUs                = allowedCPUs()
	clientCPUs, serverCPUs = splitCPUs(allCPUs)
)

func splitCPUs(cpus []int) (client, server []int) {
	if len(cpus) < 2 {
		return cpus, cpus
	}
	return cpus[:len(cpus)/2], cpus[len(cpus)/2:]
}

// serverCPUsEnv carries the server's half to the serve child.
const serverCPUsEnv = "BENCHMARK_SERVER_CPUS"

func formatCPUs(cpus []int) string {
	parts := make([]string, len(cpus))
	for i, c := range cpus {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

func parseCPUs(s string) []int {
	var cpus []int
	for _, f := range strings.Split(s, ",") {
		if c, err := strconv.Atoi(f); err == nil && c >= 0 && c < maxCPUs {
			cpus = append(cpus, c)
		}
	}
	return cpus
}
