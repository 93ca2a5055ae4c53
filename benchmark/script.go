package main

import (
	"math/rand"
	"strconv"

	wl "wasmcontainers/internal/workloads"
)

// A script is everything a run sends, derived from the seed alone: the
// program under test receives only these inputs.
type script struct {
	seed int64
	// body holds the payload bytes; request i sends body[:lens[i%len(lens)]].
	body []byte
	lens []int
}

const (
	minPayload  = 16
	maxPayload  = 1024
	scriptCycle = 4096
)

func newScript(seed int64) *script {
	rng := rand.New(rand.NewSource(seed))
	s := &script{seed: seed, body: make([]byte, maxPayload), lens: make([]int, scriptCycle)}
	rng.Read(s.body)
	for i := range s.lens {
		s.lens[i] = minPayload + rng.Intn(maxPayload-minPayload+1)
	}
	return s
}

// payload is the body of request i.
func (s *script) payload(i int) []byte { return s.body[:s.lens[i%len(s.lens)]] }

// variant names the i-th never-seen handler module of a lane. The seed is
// part of the suffix — which the variant embeds as a data segment — so two
// seeds deploy modules with different digests. Lanes keep the uses inside one
// process apart (set-up, timed run, each traced rung), because a name seen
// once is cached by internal/workloads for the life of the process.
func (s *script) variant(lane byte, i int) string {
	const seedSpace = 36 * 36 * 36 * 36 * 36 * 36 // six base-36 digits
	tag := strconv.FormatInt(((s.seed%seedSpace)+seedSpace)%seedSpace, 36)
	return wl.HandlerVariantPrefix + "s" + tag + "-" + string(lane) + strconv.FormatInt(int64(i), 36)
}
