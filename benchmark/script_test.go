package main

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wat"
	wl "wasmcontainers/internal/workloads"
)

func TestSameSeedSameScript(t *testing.T) {
	a, b, c := newScript(7), newScript(7), newScript(8)
	differs := false
	for i := 0; i < 2*scriptCycle; i++ {
		if !bytes.Equal(a.payload(i), b.payload(i)) {
			t.Fatalf("seed 7 twice: request %d differs", i)
		}
		if n := len(a.payload(i)); n < minPayload || n > maxPayload {
			t.Fatalf("request %d is %d bytes, outside %d..%d", i, n, minPayload, maxPayload)
		}
		differs = differs || !bytes.Equal(a.payload(i), c.payload(i))
	}
	if !differs {
		t.Error("seeds 7 and 8 send the same requests")
	}
	for i := 0; i < 100; i++ {
		if a.variant('r', i) != b.variant('r', i) {
			t.Fatalf("seed 7 twice: variant %d differs", i)
		}
	}
}

func TestVariantsAreValidDistinctAndSeeded(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range []int64{0, 1, 2, -5, 1 << 40} {
		sc := newScript(seed)
		for _, lane := range []byte{'w', 'r', 'a'} {
			for _, i := range []int{0, 1, 35, 36, 600000} {
				name := sc.variant(lane, i)
				suffix := strings.TrimPrefix(name, wl.HandlerVariantPrefix)
				if len(suffix) < 1 || len(suffix) > 16 {
					t.Fatalf("%s: suffix of %d characters", name, len(suffix))
				}
				if seen[name] {
					t.Fatalf("%s named twice", name)
				}
				seen[name] = true
			}
		}
	}
	// Different seed, different digest; same seed, same digest.
	digest := func(seed int64) [32]byte {
		bin, err := wl.Binary(newScript(seed).variant('t', 0))
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(bin)
	}
	if digest(1) == digest(2) {
		t.Error("seeds 1 and 2 deploy modules with the same digest")
	}
	if digest(1) != digest(1) {
		t.Error("seed 1 twice deploys different digests")
	}
}

func TestVariantSourceMatchesWorkloads(t *testing.T) {
	name := newScript(3).variant('t', 1)
	want, err := wl.Binary(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wat.Compile(variantSource(name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wasm.Encode(m), want) {
		t.Error("variantSource does not reproduce the module internal/workloads synthesizes")
	}
}
