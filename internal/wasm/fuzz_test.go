package wasm_test

import (
	"bytes"
	"testing"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/workloads"
)

// FuzzDecodeValidate: Decode and Validate never panic on any input, and an
// input that decodes to a valid module round-trips: its encoding decodes to
// a valid module that encodes to the same bytes. Seeded with the encoding of
// every workload module.
func FuzzDecodeValidate(f *testing.F) {
	for _, name := range workloads.Names() {
		bin, err := workloads.Binary(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := wasm.Decode(in)
		if err != nil || wasm.Validate(m) != nil {
			return
		}
		enc := wasm.Encode(m)
		m2, err := wasm.Decode(enc)
		if err != nil {
			t.Fatalf("decoding the encoding of a valid module: %v", err)
		}
		if err := wasm.Validate(m2); err != nil {
			t.Fatalf("the encoding of a valid module does not validate: %v", err)
		}
		if enc2 := wasm.Encode(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}
