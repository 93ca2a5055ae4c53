package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"wasmcontainers/internal/gateway"
)

// TestFunctionFlags pins the flag → function-config step: every -modules
// entry and the -lazy template are copies of one shape built from the
// function flags. With -modules "" the lazy template used to fall back to
// gateway.DefaultFunction, so lazy functions ignored -profile, -pool and the
// dispatcher flags.
func TestFunctionFlags(t *testing.T) {
	// A shape is a FunctionConfig without its Module: the lazy template's
	// Module is overwritten per request.
	shape := func(edit func(*gateway.FunctionConfig)) gateway.FunctionConfig {
		fc := gateway.DefaultFunction()
		fc.Module = ""
		// The flags' defaults.
		fc.PoolSize, fc.MaxConcurrency, fc.QueueDepth, fc.QueueDeadline = 4, 4, 64, time.Second
		fc.MaxRetries, fc.RequestTimeout = 0, 0
		edit(&fc)
		return fc
	}
	cases := []struct {
		name    string
		args    []string
		modules []string
		tmpl    *gateway.FunctionConfig // nil: no lazy template
	}{
		{"defaults", nil, []string{"request-handler"}, nil},
		{"lazy without modules keeps the flags",
			[]string{"-lazy", "-modules", "", "-profile", "wasmtime", "-pool", "8"},
			nil, ptr(shape(func(fc *gateway.FunctionConfig) { fc.Profile, fc.PoolSize = "wasmtime", 8 }))},
		{"lazy without modules keeps the dispatcher flags",
			[]string{"-lazy", "-modules", " , ", "-concurrency", "2", "-queue-depth", "3",
				"-queue-deadline", "5ms", "-retries", "2", "-request-timeout", "7ms"},
			nil, ptr(shape(func(fc *gateway.FunctionConfig) {
				fc.MaxConcurrency, fc.QueueDepth, fc.QueueDeadline = 2, 3, 5*time.Millisecond
				fc.MaxRetries, fc.RequestTimeout = 2, 7*time.Millisecond
			}))},
		{"modules and lazy share one shape",
			[]string{"-lazy", "-modules", "cpu-bound, request-handler", "-profile", "wasmer", "-pool", "0"},
			[]string{"cpu-bound", "request-handler"},
			ptr(shape(func(fc *gateway.FunctionConfig) { fc.Profile, fc.PoolSize = "wasmer", 0 }))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("continuumd", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			build := functionFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			fns, tmpl := build()
			if tmpl != nil {
				tmpl.Module = ""
			}
			if !reflect.DeepEqual(tmpl, tc.tmpl) {
				t.Fatalf("lazy template = %+v, want %+v", tmpl, tc.tmpl)
			}
			if len(fns) != len(tc.modules) {
				t.Fatalf("%d functions, want %v", len(fns), tc.modules)
			}
			want := shape(func(*gateway.FunctionConfig) {})
			if tc.tmpl != nil {
				want = *tc.tmpl
			}
			for i, fc := range fns {
				want.Module = tc.modules[i]
				if fc != want {
					t.Errorf("function %d = %+v, want %+v", i, fc, want)
				}
			}
		})
	}
}

func ptr(fc gateway.FunctionConfig) *gateway.FunctionConfig { return &fc }
