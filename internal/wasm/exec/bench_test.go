package exec

import (
	"testing"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wat"
	"wasmcontainers/internal/workloads"
)

// Benchmark workloads for the interpreter hot loop. Each module is small and
// self-contained so the benchmarks measure dispatch, frame setup, and memory
// access rather than module loading.

// benchFibWAT is the classic recursive fib: call-heavy, exercises frame
// setup/teardown and the OpCall result path.
const benchFibWAT = `
(module
  (func $fib (export "fib") (param $n i32) (result i32)
    local.get $n
    i32.const 2
    i32.lt_s
    if (result i32)
      local.get $n
    else
      local.get $n
      i32.const 1
      i32.sub
      call $fib
      local.get $n
      i32.const 2
      i32.sub
      call $fib
      i32.add
    end))
`

// benchLoopWAT is a tight arithmetic loop: exercises branch dispatch, local
// access, and the const+add / cmp+br_if superinstruction patterns.
const benchLoopWAT = `
(module
  (func (export "spin") (param $n i32) (result i32) (local $i i32) (local $acc i32)
    block $done
      loop $l
        local.get $i
        local.get $n
        i32.ge_u
        br_if $done
        local.get $acc
        local.get $i
        i32.add
        local.set $acc
        local.get $i
        i32.const 1
        i32.add
        local.set $i
        br $l
      end
    end
    local.get $acc))
`

// benchMemWAT churns linear memory with load/store pairs across a 4 KiB
// window: exercises the bounds-checked memory fast path.
const benchMemWAT = `
(module
  (memory 1)
  (func (export "churn") (param $n i32) (result i32) (local $i i32) (local $acc i32)
    block $done
      loop $l
        local.get $i
        local.get $n
        i32.ge_u
        br_if $done
        ;; mem[(i*4) & 0xfff] = i
        local.get $i
        i32.const 4
        i32.mul
        i32.const 4095
        i32.and
        local.get $i
        i32.store
        ;; acc += mem[(i*4) & 0xfff]
        local.get $i
        i32.const 4
        i32.mul
        i32.const 4095
        i32.and
        i32.load
        local.get $acc
        i32.add
        local.set $acc
        local.get $i
        i32.const 1
        i32.add
        local.set $i
        br $l
      end
    end
    local.get $acc))
`

// benchIndirectWAT dispatches through a function table: exercises the
// call_indirect type check and table lookup.
const benchIndirectWAT = `
(module
  (type $op (func (param i32) (result i32)))
  (table 2 funcref)
  (elem (i32.const 0) $inc $dbl)
  (func $inc (type $op) local.get 0 i32.const 1 i32.add)
  (func $dbl (type $op) local.get 0 i32.const 2 i32.mul)
  (func (export "dispatch") (param $n i32) (result i32) (local $i i32) (local $acc i32)
    block $done
      loop $l
        local.get $i
        local.get $n
        i32.ge_u
        br_if $done
        local.get $acc
        local.get $i
        i32.const 1
        i32.and
        call_indirect (type $op)
        local.set $acc
        local.get $i
        i32.const 1
        i32.add
        local.set $i
        br $l
      end
    end
    local.get $acc))
`

func benchInstance(b *testing.B, src string) *Instance {
	b.Helper()
	m, err := wat.Compile(src)
	if err != nil {
		b.Fatalf("wat: %v", err)
	}
	s := NewStore(Config{})
	inst, err := s.Instantiate(m, "")
	if err != nil {
		b.Fatalf("instantiate: %v", err)
	}
	return inst
}

func BenchmarkInterpFib(b *testing.B) {
	inst := benchInstance(b, benchFibWAT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("fib", 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	inst := benchInstance(b, benchLoopWAT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("spin", 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpLoopFueled(b *testing.B) {
	m, err := wat.Compile(benchLoopWAT)
	if err != nil {
		b.Fatalf("wat: %v", err)
	}
	s := NewStore(Config{Fuel: 1 << 62})
	inst, err := s.Instantiate(m, "")
	if err != nil {
		b.Fatalf("instantiate: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("spin", 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpMemoryChurn(b *testing.B) {
	inst := benchInstance(b, benchMemWAT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("churn", 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpCallIndirect(b *testing.B) {
	inst := benchInstance(b, benchIndirectWAT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("dispatch", 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryGrowIncremental grows a memory one page at a time to 256
// pages per iteration: with capacity-headroom (amortized doubling)
// reallocation this is O(n) total copying, where the old
// reallocate-per-grow scheme was O(n²).
func BenchmarkMemoryGrowIncremental(b *testing.B) {
	t := wasm.MemoryType{Limits: wasm.Limits{Min: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMemory(t, 0)
		for m.Pages() < 256 {
			if m.Grow(1) < 0 {
				b.Fatal("grow failed")
			}
		}
	}
}

// --- tier micro-benchmarks --------------------------------------------------
//
// BenchmarkInvokeTier0/Tier1 pairs measure the same workload with the module
// pinned to one tier, so the ratio is the direct-threading speedup the
// tier-up policy buys once a function is hot.

func benchTierInstance(b *testing.B, src string, tier1 bool) *Instance {
	b.Helper()
	inst := benchInstance(b, src)
	if tier1 {
		tc, _ := inst.Code().EnsureTier1()
		if tc.Lowered() != len(tc.funcs) {
			b.Fatalf("lowered %d of %d functions", tc.Lowered(), len(tc.funcs))
		}
	}
	return inst
}

func benchTierCall(b *testing.B, src, name string, arg Value, tier1 bool) {
	inst := benchTierInstance(b, src, tier1)
	s := inst.Store()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call(name, arg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	want := 0
	if tier1 {
		want = 1
	}
	if s.LastInvokeTier() != want {
		b.Fatalf("served at tier %d, want %d", s.LastInvokeTier(), want)
	}
}

func BenchmarkInvokeTier0Fib(b *testing.B) { benchTierCall(b, benchFibWAT, "fib", I32(20), false) }
func BenchmarkInvokeTier1Fib(b *testing.B) { benchTierCall(b, benchFibWAT, "fib", I32(20), true) }
func BenchmarkInvokeTier0Loop(b *testing.B) {
	benchTierCall(b, benchLoopWAT, "spin", I32(100000), false)
}
func BenchmarkInvokeTier1Loop(b *testing.B) {
	benchTierCall(b, benchLoopWAT, "spin", I32(100000), true)
}
func BenchmarkInvokeTier0Churn(b *testing.B) {
	benchTierCall(b, benchMemWAT, "churn", I32(100000), false)
}
func BenchmarkInvokeTier1Churn(b *testing.B) {
	benchTierCall(b, benchMemWAT, "churn", I32(100000), true)
}

func BenchmarkInvokeTier0Indirect(b *testing.B) {
	benchTierCall(b, benchIndirectWAT, "dispatch", I32(100000), false)
}
func BenchmarkInvokeTier1Indirect(b *testing.B) {
	benchTierCall(b, benchIndirectWAT, "dispatch", I32(100000), true)
}

// The guest-compute kernel: count_primes(12000) on the cpu-bound module,
// trial division whose inner loop is two compare-and-if tests and an
// i32.rem_u per divisor.
func BenchmarkInvokeTier0Primes(b *testing.B) {
	benchTierCall(b, workloads.CPUBoundWAT, "count_primes", I32(12000), false)
}
func BenchmarkInvokeTier1Primes(b *testing.B) {
	benchTierCall(b, workloads.CPUBoundWAT, "count_primes", I32(12000), true)
}

// ledgerCRC32WAT is CRC-32 (reflected, polynomial 0xEDB88320) of n bytes it
// first writes itself: shifts, xor, and and rem_u by constants, and eqz;
// br_if.
const ledgerCRC32WAT = `
(module
  (memory 1)
  (func (export "crc32") (param $n i32) (result i32)
    (local $i i32) (local $crc i32) (local $k i32)
    block $filled
      loop $fill
        local.get $i
        local.get $n
        i32.ge_u
        br_if $filled
        local.get $i
        local.get $i
        i32.const 5
        i32.shl
        local.get $i
        i32.xor
        i32.const 251
        i32.rem_u
        i32.store8
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $fill
      end
    end
    (local.set $crc (i32.const -1))
    (local.set $i (i32.const 0))
    block $done
      loop $bytes
        local.get $i
        local.get $n
        i32.eq
        br_if $done
        (local.set $crc (i32.xor (local.get $crc) (i32.load8_u (local.get $i))))
        (local.set $k (i32.const 8))
        block $bitsdone
          loop $bits
            local.get $k
            i32.eqz
            br_if $bitsdone
            local.get $crc
            i32.const 1
            i32.and
            i32.eqz
            if
              local.get $crc
              i32.const 1
              i32.shr_u
              local.set $crc
            else
              local.get $crc
              i32.const 1
              i32.shr_u
              i32.const 0xEDB88320
              i32.xor
              local.set $crc
            end
            local.get $k
            i32.const 1
            i32.sub
            local.set $k
            br $bits
          end
        end
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $bytes
      end
    end
    local.get $crc
    i32.const -1
    i32.xor))
`

// ledgerSieveWAT counts the primes below n with a byte sieve: constant
// compares, br_if loops and stores.
const ledgerSieveWAT = `
(module
  (memory 1)
  (func (export "sieve") (param $n i32) (result i32)
    (local $i i32) (local $j i32) (local $count i32)
    block $cleared
      loop $clear
        local.get $i
        local.get $n
        i32.ge_u
        br_if $cleared
        local.get $i
        i32.const 0
        i32.store8
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $clear
      end
    end
    (local.set $i (i32.const 2))
    block $sieved
      loop $outer
        local.get $i
        local.get $i
        i32.mul
        local.get $n
        i32.ge_u
        br_if $sieved
        local.get $i
        i32.load8_u
        i32.const 0
        i32.eq
        if
          (local.set $j (i32.mul (local.get $i) (local.get $i)))
          block $marked
            loop $mark
              local.get $j
              local.get $n
              i32.ge_u
              br_if $marked
              local.get $j
              i32.const 1
              i32.store8
              (local.set $j (i32.add (local.get $j) (local.get $i)))
              br $mark
            end
          end
        end
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $outer
      end
    end
    (local.set $i (i32.const 2))
    block $counted
      loop $count
        local.get $i
        local.get $n
        i32.ge_u
        br_if $counted
        local.get $i
        i32.load8_u
        i32.const 1
        i32.lt_u
        if
          (local.set $count (i32.add (local.get $count) (i32.const 1)))
        end
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $count
      end
    end
    local.get $count))
`

// ledgerMatmulWAT multiplies two n×n i32 matrices it first fills itself (A
// at 0, B and C after it, row-major, so n ≤ 73 in one page) and returns the
// sum of C's elements: nested loops, i32 loads and stores.
const ledgerMatmulWAT = `
(module
  (memory 1)
  (func (export "matmul") (param $n i32) (result i32)
    (local $i i32) (local $j i32) (local $k i32) (local $nn i32)
    (local $b i32) (local $c i32) (local $acc i32) (local $sum i32)
    (local.set $nn (i32.mul (local.get $n) (local.get $n)))
    (local.set $b (i32.shl (local.get $nn) (i32.const 2)))
    (local.set $c (i32.shl (local.get $nn) (i32.const 3)))
    block $filled
      loop $fill
        local.get $i
        local.get $nn
        i32.ge_u
        br_if $filled
        (i32.store (i32.shl (local.get $i) (i32.const 2))
          (i32.add (i32.rem_u (local.get $i) (i32.const 7)) (i32.const 1)))
        (i32.store (i32.add (local.get $b) (i32.shl (local.get $i) (i32.const 2)))
          (i32.sub (i32.const 3) (i32.rem_u (local.get $i) (i32.const 5))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $fill
      end
    end
    (local.set $i (i32.const 0))
    block $rowsdone
      loop $rows
        local.get $i
        local.get $n
        i32.ge_u
        br_if $rowsdone
        (local.set $j (i32.const 0))
        block $colsdone
          loop $cols
            local.get $j
            local.get $n
            i32.ge_u
            br_if $colsdone
            (local.set $acc (i32.const 0))
            (local.set $k (i32.const 0))
            block $dotdone
              loop $dot
                local.get $k
                local.get $n
                i32.ge_u
                br_if $dotdone
                (local.set $acc (i32.add (local.get $acc)
                  (i32.mul
                    (i32.load (i32.shl (i32.add (i32.mul (local.get $i) (local.get $n)) (local.get $k)) (i32.const 2)))
                    (i32.load (i32.add (local.get $b)
                      (i32.shl (i32.add (i32.mul (local.get $k) (local.get $n)) (local.get $j)) (i32.const 2)))))))
                (local.set $k (i32.add (local.get $k) (i32.const 1)))
                br $dot
              end
            end
            (i32.store (i32.add (local.get $c)
              (i32.shl (i32.add (i32.mul (local.get $i) (local.get $n)) (local.get $j)) (i32.const 2)))
              (local.get $acc))
            (local.set $j (i32.add (local.get $j) (i32.const 1)))
            br $cols
          end
        end
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $rows
      end
    end
    (local.set $i (i32.const 0))
    block $summed
      loop $sum
        local.get $i
        local.get $nn
        i32.ge_u
        br_if $summed
        (local.set $sum (i32.add (local.get $sum)
          (i32.load (i32.add (local.get $c) (i32.shl (local.get $i) (i32.const 2))))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $sum
      end
    end
    local.get $sum))
`

// ledgerIsortWAT fills n i64 slots from a 64-bit linear congruential
// generator, insertion-sorts them as signed values and returns the high
// word of the median: i64 loads, stores and compares, and an i64 multiply
// and add per element filled.
const ledgerIsortWAT = `
(module
  (memory 1)
  (func (export "isort") (param $n i32) (result i32)
    (local $i i32) (local $j i32) (local $x i64) (local $key i64) (local $v i64)
    (local.set $x (i64.const 42))
    block $filled
      loop $fill
        local.get $i
        local.get $n
        i32.ge_u
        br_if $filled
        (local.set $x (i64.add (i64.mul (local.get $x) (i64.const 6364136223846793005))
          (i64.const 1442695040888963407)))
        (i64.store (i32.shl (local.get $i) (i32.const 3)) (local.get $x))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $fill
      end
    end
    (local.set $i (i32.const 1))
    block $sorted
      loop $outer
        local.get $i
        local.get $n
        i32.ge_u
        br_if $sorted
        (local.set $key (i64.load (i32.shl (local.get $i) (i32.const 3))))
        (local.set $j (i32.sub (local.get $i) (i32.const 1)))
        block $placed
          loop $shift
            local.get $j
            i32.const 0
            i32.lt_s
            br_if $placed
            (local.set $v (i64.load (i32.shl (local.get $j) (i32.const 3))))
            local.get $v
            local.get $key
            i64.le_s
            br_if $placed
            (i64.store (i32.shl (i32.add (local.get $j) (i32.const 1)) (i32.const 3)) (local.get $v))
            (local.set $j (i32.sub (local.get $j) (i32.const 1)))
            br $shift
          end
        end
        (i64.store (i32.shl (i32.add (local.get $j) (i32.const 1)) (i32.const 3)) (local.get $key))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $outer
      end
    end
    (i32.wrap_i64 (i64.shr_u
      (i64.load (i32.shl (i32.shr_u (local.get $n) (i32.const 1)) (i32.const 3)))
      (i64.const 32)))))
`

// ledgerMandelWAT counts the points of an n×n grid over [-2, 0.5] ×
// [-1.25, 1.25] still bounded after 50 Mandelbrot iterations: f64 compares,
// multiplies and adds.
const ledgerMandelWAT = `
(module
  (func (export "mandel") (param $n i32) (result i32)
    (local $px i32) (local $py i32) (local $it i32) (local $inside i32)
    (local $step f64) (local $cr f64) (local $ci f64)
    (local $zr f64) (local $zi f64) (local $zr2 f64) (local $zi2 f64)
    (local.set $step (f64.div (f64.const 2.5) (f64.convert_i32_s (local.get $n))))
    block $rowsdone
      loop $rows
        local.get $py
        local.get $n
        i32.ge_s
        br_if $rowsdone
        (local.set $ci (f64.sub (f64.mul (f64.convert_i32_s (local.get $py)) (local.get $step))
          (f64.const 1.25)))
        (local.set $px (i32.const 0))
        block $colsdone
          loop $cols
            local.get $px
            local.get $n
            i32.ge_s
            br_if $colsdone
            (local.set $cr (f64.sub (f64.mul (f64.convert_i32_s (local.get $px)) (local.get $step))
              (f64.const 2)))
            (local.set $zr (f64.const 0))
            (local.set $zi (f64.const 0))
            (local.set $it (i32.const 0))
            block $escaped
              loop $iter
                local.get $it
                i32.const 50
                i32.eq
                if
                  (local.set $inside (i32.add (local.get $inside) (i32.const 1)))
                  br $escaped
                end
                (local.set $zr2 (f64.mul (local.get $zr) (local.get $zr)))
                (local.set $zi2 (f64.mul (local.get $zi) (local.get $zi)))
                (f64.add (local.get $zr2) (local.get $zi2))
                f64.const 4
                f64.gt
                br_if $escaped
                (local.set $zi (f64.add (f64.mul (f64.mul (f64.const 2) (local.get $zr)) (local.get $zi))
                  (local.get $ci)))
                (local.set $zr (f64.add (f64.sub (local.get $zr2) (local.get $zi2)) (local.get $cr)))
                (local.set $it (i32.add (local.get $it) (i32.const 1)))
                br $iter
              end
            end
            (local.set $px (i32.add (local.get $px) (i32.const 1)))
            br $cols
          end
        end
        (local.set $py (i32.add (local.get $py) (i32.const 1)))
        br $rows
      end
    end
    local.get $inside))
`

// ledgerRow is one kernel of the tier-1 dispatch ledger: its module, the
// export and argument the ledger runs, the small argument its fuel sweep
// runs, and what the ledger pins. regrow marks a recursive kernel whose
// first call may outgrow the store's first register stack; the ledger
// counts its second call. Every other kernel must run its first call
// wholly at tier 1.
type ledgerRow struct {
	name, src, export string
	arg, small        int32
	result            int32
	instrs            uint64
	calls             int
	bytes             int64
	regrow            bool
}

var ledgerRows = []ledgerRow{
	{"count_primes", workloads.CPUBoundWAT, "count_primes", 12000, 40, 1438, 3128662, 550126, 1264, false},
	{"handle", workloads.RequestHandlerWAT, "handle", 500, 12, 1, 71530, 14010, 944, false},
	{"crc32", ledgerCRC32WAT, "crc32", 1000, 6, 988615292, 206081, 68006, 1504, false},
	{"sieve", ledgerSieveWAT, "sieve", 20000, 60, 2262, 1053218, 249479, 1336, false},
	{"fib", benchFibWAT, "fib", 20, 8, 6765, 251743, 109454, 664, true},
	{"matmul", ledgerMatmulWAT, "matmul", 20, 3, 31940, 288819, 106489, 2736, false},
	{"isort", ledgerIsortWAT, "isort", 200, 7, -57152540, 289615, 110544, 2008, false},
	{"mandel", ledgerMandelWAT, "mandel", 24, 3, 148, 401272, 113322, 1784, false},
	{"grow_touch", workloads.MemoryBoundWAT, "grow_touch", 63, 2, 64, 964, 323, 776, false},
}

// TestTier1DispatchLedger pins how each kernel runs at tier 1: each closure
// of the lowered artifact is wrapped in a counter, and the kernel must
// retire exactly the instructions tier 0 does, in a fixed number of closure
// calls, from an artifact of a fixed accounted size. count_primes is the
// guest-compute kernel: is_prime's loop runs three closures per iteration
// ([d*d][n][gt_u][if], [n%d][eqz][if], the counter step and backedge). fib
// is the call-heavy row: recursive calls and an lt_s feeding an if.
// handle and grow_touch(63) are the warm-steady and guest-churn exports;
// matmul, isort and mandel the i32, i64 and f64 rows of the kernel corpus.
// Unlike wall time the counts do not move with code placement, and a
// refactor that un-fuses a shape raises one.
func TestTier1DispatchLedger(t *testing.T) {
	for _, row := range ledgerRows {
		t.Run(row.name, func(t *testing.T) {
			m, err := wat.Compile(row.src)
			if err != nil {
				t.Fatalf("wat: %v", err)
			}
			s := NewStore(Config{})
			inst, err := s.Instantiate(m, "")
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			tc, _ := inst.Code().EnsureTier1()
			if tc.Lowered() != len(tc.funcs) {
				t.Fatalf("lowered %d of %d functions", tc.Lowered(), len(tc.funcs))
			}
			calls := 0
			for _, f := range tc.funcs {
				for i, op := range f.ops {
					f.ops[i] = func(fr *t1frame) int {
						calls++
						return op(fr)
					}
				}
			}
			res, err := inst.Call(row.export, I32(row.arg))
			before := uint64(0)
			if err == nil && row.regrow && s.t1want != 0 {
				// The recursion outgrew the store's first register stack,
				// and the frames past the shortfall ran at tier 0. The
				// next call starts on the regrown stack: count that one.
				calls, before = 0, s.InstructionCount()
				res, err = inst.Call(row.export, I32(row.arg))
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.LastInvokeTier() != 1 || s.t1want != 0 {
				t.Fatalf("served at tier %d (register-stack shortfall %d), want 1 and none", s.LastInvokeTier(), s.t1want)
			}
			instrs := s.InstructionCount() - before
			if AsI32(res[0]) != row.result || instrs != row.instrs || calls != row.calls || tc.Bytes() != row.bytes {
				t.Fatalf("%s(%d) = %d in %d instructions and %d closure calls from %d bytes, want %d in %d and %d from %d",
					row.export, row.arg, AsI32(res[0]), instrs, calls, tc.Bytes(),
					row.result, row.instrs, row.calls, row.bytes)
			}
		})
	}
}

// TestTierDiffLedgerKernels runs every ledger kernel through the tier pair
// on a small argument, twice unfueled (the second call sees the first's
// memory), then with the fuel swept from 1 to one past what a call needs.
func TestTierDiffLedgerKernels(t *testing.T) {
	for _, row := range ledgerRows {
		t.Run(row.name, func(t *testing.T) {
			m, err := wat.Compile(row.src)
			if err != nil {
				t.Fatalf("wat: %v", err)
			}
			p := newTierPair(t, m, Config{}, nil)
			p.call(row.export, I32(row.small))
			p.call(row.export, I32(row.small))
			fp := newTierPair(t, m, Config{Fuel: 1 << 20}, nil)
			fp.call(row.export, I32(row.small))
			need := fp.s0.InstructionCount()
			for f := uint64(1); f <= need+1; f += 1 + need/400 {
				fp.setFuel(f)
				fp.call(row.export, I32(row.small))
			}
			for _, f := range []uint64{need - 1, need, need + 1} {
				fp.setFuel(f)
				fp.call(row.export, I32(row.small))
			}
		})
	}
}
