package gateway

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/des"
)

// TestBridgeBusy: with the loop not draining the channel, submissions past
// the buffer bound fail fast with ErrBridgeBusy instead of queueing.
func TestBridgeBusy(t *testing.T) {
	b := NewBridge(des.NewEngine(), BridgeConfig{SubmitBuffer: 1})
	// Deliberately not started: the single buffer slot fills and stays full.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the one buffered slot, then blocks awaiting a result that
		// never comes until ctx is canceled.
		_, err := b.SubmitRouted(ctx, nil, "k", 1)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("first submit err = %v, want context.Canceled", err)
		}
	}()
	// Wait until the first submission holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(b.subCh) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first submission never reached the channel")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := b.SubmitRouted(context.Background(), nil, "k", 2)
	if !errors.Is(err, ErrBridgeBusy) {
		t.Fatalf("second submit err = %v, want ErrBridgeBusy", err)
	}
	cancel()
	wg.Wait()
}

// TestBridgeDrainRefusesNew: after Drain begins, SubmitRouted is refused with
// ErrBridgeDraining before touching the channel.
func TestBridgeDrainRefusesNew(t *testing.T) {
	b := NewBridge(des.NewEngine(), BridgeConfig{})
	b.Start()
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain of idle bridge: %v", err)
	}
	_, err := b.SubmitRouted(context.Background(), nil, "k", 1)
	if !errors.Is(err, ErrBridgeDraining) {
		t.Fatalf("submit err = %v, want ErrBridgeDraining", err)
	}
	if !b.Draining() {
		t.Error("Draining() = false after Drain")
	}
}

// TestBridgeDrainIdempotent: a second Drain returns immediately.
func TestBridgeDrainIdempotent(t *testing.T) {
	b := NewBridge(des.NewEngine(), BridgeConfig{})
	b.Start()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := b.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		cancel()
	}
}

// TestBridgeDo: closures run on the loop goroutine while it lives, and
// directly in the caller once it has stopped — either way Do returns only
// after the closure ran.
func TestBridgeDo(t *testing.T) {
	b := NewBridge(des.NewEngine(), BridgeConfig{})
	b.Start()
	ran := false
	if err := b.Do(context.Background(), func() { ran = true }); err != nil {
		t.Fatalf("Do on live loop: %v", err)
	}
	if !ran {
		t.Fatal("closure did not run")
	}
	b.Stop()
	ran = false
	if err := b.Do(context.Background(), func() { ran = true }); err != nil {
		t.Fatalf("Do after stop: %v", err)
	}
	if !ran {
		t.Fatal("closure did not run after stop")
	}
}

// TestBridgeStopIdempotent: Stop twice is safe and leaves Do usable.
func TestBridgeStopIdempotent(t *testing.T) {
	b := NewBridge(des.NewEngine(), BridgeConfig{})
	b.Start()
	b.Stop()
	b.Stop()
}

// TestDoSeesEventsScheduledBeforeIt: a Do closure runs only once every due
// event has stepped, even when it reaches the loop while the loop is still
// draining a burst. The first closure schedules an event and parks a second
// Do in the channel before returning, so the drain picks the second up
// straight after the first; it must see the event as fired.
func TestDoSeesEventsScheduledBeforeIt(t *testing.T) {
	eng := des.NewEngine()
	b := NewBridge(eng, BridgeConfig{})
	b.Start()
	defer b.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fired, sawFired := false, false
	secondErr := make(chan error, 1)
	err := b.Do(ctx, func() {
		eng.At(eng.Now(), func() { fired = true })
		go func() { secondErr <- b.Do(ctx, func() { sawFired = fired }) }()
		for len(b.subCh) == 0 {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-secondErr; err != nil {
		t.Fatal(err)
	}
	if !sawFired {
		t.Fatal("second Do ran before the event the first one scheduled had stepped")
	}
}
