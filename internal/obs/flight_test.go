package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestFlightRecorderKeepsOrderBeforeWrap(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(FlightEvent{Kind: "event", Name: fmt.Sprintf("e%d", i)})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", i); ev.Name != want {
			t.Fatalf("event %d = %q, want %q", i, ev.Name, want)
		}
		if ev.AtUnixMS == 0 {
			t.Fatalf("event %d timestamp not filled", i)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", r.Dropped())
	}
}

func TestFlightRecorderWrapEvictsOldest(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(FlightEvent{Kind: "event", Name: fmt.Sprintf("e%d", i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (ring capacity)", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", 6+i); ev.Name != want {
			t.Fatalf("event %d = %q, want %q (last 4 retained, oldest first)", i, ev.Name, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
}

func TestFlightRecorderNilIsNoOp(t *testing.T) {
	var r *FlightRecorder
	r.Record(FlightEvent{Name: "x"})
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder events = %v", evs)
	}
	if r.Dropped() != 0 {
		t.Fatal("nil recorder counts non-zero")
	}
}

// TestFlightRecorderConcurrentAppend hammers the ring from many goroutines
// while a reader snapshots it; run under -race this is the recorder's
// thread-safety proof.
func TestFlightRecorderConcurrentAppend(t *testing.T) {
	r := NewFlightRecorder(32)
	const writers, per = 8, 200
	var reader, writing sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Events()
				r.Dropped()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < per; i++ {
				r.Record(FlightEvent{Kind: "event", Name: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	reader.Wait()
	evs := r.Events()
	if len(evs) != 32 {
		t.Fatalf("retained %d, want 32", len(evs))
	}
	if got := r.Dropped() + int64(len(evs)); got != writers*per {
		t.Fatalf("recorded %d, want %d", got, writers*per)
	}
}
