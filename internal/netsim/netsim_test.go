package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func echo(from string, req Message) (Message, error) {
	return Message{Kind: "echo", Payload: req.Payload}, nil
}

func TestCallRoundTrip(t *testing.T) {
	n := New(Config{})
	n.Register("a", echo)
	n.Register("b", echo)
	resp, err := n.Call("a", "b", Message{Kind: "ping", Payload: []byte("hi")})
	if err != nil || string(resp.Payload) != "hi" {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	msgs, bytes := n.Stats()
	if msgs != 2 || bytes == 0 {
		t.Fatalf("msgs=%d bytes=%d", msgs, bytes)
	}
}

// TestInstrumentedCallAllocatesNothing: an instrumented network counts a
// call under its pair's label and, once the pair has been seen, allocates
// nothing to do so.
func TestInstrumentedCallAllocatesNothing(t *testing.T) {
	n := New(Config{})
	reg := stats.NewRegistry("cluster=c1")
	n.Instrument(reg)
	n.Register("coordinator", echo)
	n.Register("node3", echo)
	req := Message{Kind: "ping", Payload: []byte("hi")}
	call := func() {
		if _, err := n.Call("coordinator", "node3", req); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if got := testing.AllocsPerRun(100, call); got != 0 {
		t.Errorf("an instrumented call allocates %.0f times, want 0", got)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("netsim_messages_total", "cluster=c1", "pair=coordinator->node3"); v != 2*102 {
		t.Fatalf("netsim_messages_total = %d, want two per call, 102 calls", v)
	}
	if v, _ := snap.Counter("netsim_bytes_total", "cluster=c1", "pair=coordinator->node3"); v != 102*int64(req.Size()+Message{Kind: "echo", Payload: req.Payload}.Size()) {
		t.Fatalf("netsim_bytes_total = %d", v)
	}
}

func TestUnknownAndCrashedNodes(t *testing.T) {
	n := New(Config{})
	n.Register("a", echo)
	if _, err := n.Call("a", "ghost", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatal(err)
	}
	n.Register("b", echo)
	n.Crash("b")
	if _, err := n.Call("a", "b", Message{}); !errors.Is(err, ErrCrashed) {
		t.Fatal(err)
	}
	if n.Alive("b") {
		t.Fatal("crashed node alive")
	}
	n.Recover("b")
	if _, err := n.Call("a", "b", Message{}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	n.Register("a", echo)
	n.Register("b", echo)
	n.Partition("a", "b")
	if _, err := n.Call("a", "b", Message{}); !errors.Is(err, ErrPartitioned) {
		t.Fatal(err)
	}
	if _, err := n.Call("b", "a", Message{}); !errors.Is(err, ErrPartitioned) {
		t.Fatal(err)
	}
	n.Heal("a", "b")
	if _, err := n.Call("a", "b", Message{}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyCharged(t *testing.T) {
	n := New(Config{Latency: 2 * time.Millisecond})
	n.Register("a", echo)
	n.Register("b", echo)
	start := time.Now()
	n.Call("a", "b", Message{Payload: []byte("x")})
	if time.Since(start) < 4*time.Millisecond { // two directions
		t.Fatal("latency not charged")
	}
}

func TestBandwidthCharged(t *testing.T) {
	n := New(Config{Bandwidth: 1 << 20}) // 1 MiB/s
	n.Register("a", echo)
	n.Register("b", echo)
	payload := make([]byte, 1<<18) // 256 KiB -> ~0.25s one way, ~0.5s round
	start := time.Now()
	n.Call("a", "b", Message{Payload: payload})
	if time.Since(start) < 400*time.Millisecond {
		t.Fatalf("bandwidth not charged: %v", time.Since(start))
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New(Config{})
	reg := stats.NewRegistry()
	n.Instrument(reg) // the calls race to resolve their pair's counters
	n.Register("hub", echo)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := n.Call("hub", "hub", Message{Payload: []byte("x")}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	msgs, _ := n.Stats()
	if msgs != 3200 {
		t.Fatalf("msgs=%d", msgs)
	}
	if v, _ := reg.Snapshot().Counter("netsim_messages_total", "pair=hub->hub"); v != 3200 {
		t.Fatalf("netsim_messages_total=%d, want 3200", v)
	}
	n.ResetStats()
	if m, b := n.Stats(); m != 0 || b != 0 {
		t.Fatal("reset failed")
	}
}

func TestNodesList(t *testing.T) {
	n := New(Config{})
	n.Register("a", echo)
	n.Register("b", echo)
	n.Crash("a")
	nodes := n.Nodes()
	if len(nodes) != 1 || nodes[0] != "b" {
		t.Fatalf("nodes=%v", nodes)
	}
	n.Deregister("b")
	if len(n.Nodes()) != 0 {
		t.Fatal("deregister failed")
	}
}
