package dynaminer

import (
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJanitorEvictsIdleClusters pins the background sweep to the injected
// clock: while that clock stands at the corpus's own time, sweeps evict
// nothing (a cut-off read off the wall clock, years later, would evict
// everything); once it moves far past every cluster's last activity, the
// janitor evicts them without any new traffic arriving.
func TestJanitorEvictsIdleClusters(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)

	// The synth corpus is timestamped around a fixed epoch in 2016, and a
	// 30-day TTL covers all of it; a clock one year later puts every
	// cluster beyond the TTL.
	var mu sync.Mutex
	clock := eps[0].Txs[0].ReqTime
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}

	m := NewMonitor(MonitorConfig{RedirectThreshold: 1, ClusterTTL: 30 * 24 * time.Hour, Now: now}, c)
	for i := 0; i < 4; i++ {
		m.ProcessAll(eps[i].Txs)
	}
	if m.Stats().Clusters == 0 {
		t.Fatal("no clusters built; the sweep covers nothing")
	}

	m.StartJanitor(time.Millisecond)
	defer m.Close()

	waitFor(t, "three janitor sweeps", func() bool {
		return m.Registry().CounterValue("dynaminer_janitor_sweeps_total") >= 3
	})
	if n := m.Registry().CounterValue("dynaminer_janitor_evictions_total"); n != 0 {
		t.Fatalf("janitor evicted %d clusters with the clock unchanged", n)
	}

	mu.Lock()
	clock = clock.Add(365 * 24 * time.Hour)
	mu.Unlock()

	waitFor(t, "the janitor to evict", func() bool {
		return m.Registry().CounterValue("dynaminer_janitor_evictions_total") > 0
	})
}

// TestJanitorSurvivesPanickingSweep makes one janitor sweep panic (the
// injected clock panics on its first read after the traffic): the panic
// costs that sweep only. The Monitor keeps processing, and a later sweep
// still evicts once the clock moves past the clusters.
func TestJanitorSurvivesPanickingSweep(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)
	var mu sync.Mutex
	clock := eps[0].Txs[0].ReqTime
	armed := false
	panicked := make(chan struct{})
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		if armed {
			armed = false
			close(panicked)
			panic("clock fault")
		}
		return clock
	}

	m := NewMonitor(MonitorConfig{RedirectThreshold: 1, Now: now}, c)
	m.ProcessAll(eps[0].Txs)
	mu.Lock()
	armed = true
	mu.Unlock()
	m.StartJanitor(time.Millisecond)
	defer m.Close()
	select {
	case <-panicked:
	case <-time.After(5 * time.Second):
		t.Fatal("the janitor never read the clock")
	}

	m.ProcessAll(eps[1].Txs)
	if m.Stats().Clusters == 0 {
		t.Fatal("no clusters built; the sweep covers nothing")
	}
	mu.Lock()
	clock = clock.Add(365 * 24 * time.Hour)
	mu.Unlock()
	waitFor(t, "a sweep after the panic to evict", func() bool {
		return m.Registry().CounterValue("dynaminer_janitor_evictions_total") > 0
	})
	m.Close() // returns only once the janitor goroutine has exited
}

// TestJanitorCloseIsIdempotent pins the lifecycle edges: closing a
// never-started monitor, double-close, and restart after close all work.
func TestJanitorCloseIsIdempotent(t *testing.T) {
	c, _ := trainedOnSmallCorpus(t)
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1}, c)
	m.Close() // never started
	m.StartJanitor(time.Hour)
	m.StartJanitor(time.Hour) // already running: no-op
	m.Close()
	m.Close()                 // double close
	m.StartJanitor(time.Hour) // restart after close
	m.Close()
}

// TestJanitorConcurrentWithProcess runs the janitor at full tilt while
// transactions stream in concurrently; under -race this proves the sweep
// takes the same shard locks as Process.
func TestJanitorConcurrentWithProcess(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1, Shards: 4}, c)
	m.StartJanitor(time.Millisecond)
	defer m.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 32; i += 4 {
				m.ProcessAll(eps[i].Txs)
			}
		}(w)
	}
	wg.Wait()
	if m.Stats().Transactions == 0 {
		t.Fatal("no transactions processed")
	}
}
