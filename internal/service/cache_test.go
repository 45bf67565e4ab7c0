package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUCachesAndEvicts(t *testing.T) {
	c := newMemoMap[string, []byte](2)
	var builds atomic.Int64
	get := func(key string) []byte {
		t.Helper()
		v, err := c.get(nil, key, func() ([]byte, error) {
			builds.Add(1)
			return []byte(key), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	get("a")
	get("b")
	get("a") // hit; refreshes a
	if n := builds.Load(); n != 2 {
		t.Fatalf("builds = %d, want 2", n)
	}
	get("c") // evicts b (LRU)
	get("a") // still cached
	if n := builds.Load(); n != 3 {
		t.Fatalf("builds = %d, want 3", n)
	}
	get("b") // rebuilt
	if n := builds.Load(); n != 4 {
		t.Fatalf("builds = %d, want 4", n)
	}
	hits, misses, entries := c.stats()
	if entries != 2 {
		t.Errorf("entries = %d, want 2", entries)
	}
	if hits != 2 || misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 2/4", hits, misses)
	}
}

func TestLRUSingleflight(t *testing.T) {
	c := newMemoMap[string, []byte](8)
	var builds atomic.Int64
	release := make(chan struct{})
	const goroutines = 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	results := make([][]byte, goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			v, err := c.get(nil, "key", func() ([]byte, error) {
				builds.Add(1)
				<-release
				return []byte("value"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", n)
	}
	for i, v := range results {
		if string(v) != "value" {
			t.Errorf("goroutine %d got %q", i, v)
		}
	}
}

func TestLRUErrorsNotCached(t *testing.T) {
	c := newMemoMap[string, []byte](8)
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.get(nil, "key", func() ([]byte, error) {
			calls++
			if calls < 3 {
				return nil, boom
			}
			return []byte("ok"), nil
		})
		if i < 2 && !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
		if i == 2 && err != nil {
			t.Fatalf("call 2: %v", err)
		}
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (errors retried)", calls)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newMemoMap[string, []byte](-1)
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := c.get(nil, "k", func() ([]byte, error) { calls++; return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (cache disabled)", calls)
	}
}

func TestMemoMapSingleflightAndErrorRetry(t *testing.T) {
	m := newMemoMap[int, string](8)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.get(nil, 1, func() (string, error) {
				builds.Add(1)
				return "one", nil
			})
			if err != nil || v != "one" {
				t.Errorf("got %q/%v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1", n)
	}

	fails := 0
	if _, err := m.get(nil, 2, func() (string, error) { fails++; return "", fmt.Errorf("nope") }); err == nil {
		t.Fatal("expected error")
	}
	if v, err := m.get(nil, 2, func() (string, error) { fails++; return "two", nil }); err != nil || v != "two" {
		t.Errorf("retry got %q/%v", v, err)
	}
	if fails != 2 {
		t.Errorf("fails = %d, want 2 (error slot released)", fails)
	}
}

func TestMemoMapBounded(t *testing.T) {
	m := newMemoMap[int, int](2)
	builds := 0
	get := func(k int) {
		t.Helper()
		v, err := m.get(nil, k, func() (int, error) { builds++; return k, nil })
		if err != nil || v != k {
			t.Fatalf("get(%d) = %d/%v", k, v, err)
		}
	}
	get(1)
	get(2)
	get(1) // hit; refreshes 1
	if builds != 2 {
		t.Fatalf("builds = %d, want 2", builds)
	}
	get(3) // evicts 2 (LRU)
	get(1) // still cached
	if builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
	get(2) // rebuilt after eviction
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 (2 was evicted)", builds)
	}
	if n := m.order.Len(); n != 2 {
		t.Errorf("entries = %d, want 2 (bound held)", n)
	}
}

// TestMemoMapPanicNotPinned: a fill that panics re-raises on its
// leader, and the entry it leaves behind is dropped before anyone can
// join it, so the next get for the key recomputes instead of returning
// the panic as a stale error.
func TestMemoMapPanicNotPinned(t *testing.T) {
	m := newMemoMap[string, []byte](8)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("leader recovered %v, want the fill's panic", r)
			}
		}()
		m.get(nil, "key", func() ([]byte, error) { panic("boom") })
	}()
	calls := 0
	v, err := m.get(nil, "key", func() ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || string(v) != "ok" || calls != 1 {
		t.Fatalf("get after a panicked fill = %q/%v with %d calls, want a recomputed \"ok\"", v, err, calls)
	}
}

// TestMemoMapBoundsBytes: a sized map evicts least recently used
// entries once the kept values outweigh its budget, keeps its weight
// right through count evictions, and answers a value heavier than the
// whole budget without keeping it.
func TestMemoMapBoundsBytes(t *testing.T) {
	m := newSizedMemoMap[string](3, 10, func(b []byte) int { return len(b) })
	builds := 0
	get := func(k string, size int) {
		t.Helper()
		v, err := m.get(nil, k, func() ([]byte, error) { builds++; return make([]byte, size), nil })
		if err != nil || len(v) != size {
			t.Fatalf("get(%q) = %d bytes/%v, want %d bytes", k, len(v), err, size)
		}
	}
	check := func(wantBuilds, wantEntries, wantBytes int) {
		t.Helper()
		_, _, entries := m.stats()
		if builds != wantBuilds || entries != wantEntries || m.bytes != wantBytes {
			t.Fatalf("builds/entries/bytes = %d/%d/%d, want %d/%d/%d",
				builds, entries, m.bytes, wantBuilds, wantEntries, wantBytes)
		}
	}
	get("a", 4)
	get("b", 4)
	get("a", 4) // hit; refreshes a
	check(2, 2, 8)
	get("c", 4) // 12 bytes: evicts b, the least recently used
	check(3, 2, 8)
	get("a", 4) // still kept
	check(3, 2, 8)
	get("big", 11) // heavier than the budget: answered, not kept
	check(4, 2, 8)
	get("big", 11) // so it is recomputed
	check(5, 2, 8)
	get("d", 1)
	get("e", 1) // four entries: the count bound evicts c and its bytes
	check(7, 3, 6)
	get("c", 4) // rebuilt after eviction
	check(8, 3, 6)
	hits, misses, _ := m.stats()
	if hits != 2 || misses != 8 {
		t.Errorf("hits/misses = %d/%d, want 2/8", hits, misses)
	}
}
