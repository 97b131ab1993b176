package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// quickSpec is a small rbb spec completing in well under a second.
func quickSpec(seed uint64) Spec {
	return Spec{Seed: seed, N: 512, Rounds: 40, Shards: 2, Quantiles: []float64{0.5}}
}

// TestResultCache pins the cache contract: an identical resubmission is
// answered instantly from the stored result (bit-identical summary,
// Cached flag, no queue slot), placement-only differences still hit, and
// any result-determining difference misses.
func TestResultCache(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	first := submit(t, hs, quickSpec(1))
	done := waitStatus(t, s, first.ID, StatusDone)
	if done.Cached {
		t.Fatal("first run marked cached")
	}
	if done.FinishedUnix == 0 {
		t.Fatal("done run has no finish time")
	}

	hit := submit(t, hs, quickSpec(1))
	if hit.Status != StatusDone || !hit.Cached {
		t.Fatalf("resubmission: status %s cached %v, want immediate cached done", hit.Status, hit.Cached)
	}
	a, _ := json.Marshal(done.Summary)
	b, _ := json.Marshal(hit.Summary)
	if string(a) != string(b) {
		t.Fatalf("cached summary differs:\n%s\n%s", a, b)
	}
	if hit.Round != done.Round {
		t.Fatalf("cached round %d, want %d", hit.Round, done.Round)
	}

	// Placement and snapshot knobs are not part of the key.
	alt := quickSpec(1)
	alt.Transport = "spawn"
	alt.StreamEvery = 7
	if got := submit(t, hs, alt); !got.Cached {
		t.Error("transport/stream-only difference missed the cache")
	}

	// A result-determining difference must recompute.
	miss := submit(t, hs, quickSpec(2))
	if miss.Cached {
		t.Fatal("different seed hit the cache")
	}
	if got := waitStatus(t, s, miss.ID, StatusDone); got.Cached {
		t.Fatal("computed run marked cached")
	}
}

// TestResubmitOnDoneEventHits pins the order of a run's last two steps:
// the result cache is fed while the run is still running, and only then is
// the run marked done. A resubmission issued from the stream subscriber the
// moment the run's done transition closes its channel is therefore always
// a cache hit, never a recomputation.
func TestResubmitOnDoneEventHits(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	for seed := uint64(1); seed <= 8; seed++ {
		spec := Spec{Seed: seed, N: 4096, Rounds: 200, Shards: 2, Quantiles: []float64{0.5}}
		info, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := s.lookup(info.ID)
		if ch := r.subscribe(); ch != nil {
			for range ch { // drain progress events until the done transition closes ch
			}
		}
		if st := r.Info().Status; st != StatusDone {
			t.Fatalf("seed %d: run ended %s", seed, st)
		}
		hit, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached || hit.Status != StatusDone {
			t.Fatalf("seed %d: resubmit on the done event: status %s cached %v, want a cache hit", seed, hit.Status, hit.Cached)
		}
	}
}

// TestResultCacheAcrossRestart: the cache is rebuilt from the persisted
// manifest, so identical resubmissions hit across server generations.
func TestResultCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Options{Workers: 1, Dir: dir})
	info := submit(t, hs1, quickSpec(5))
	waitStatus(t, s1, info.ID, StatusDone)
	s1.Shutdown()
	hs1.Close()

	_, hs2 := newTestServer(t, Options{Workers: 1, Dir: dir})
	if got := submit(t, hs2, quickSpec(5)); !got.Cached || got.Status != StatusDone {
		t.Fatalf("post-restart resubmission: status %s cached %v", got.Status, got.Cached)
	}
}

// TestMaxHistory: terminal runs beyond the cap are garbage-collected
// oldest-first, together with their checkpoints and cache entries; live
// runs are untouched.
func TestMaxHistory(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{Workers: 1, Dir: dir, MaxHistory: 2})
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		info := submit(t, hs, quickSpec(seed))
		waitStatus(t, s, info.ID, StatusDone)
		ids = append(ids, info.ID)
	}
	// The worker triggers GC right after the terminal transition; run one
	// more sweep synchronously so the assertion does not race it.
	s.gc()
	runs := s.Runs()
	if len(runs) != 2 {
		t.Fatalf("%d runs retained, want 2: %+v", len(runs), runs)
	}
	if runs[0].ID != ids[2] || runs[1].ID != ids[3] {
		t.Fatalf("retained %s,%s; want the newest %s,%s", runs[0].ID, runs[1].ID, ids[2], ids[3])
	}
	for _, id := range ids[:2] {
		if _, ok := s.Info(id); ok {
			t.Errorf("run %s still listed after GC", id)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); !os.IsNotExist(err) {
			t.Errorf("checkpoint of GC'd run %s still on disk (err %v)", id, err)
		}
	}
	// The evicted runs' cache entries died with them: resubmitting seed 1
	// recomputes.
	if got := submit(t, hs, quickSpec(1)); got.Cached {
		t.Error("cache entry survived its run's GC")
	}
}

// TestTTL: terminal runs expire TTL after finishing, measured against the
// injected clock; unexpired ones survive the sweep.
func TestTTL(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, TTL: time.Hour})
	// The clock is installed once (before any run exists, so no server
	// goroutine reads it concurrently) and advanced through an atomic:
	// worker goroutines may still be in their post-finish gc() when the
	// test moves time forward.
	base := time.Unix(1_700_000_000, 0)
	var offsetMin atomic.Int64
	s.now = func() time.Time { return base.Add(time.Duration(offsetMin.Load()) * time.Minute) }

	old := submit(t, hs, quickSpec(1))
	waitStatus(t, s, old.ID, StatusDone)

	offsetMin.Store(40)
	fresh := submit(t, hs, quickSpec(2))
	waitStatus(t, s, fresh.ID, StatusDone)

	offsetMin.Store(70)
	s.gc()
	if _, ok := s.Info(old.ID); ok {
		t.Error("expired run survived the TTL sweep")
	}
	if _, ok := s.Info(fresh.ID); !ok {
		t.Error("unexpired run was collected")
	}
}
