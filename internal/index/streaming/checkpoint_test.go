package streaming

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// TestCheckpointResumeEquivalence: splitting a stream at an arbitrary
// point, checkpointing, restoring, and continuing must produce exactly
// the same matches as an uninterrupted run — for every kind, including
// L2AP with re-indexing activity on both sides of the split.
func TestCheckpointResumeEquivalence(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		for seed := int64(0); seed < 3; seed++ {
			items := fuzzItems(seed, 150)
			for _, split := range []int{1, 40, 75, 149} {
				// uninterrupted reference
				ref, err := New(kind, p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var want []apss.Match
				for _, it := range items {
					ms, err := ref.Add(it)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, ms...)
				}
				// run to split, checkpoint, restore, continue
				first, err := New(kind, p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var got []apss.Match
				for _, it := range items[:split] {
					ms, err := first.Add(it)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, ms...)
				}
				var buf bytes.Buffer
				if err := Save(first, &buf); err != nil {
					t.Fatal(err)
				}
				second, err := Load(&buf, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range items[split:] {
					ms, err := second.Add(it)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, ms...)
				}
				if !apss.EqualMatchSets(got, want, 1e-9) {
					t.Fatalf("%v seed=%d split=%d: resumed run diverged (%d vs %d)",
						kind, seed, split, len(got), len(want))
				}
				// index occupancy matches too
				if second.Size() != ref.Size() {
					t.Fatalf("%v seed=%d split=%d: size %+v vs %+v",
						kind, seed, split, second.Size(), ref.Size())
				}
			}
		}
	}
}

// TestWorkersResumeCounters: a run checkpointed at item 200 of 400 and
// resumed must continue exactly like the uninterrupted run — the same
// matches bit for bit and the same pruning work. The counters are the
// point: a restored engine whose residual boundaries, pscores or m/m̂λ
// came out looser would still emit the right pairs, only with more
// candidates, full dots, or scanned entries.
func TestWorkersResumeCounters(t *testing.T) {
	const n, split = 400, 200
	for _, kind := range []Kind{L2, L2AP, AP} {
		for _, p := range []apss.Params{
			{Theta: 0.5, Lambda: 0.05},
			{Theta: 0.7, Lambda: 0.01},
			{Theta: 0.9, Lambda: 0.2},
		} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%v/theta=%g/lambda=%g/seed=%d", kind, p.Theta, p.Lambda, seed), func(t *testing.T) {
					items := fuzzItems(seed, n)
					var ref metrics.Counters
					whole, err := New(kind, p, Options{Counters: &ref})
					if err != nil {
						t.Fatal(err)
					}
					var want []apss.Match
					for i, it := range items {
						if i == split {
							ref = metrics.Counters{}
						}
						ms, err := whole.Add(it)
						if err != nil {
							t.Fatal(err)
						}
						if i >= split {
							want = append(want, ms...)
						}
					}

					first, err := New(kind, p, Options{})
					if err != nil {
						t.Fatal(err)
					}
					for _, it := range items[:split] {
						if _, err := first.Add(it); err != nil {
							t.Fatal(err)
						}
					}
					var buf bytes.Buffer
					if err := Save(first, &buf); err != nil {
						t.Fatal(err)
					}
					var got metrics.Counters
					second, err := Load(&buf, Options{Counters: &got})
					if err != nil {
						t.Fatal(err)
					}
					var gotMs []apss.Match
					for _, it := range items[split:] {
						ms, err := second.Add(it)
						if err != nil {
							t.Fatal(err)
						}
						gotMs = append(gotMs, ms...)
					}
					if len(want) == 0 {
						t.Fatal("no matches after the split; the check is vacuous")
					}
					if !equalMatchesExact(gotMs, want) {
						t.Fatalf("resumed run diverged: %d vs %d matches", len(gotMs), len(want))
					}
					if got.Candidates != ref.Candidates || got.FullDots != ref.FullDots || got.EntriesTraversed != ref.EntriesTraversed {
						t.Fatalf("resumed run lost pruning:\nresumed       %+v\nuninterrupted %+v", got, ref)
					}
				})
			}
		}
	}
}

func TestCheckpointEmptyIndex(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	for _, kind := range []Kind{INV, L2, L2AP} {
		ix, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(ix, &buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(&buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		items := fuzzItems(1, 50)
		for _, it := range items {
			if _, err := restored.Add(it); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCheckpointTimeOrderEnforcedAfterRestore(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	ix, _ := New(L2, p, Options{})
	items := fuzzItems(2, 20)
	for _, it := range items {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := items[len(items)-1]
	old.Time -= 5
	if _, err := restored.Add(old); !errors.Is(err, ErrTimeOrder) {
		t.Fatalf("restored index accepted out-of-order item: %v", err)
	}
}

func TestCheckpointCorruptionRejected(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	ix, _ := New(L2AP, p, Options{})
	for _, it := range fuzzItems(3, 60) {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// bad magic
	bad := append([]byte("WRONGMAG"), raw[8:]...)
	if _, err := Load(bytes.NewReader(bad), Options{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad magic: %v", err)
	}
	// bad version
	bad = append([]byte{}, raw...)
	bad[8] = 0xFF
	if _, err := Load(bytes.NewReader(bad), Options{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad version: %v", err)
	}
	// truncations at many offsets
	for cut := len(raw) - 1; cut > 8; cut -= len(raw) / 17 {
		if _, err := Load(bytes.NewReader(raw[:cut]), Options{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestCheckpointCustomKernel(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	kern := apss.SlidingWindow{Tau: 4}
	ix, err := New(L2, p, Options{Kernel: kern})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range fuzzItems(4, 40) {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// without the kernel, Load must refuse
	if _, err := Load(bytes.NewReader(raw), Options{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("custom-kernel checkpoint loaded without kernel: %v", err)
	}
	// with it, restore works and continues exactly
	restored, err := Load(bytes.NewReader(raw), Options{Kernel: kern})
	if err != nil {
		t.Fatal(err)
	}
	more := fuzzItems(5, 40)
	base := 100.0
	for i := range more {
		more[i].Time += base
		more[i].ID += 1000
		if _, err := restored.Add(more[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSaveUnsupportedType(t *testing.T) {
	var fake fakeIndex
	if err := Save(fake, &bytes.Buffer{}); err == nil {
		t.Fatal("foreign index type accepted")
	}
}

type fakeIndex struct{}

func (fakeIndex) Add(stream.Item) ([]apss.Match, error) { return nil, nil }
func (fakeIndex) Size() SizeInfo                        { return SizeInfo{} }
func (fakeIndex) Params() apss.Params                   { return apss.Params{} }

func TestParamsSurviveCheckpoint(t *testing.T) {
	p := apss.Params{Theta: 0.65, Lambda: 0.02}
	for _, kind := range []Kind{INV, L2, L2AP} {
		ix, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(ix, &buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(&buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if restored.Params() != p {
			t.Fatalf("%v: params %+v want %+v", kind, restored.Params(), p)
		}
	}
}

// TestCheckpointRefusesShard: a cluster worker holds only its owned
// posting lists, which the format cannot tell from a whole index, so
// SaveFull refuses a worker and Load/LoadFull refuse to restore into
// one, both with ErrShard. A lone Shard{0, 1} is the sequential index
// and round-trips like it.
func TestCheckpointRefusesShard(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	items := fuzzItems(3, 60)
	worker := Shard{ID: 1, N: 2}
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		fill := func(opts Options) Index {
			t.Helper()
			ix, err := New(kind, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				if _, err := ix.Add(it); err != nil {
					t.Fatal(err)
				}
			}
			return ix
		}
		// The event-time section is larger than the write buffer, so a
		// refusal that came after it would leave a truncated prefix in buf.
		var buf bytes.Buffer
		et := &EventTimeState{Delta: 1, Buffered: fuzzItems(4, 400)}
		if err := SaveFull(fill(Options{Shard: worker}), et, &buf); !errors.Is(err, ErrShard) {
			t.Fatalf("%v: SaveFull of a worker: want ErrShard, got %v", kind, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%v: refused SaveFull wrote %d bytes", kind, buf.Len())
		}
		buf.Reset()
		if err := Save(fill(Options{Shard: Shard{ID: 0, N: 1}}), &buf); err != nil {
			t.Fatalf("%v: Save of a lone shard: %v", kind, err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), Options{Shard: worker}); !errors.Is(err, ErrShard) {
			t.Fatalf("%v: Load into a worker: want ErrShard, got %v", kind, err)
		}
		if _, _, err := LoadFull(bytes.NewReader(buf.Bytes()), Options{Shard: worker}); !errors.Is(err, ErrShard) {
			t.Fatalf("%v: LoadFull into a worker: want ErrShard, got %v", kind, err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), Options{Shard: Shard{ID: 0, N: 1}}); err != nil {
			t.Fatalf("%v: Load into a lone shard: %v", kind, err)
		}
	}
}
