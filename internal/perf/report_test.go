package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sssj/internal/harness"
	"sssj/internal/metrics"
)

// sampleFile builds a valid two-scenario file with distinguishable
// numbers in every field group.
func sampleFile() *File {
	return &File{
		Schema: Schema, Version: SchemaVersion,
		GoVersion: "go1.24", GOMAXPROCS: 1,
		Scale: 0.25, Seed: 1, BudgetSec: 10,
		Reports: []Report{
			{
				Scenario: Scenario{Name: "RCV1/STR-L2/t0.70/w1", Profile: "RCV1", Framework: "STR", Index: "L2", Theta: 0.7, Lambda: 0.01},
				Items:    1000, Pairs: 42, ElapsedSec: 0.5, Completed: true,
				ItemsPerSec: 2000, PairsPerSec: 84,
				Latency:  LatencySummary{P50: 1e4, P90: 3e4, P99: 9e4, Mean: 1.5e4, Max: 2e5, Count: 1000},
				Alloc:    AllocStats{Bytes: 1 << 20, Objects: 5000, BytesPerItem: 1048.576, ObjsPerItem: 5},
				Index:    IndexStats{PostingEntries: 321, Residuals: 100, Lists: 50, TrackedDims: 0},
				Counters: metrics.Counters{Items: 1000, EntriesTraversed: 12345, Pairs: 42},
			},
			{
				Scenario: Scenario{Name: "RCV1/MB-L2/t0.70/w1", Profile: "RCV1", Framework: "MB", Index: "L2", Theta: 0.7, Lambda: 0.01},
				Items:    1000, Pairs: 42, ElapsedSec: 0.8, Completed: true, ItemsPerSec: 1250,
			},
		},
	}
}

func TestFileJSONRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip changed the file:\n  wrote %+v\n  read  %+v", f, got)
	}
}

func TestFileSchemaFieldNames(t *testing.T) {
	// The serialized field names are the schema contract README
	// documents; renaming one must be a conscious version bump, so pin
	// the load-bearing ones.
	var buf bytes.Buffer
	if err := Write(&buf, sampleFile()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for _, key := range []string{
		`"schema": "sssj-bench"`, `"schema_version": 1`,
		`"items_per_sec"`, `"pairs_per_sec"`, `"latency_ns"`, `"p99"`,
		`"bytes_per_item"`, `"posting_entries"`, `"entries_traversed"`,
		`"scenario"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("serialized file lacks schema field %s", key)
		}
	}
}

func TestReadRejectsBadEnvelope(t *testing.T) {
	cases := map[string]func(*File){
		"wrong schema":    func(f *File) { f.Schema = "other-tool" },
		"version zero":    func(f *File) { f.Version = 0 },
		"version too new": func(f *File) { f.Version = SchemaVersion + 1 },
		"no reports":      func(f *File) { f.Reports = nil },
		"empty name":      func(f *File) { f.Reports[0].Scenario.Name = "" },
		"duplicate name":  func(f *File) { f.Reports[1].Scenario.Name = f.Reports[0].Scenario.Name },
	}
	for name, corrupt := range cases {
		f := sampleFile()
		corrupt(f)
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		if _, err := Read(&buf); err == nil {
			t.Errorf("%s: Read accepted a bad file", name)
		}
	}
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Errorf("Read accepted malformed JSON")
	}
}

func TestReadAcceptsOlderVersion(t *testing.T) {
	// Forward compatibility contract: files written at any version
	// 1..SchemaVersion must load. (A no-op today with one version; the
	// test is the tripwire that keeps it true when version 2 lands.)
	f := sampleFile()
	f.Version = 1
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
}

func TestFromResult(t *testing.T) {
	lat := metrics.NewHistogram()
	for i := 0; i < 100; i++ {
		lat.Observe(1e4)
	}
	res := harness.Result{
		Dataset: "RCV1", Framework: "STR", Index: "L2",
		Elapsed: 2 * time.Second, Completed: true, Matches: 10,
	}
	res.Stats.Items = 500
	res.Stats.EntriesTraversed = 999
	res.IndexSize.PostingEntries = 77
	s := Scenario{Profile: "RCV1", Framework: "STR", Index: "L2", Theta: 0.7, Lambda: 0.01}
	r := FromResult(s, res, lat, 2048, 100)

	if r.Scenario.Name != "RCV1/STR-L2/t0.70/w1" {
		t.Errorf("derived name = %q", r.Scenario.Name)
	}
	if r.ItemsPerSec != 250 || r.PairsPerSec != 5 {
		t.Errorf("throughput = %v items/s %v pairs/s, want 250/5", r.ItemsPerSec, r.PairsPerSec)
	}
	if r.Alloc.BytesPerItem != 2048.0/500 || r.Alloc.ObjsPerItem != 0.2 {
		t.Errorf("alloc per item = %v B %v objs", r.Alloc.BytesPerItem, r.Alloc.ObjsPerItem)
	}
	if r.Latency.Count != 100 || r.Latency.P50 != 1e4 {
		t.Errorf("latency = %+v, want count 100 p50 1e4", r.Latency)
	}
	if r.Index.PostingEntries != 77 {
		t.Errorf("index stats not carried over: %+v", r.Index)
	}
	if r.Counters.EntriesTraversed != 999 {
		t.Errorf("counters not carried over: %+v", r.Counters)
	}
}

func TestRunScenarioSmoke(t *testing.T) {
	// One tiny real run end to end: the report must have consistent,
	// non-degenerate measurements.
	s := Scenario{Profile: "RCV1", Framework: "STR", Index: "L2", Theta: 0.7, Lambda: 0.01}
	r, err := RunScenario(s, RunConfig{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if !r.Completed {
		t.Fatalf("unbudgeted run not completed")
	}
	if r.Items != 200 { // RCV1 n=4000 × 0.05
		t.Errorf("items = %d, want 200", r.Items)
	}
	if r.ItemsPerSec <= 0 || r.Latency.Count != r.Items || r.Latency.P99 < r.Latency.P50 {
		t.Errorf("degenerate measurements: %+v", r)
	}
	if r.Index.PostingEntries <= 0 {
		t.Errorf("STR run reported empty index: %+v", r.Index)
	}
	// Same stream, same engine → same pair count: determinism is what
	// makes cross-PR pair comparison meaningful.
	r2, err := RunScenario(s, RunConfig{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Pairs != r.Pairs {
		t.Errorf("pairs not deterministic: %d vs %d", r.Pairs, r2.Pairs)
	}
}

func TestRunScenarioRejectsBadCombos(t *testing.T) {
	for _, s := range []Scenario{
		{Profile: "RCV1", Framework: "XX", Index: "L2", Theta: 0.7, Lambda: 0.01},
		{Profile: "RCV1", Framework: "STR", Index: "NOPE", Theta: 0.7, Lambda: 0.01},
		{Profile: "RCV1", Framework: "STR", Index: "AP", Theta: 0.7, Lambda: 0.01}, // AP is MB-only
		{Profile: "NoSuch", Framework: "STR", Index: "L2", Theta: 0.7, Lambda: 0.01},
		{Profile: "RCV1", Framework: "STR", Index: "L2", Theta: 0, Lambda: 0.01},              // bad θ
		{Profile: "RCV1", Framework: "MB", Index: "L2", Theta: 0.7, Lambda: 0.01, Cluster: 2}, // cluster is STR-only
	} {
		if _, err := RunScenario(s, RunConfig{Scale: 0.01}); err == nil {
			t.Errorf("RunScenario accepted bad scenario %+v", s)
		}
	}
}

func TestDefaultScenarios(t *testing.T) {
	scs := DefaultScenarios()
	if len(scs) < 8 {
		t.Fatalf("matrix has %d scenarios, acceptance floor is 8", len(scs))
	}
	names := make(map[string]bool)
	for _, s := range scs {
		if s.Name == "" {
			t.Errorf("unnamed scenario %+v", s)
		}
		if names[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
	}
	if got := len(FilterByProfile(scs, "RCV1")); got != 14 {
		t.Errorf("FilterByProfile(RCV1) = %d scenarios, want 14", got)
	}
	if got := len(FilterByProfile(scs, "")); got != len(scs) {
		t.Errorf("empty filter dropped scenarios")
	}
	// The foreign-join cross-section is part of the standing matrix, and
	// its names carry the mode so they can never collide with (or be
	// compared against) the self-join scenarios.
	foreignN := 0
	for _, s := range scs {
		if s.foreign() {
			foreignN++
			if !strings.Contains(s.Name, "/foreign") {
				t.Errorf("foreign scenario name %q lacks the /foreign tag", s.Name)
			}
		}
	}
	if foreignN != 4 {
		t.Errorf("matrix has %d foreign scenarios, want 4", foreignN)
	}
	// Likewise the bounded-lateness cross-section, tagged /lat<δ>.
	reorderN := 0
	for _, s := range scs {
		if s.Reorder {
			reorderN++
			if !strings.Contains(s.Name, "/lat") {
				t.Errorf("reorder scenario name %q lacks the /lat tag", s.Name)
			}
		}
	}
	if reorderN != 2 {
		t.Errorf("matrix has %d reorder scenarios, want 2", reorderN)
	}
	// And the cluster-tier cross-section, tagged /cluster<N>.
	clusterN := 0
	for _, s := range scs {
		if s.Cluster > 0 {
			clusterN++
			if !strings.Contains(s.Name, "/cluster") {
				t.Errorf("cluster scenario name %q lacks the /cluster tag", s.Name)
			}
		}
	}
	if clusterN != 2 {
		t.Errorf("matrix has %d cluster scenarios, want 2", clusterN)
	}
	// And the multi-tenant scenario, tagged /mt<N>.
	mtN := 0
	for _, s := range scs {
		if s.Sessions > 0 {
			mtN++
			if !strings.Contains(s.Name, "/mt") {
				t.Errorf("sessions scenario name %q lacks the /mt tag", s.Name)
			}
		}
	}
	if mtN != 1 {
		t.Errorf("matrix has %d multi-tenant scenarios, want 1", mtN)
	}
	// And the self-tuning cross-section, tagged /adapt.
	adaptN := 0
	for _, s := range scs {
		if s.Adaptive {
			adaptN++
			if !strings.Contains(s.Name, "/adapt") {
				t.Errorf("adaptive scenario name %q lacks the /adapt tag", s.Name)
			}
		}
	}
	if adaptN != 2 {
		t.Errorf("matrix has %d adaptive scenarios, want 2", adaptN)
	}
}

// TestRunSessionsScenario smoke-runs the multi-tenant scenario end to
// end: the run completes, counts every item exactly once across the
// tenants, and Sessions is STR-only.
func TestRunSessionsScenario(t *testing.T) {
	mt := Scenario{Profile: "RCV1", Framework: harness.FrameworkSTR, Index: "L2",
		Theta: 0.7, Lambda: 0.01, Sessions: 4}
	cfg := RunConfig{Scale: 0.05, Repeats: 1}
	r, err := RunScenario(mt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Items == 0 {
		t.Fatalf("sessions run: completed=%v items=%d", r.Completed, r.Items)
	}
	if r.Counters.Items != r.Items {
		t.Fatalf("tenants counted %d items, stream has %d — round-robin lost items", r.Counters.Items, r.Items)
	}
	bad := mt
	bad.Framework = harness.FrameworkMB
	if _, err := RunScenario(bad, cfg); err == nil {
		t.Fatal("Sessions on MB accepted")
	}
}

// TestRunAdaptScenario smoke-runs the self-tuning scenario end to end:
// the run completes, its pair count equals the static INV run's over
// the same stream (the output-invariance contract at the perf layer),
// and Adaptive is plain-STR-only.
func TestRunAdaptScenario(t *testing.T) {
	ad := Scenario{Profile: "RCV1", Framework: harness.FrameworkSTR, Index: "AUTO",
		Theta: 0.7, Lambda: 0.01, Adaptive: true}
	cfg := RunConfig{Scale: 0.05, Repeats: 1}
	r, err := RunScenario(ad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Items == 0 {
		t.Fatalf("adaptive run: completed=%v items=%d", r.Completed, r.Items)
	}
	static := ad
	static.Index, static.Adaptive = "INV", false
	sr, err := RunScenario(static, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs != sr.Pairs {
		t.Fatalf("adaptive run found %d pairs, static INV %d — self-tuning changed the output", r.Pairs, sr.Pairs)
	}
	bad := ad
	bad.Framework = harness.FrameworkMB
	if _, err := RunScenario(bad, cfg); err == nil {
		t.Fatal("Adaptive on MB accepted")
	}
	bad = ad
	bad.Framework, bad.Cluster = harness.FrameworkSTR, 2
	if _, err := RunScenario(bad, cfg); err == nil {
		t.Fatal("Adaptive cluster scenario accepted")
	}
}

// TestRunReorderScenario: the reorder stage re-sorts its shuffled input,
// so a reorder scenario must report exactly the pairs of its plain twin
// on the same stream; Lateness without Reorder is rejected.
func TestRunReorderScenario(t *testing.T) {
	plain := Scenario{Profile: "RCV1", Framework: harness.FrameworkSTR, Index: "L2",
		Theta: 0.5, Lambda: 0.01}
	reorder := plain
	reorder.Reorder, reorder.Lateness = true, 500
	cfg := RunConfig{Scale: 0.05, Repeats: 1}
	rp, err := RunScenario(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunScenario(reorder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Pairs == 0 || rr.Pairs != rp.Pairs {
		t.Fatalf("reorder run found %d pairs, plain %d — the stage must re-sort exactly", rr.Pairs, rp.Pairs)
	}
	bad := plain
	bad.Lateness = 500 // no Reorder
	if _, err := RunScenario(bad, cfg); err == nil {
		t.Fatal("Lateness without Reorder accepted")
	}
}

// TestRunForeignScenario smoke-runs one foreign scenario end to end and
// checks it reports fewer pairs than its self-join twin on the same
// stream (the gate must actually remove same-side pairs).
func TestRunForeignScenario(t *testing.T) {
	self := Scenario{Profile: "RCV1", Framework: harness.FrameworkSTR, Index: "L2",
		Theta: 0.5, Lambda: 0.01}
	foreign := self
	foreign.Join = "foreign"
	cfg := RunConfig{Scale: 0.02, Seed: 3, Repeats: 1}
	rs, err := RunScenario(self, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := RunScenario(foreign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Pairs == 0 {
		t.Fatal("self scenario found no pairs; smoke test vacuous")
	}
	if rf.Pairs == 0 || rf.Pairs >= rs.Pairs {
		t.Fatalf("foreign pairs %d vs self %d: want 0 < foreign < self", rf.Pairs, rs.Pairs)
	}
}

// TestRunClusterScenario: a cluster scenario boots a real in-process
// worker tier, so it must report exactly the pairs of its plain twin on
// the same stream — the parity the cluster subsystem guarantees, here
// verified through the perf path end to end.
func TestRunClusterScenario(t *testing.T) {
	plain := Scenario{Profile: "RCV1", Framework: harness.FrameworkSTR, Index: "L2",
		Theta: 0.5, Lambda: 0.01}
	clustered := plain
	clustered.Cluster = 2
	cfg := RunConfig{Scale: 0.05, Seed: 2, Repeats: 1}
	rp, err := RunScenario(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RunScenario(clustered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Pairs == 0 || rc.Pairs != rp.Pairs {
		t.Fatalf("cluster run found %d pairs, plain %d — the tier must be bit-identical", rc.Pairs, rp.Pairs)
	}
	if rc.Index.PostingEntries == 0 {
		t.Errorf("cluster run reported empty aggregated index: %+v", rc.Index)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	if err := WriteFile(path, sampleFile()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(f.Reports) != 2 {
		t.Fatalf("read %d reports, want 2", len(f.Reports))
	}
	// Artifact must be indented (committed-file readability contract).
	raw, _ := json.Marshal(sampleFile())
	if onDisk, _ := os.ReadFile(path); len(onDisk) <= len(raw) {
		t.Errorf("artifact not indented: %d bytes vs compact %d", len(onDisk), len(raw))
	}
}
