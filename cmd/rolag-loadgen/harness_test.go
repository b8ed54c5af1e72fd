package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"rolag/internal/cluster"
)

// TestScheduleGolden pins the first 32 picks of each mode's schedule at
// the default seed and corpus size, so a harness change cannot silently
// alter the request sequence behind the committed results/BENCH_*.json
// records. The default mode draws a direct-shard coin after every key;
// -chaos and -fleet send everything through the router and draw none.
func TestScheduleGolden(t *testing.T) {
	defaultPicks := []pick{
		{25, true, 0}, {4, false, 0}, {0, false, 0}, {2, false, 0}, {4, false, 0}, {0, true, 0},
		{87, false, 0}, {0, true, 0}, {5, true, 0}, {5, false, 0}, {8, false, 0}, {3, false, 0},
		{0, false, 0}, {0, false, 0}, {4, false, 0}, {9, false, 0}, {0, false, 0}, {0, false, 0},
		{49, false, 0}, {2, false, 0}, {0, false, 0}, {3, false, 0}, {3, false, 0}, {296, false, 0},
		{16, false, 0}, {45, false, 0}, {1, false, 0}, {235, false, 0}, {0, false, 0}, {4, false, 0},
		{19, false, 0}, {0, false, 0},
	}
	var routerOnly []pick
	for _, idx := range []int{
		25, 178, 4, 0, 0, 0, 2, 0, 4, 13, 0, 65, 87, 1, 0, 103,
		5, 50, 5, 13, 8, 19, 3, 12, 0, 2, 0, 7, 4, 0, 9, 0,
	} {
		routerOnly = append(routerOnly, pick{idx: idx})
	}
	for _, tc := range []struct {
		mode       string
		directFrac float64
		want       []pick
	}{
		{"default", directFrac, defaultPicks},
		{"chaos", 0, routerOnly},
		{"fleet", 0, routerOnly},
	} {
		picks := schedule(400, 2000, 200, tc.directFrac)
		var got []pick
		for _, p := range picks[:len(tc.want)] {
			got = append(got, pick{idx: p.idx, direct: p.direct})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s schedule drifted:\n got %v\nwant %v", tc.mode, got, tc.want)
		}
		for i := 1; i < len(picks); i++ {
			if picks[i].at < picks[i-1].at {
				t.Fatalf("%s: arrival %d at %v precedes arrival %d at %v", tc.mode, i, picks[i].at, i-1, picks[i-1].at)
			}
		}
		// 2000 Poisson arrivals at 200/s end near 10 s; the default seed's
		// last one lands at 9.99 s.
		if last := picks[len(picks)-1].at; last < 9900*time.Millisecond || last > 10100*time.Millisecond {
			t.Errorf("%s: last arrival at %v, want about 10s", tc.mode, last)
		}
	}
}

// TestHarnessParity drives a small in-process cluster and checks the
// parity rule both ways: a clean run matches the serial reference on
// every reply, and a corrupted reference entry is reported once per
// reply for that key.
func TestHarnessParity(t *testing.T) {
	cfg := config{shards: 2, n: 40, requests: 60, rate: 600, timeout: 30 * time.Second}
	h, err := newHarness(cfg, slog.LevelError, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if err := h.startRouter(cluster.Config{}); err != nil {
		t.Fatal(err)
	}
	picks := schedule(cfg.n, cfg.requests, cfg.rate, directFrac)
	got := h.drive(picks)
	if got.Errors != 0 || got.Completed != int64(cfg.requests) || len(got.lat) != cfg.requests {
		t.Fatalf("clean run: %d errors, %d completed, %d latencies; want 0, %d, %d",
			got.Errors, got.Completed, len(got.lat), cfg.requests, cfg.requests)
	}
	if got.Parity.Checked != int64(cfg.requests) || got.Parity.Mismatched != 0 {
		t.Fatalf("clean run: parity %+v, want %d checked and none mismatched", got.Parity, cfg.requests)
	}

	corrupt := picks[0].idx
	h.ref[corrupt] += "; corrupted"
	var want int64
	for _, p := range picks {
		if p.idx == corrupt {
			want++
		}
	}
	if got := h.drive(picks); got.Parity.Mismatched != want {
		t.Fatalf("corrupted reference for corpus[%d]: %d mismatches, want %d", corrupt, got.Parity.Mismatched, want)
	}
}

// TestChaosRestartsAfterShortTail runs a chaos schedule whose tail after
// the kill is shorter than the restart delay. The victim must still be
// restarted before its counters are read: the record shows the full
// downtime and the entries the restarted daemon loaded from its
// snapshot. The warm-restart gate itself fails here by design, since no
// request follows the restart.
func TestChaosRestartsAfterShortTail(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chaos.json")
	cfg := config{shards: 2, n: 40, requests: 60, rate: 100, timeout: 2 * time.Second, out: out}
	picks := schedule(cfg.n, cfg.requests, cfg.rate, 0)
	if tail := picks[len(picks)-1].at - picks[int(chaosKillFrac*float64(cfg.requests))].at; tail >= chaosRestartDelay {
		t.Fatalf("schedule tail after the kill is %v, want it shorter than the %v restart delay", tail, chaosRestartDelay)
	}
	runChaos(cfg)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res ChaosResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Victim.DownMs < float64(chaosRestartDelay/time.Millisecond) {
		t.Errorf("victim %s down %.0fms, want it restarted after %v", res.Victim.Shard, res.Victim.DownMs, chaosRestartDelay)
	}
	if res.Victim.SnapshotEntries == 0 {
		t.Errorf("restarted victim %s loaded no snapshot entries", res.Victim.Shard)
	}
}

// TestCommittedRecords checks each committed record against its result
// type: it keeps its schema, decodes with no unknown field, and encodes
// back with the same key set. The cluster record also passes the -check
// gate against itself.
func TestCommittedRecords(t *testing.T) {
	for _, tc := range []struct {
		file, schema string
		rec          any
	}{
		{"BENCH_cluster.json", Schema, &Result{}},
		{"BENCH_chaos.json", ChaosSchema, &ChaosResult{}},
		{"BENCH_fleet.json", FleetSchema, &FleetResult{}},
	} {
		path := filepath.Join("..", "..", "results", tc.file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var head struct{ Schema string }
		if err := json.Unmarshal(data, &head); err != nil || head.Schema != tc.schema {
			t.Fatalf("%s: schema %q (%v), want %q", tc.file, head.Schema, err, tc.schema)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.rec); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		back, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keySet(t, back), keySet(t, data); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the key set:\n got %v\nwant %v", tc.file, got, want)
		}
		if res, ok := tc.rec.(*Result); ok {
			if err := gate(res, path, 3); err != nil {
				t.Errorf("%s fails the -check gate against itself: %v", tc.file, err)
			}
		}
	}
}

// keySet lists every object key in a JSON document as a dotted path;
// array elements share their array's path.
func keySet(t *testing.T, data []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				seen[prefix+k] = true
				walk(prefix+k+".", e)
			}
		case []any:
			for _, e := range v {
				walk(prefix, e)
			}
		}
	}
	walk("", doc)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
