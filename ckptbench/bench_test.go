package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// capsEqual compares two capability sets field by field: handles by
// presence, every other field by value. Reflection keeps the check
// honest when CapSet grows a field.
func capsEqual(t *testing.T, name string, got, want storage.CapSet) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		g, w := gv.Field(i), wv.Field(i)
		if f.Type.Kind() == reflect.Interface {
			if g.IsNil() != w.IsNil() {
				t.Errorf("%s: Caps().%s present=%v, unwrapped present=%v", name, f.Name, !g.IsNil(), !w.IsNil())
			}
			continue
		}
		if !reflect.DeepEqual(g.Interface(), w.Interface()) {
			t.Errorf("%s: Caps().%s = %v, unwrapped %v", name, f.Name, g.Interface(), w.Interface())
		}
	}
}

// TestTimedCapsMatch checks the wrapper at each of its three interposition
// points: on a Local, above Replicated and above remote.Client.
func TestTimedCapsMatch(t *testing.T) {
	dir := t.TempDir()
	w, _ := findWorkload("remote-mix")
	st, err := openStack(w, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	repl, err := storage.NewReplicatedDir(filepath.Join(dir, "repl"), replicas, writeQuorum)
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	tr := newTracer()
	for _, b := range []storage.Backend{local, repl, st.client} {
		wrapped := wrapBackend(b, tr, layerLocal)
		capsEqual(t, b.Name(), storage.Caps(wrapped), storage.Caps(b))
		if n := testing.AllocsPerRun(10, func() { storage.Caps(wrapped) }); n != 0 {
			t.Errorf("%s: Caps probe allocates %v times", b.Name(), n)
		}
	}
	if storage.Caps(st.client).Replication.Replicas != replicas {
		t.Fatalf("remote client reports %+v, want the server's %d replicas", storage.Caps(st.client).Replication, replicas)
	}
}

// shortRun saves and restores a fixed number of times through a freshly
// built stack and returns the Manager's counters (durations zeroed) and
// the bytes resident under each store directory after Close.
func shortRun(t *testing.T, w workload, dir string, tr *tracer) (core.Stats, map[string]int64) {
	t.Helper()
	gen, err := newGenerator(7, w.params)
	if err != nil {
		t.Fatal(err)
	}
	st, err := openStack(w, dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < anchorEvery*retain+3; k++ {
		if err := gen.step(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.mgr.Save(gen.state()); err != nil {
			t.Fatal(err)
		}
		if k%5 == 0 {
			got, _, err := core.LoadLatestBackendOptions(st.mgr.Backend(), nil, core.RestoreOptions{Workers: workers})
			if err != nil || !got.Equal(gen.state()) {
				t.Fatalf("restore after save %d: %v", k, err)
			}
		}
	}
	stats := st.mgr.Stats()
	stats.WriteTime, stats.EncodeTime = 0, 0
	if err := (&runner{st: st}).settle(); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, name := range append([]string{"."}, dirNames(entries)...) {
		if sizes[name], err = dirBytes(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return stats, sizes
}

func dirNames(entries []os.DirEntry) []string {
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestWrappersChangeNothing runs the same short workload with and without
// the timing wrappers and requires identical Manager counters and
// identical bytes on every leaf store.
func TestWrappersChangeNothing(t *testing.T) {
	for _, w := range []workload{{name: "local", params: 32768}, {name: "remote", params: 32768, remote: true}} {
		t.Run(w.name, func(t *testing.T) {
			plainStats, plainBytes := shortRun(t, w, filepath.Join(t.TempDir(), "s"), nil)
			tr := newTracer()
			wrappedStats, wrappedBytes := shortRun(t, w, filepath.Join(t.TempDir(), "s"), tr)
			if plainStats != wrappedStats {
				t.Errorf("Manager.Stats differ:\nplain   %+v\nwrapped %+v", plainStats, wrappedStats)
			}
			if !reflect.DeepEqual(plainBytes, wrappedBytes) {
				t.Errorf("leaf bytes differ: plain %v, wrapped %v", plainBytes, wrappedBytes)
			}
			var leafPutBytes int64
			for _, s := range tr.snapshot() {
				if s.l == layerLocal && isWrite(s.m) {
					leafPutBytes += s.bytes
				}
			}
			if leafPutBytes == 0 {
				t.Error("wrapped run recorded no leaf writes")
			}
		})
	}
}

// heldOutSeed is used by no documented benchmark run.
const heldOutSeed = 0x5eed_0ff_1ce

func payloadAfter(t *testing.T, seed uint64, steps, units int) []byte {
	t.Helper()
	g, err := newGenerator(seed, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if err := g.step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.units(units); err != nil {
		t.Fatal(err)
	}
	p, err := core.EncodePayload(g.state())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGeneratorHeldOutSeed checks on a seed no run uses that the same seed
// gives byte-identical states and another seed does not.
func TestGeneratorHeldOutSeed(t *testing.T) {
	a := payloadAfter(t, heldOutSeed, 3, 5)
	b := payloadAfter(t, heldOutSeed, 3, 5)
	if string(a) != string(b) {
		t.Fatal("same seed, different states")
	}
	if string(a) == string(payloadAfter(t, heldOutSeed+1, 3, 5)) {
		t.Fatal("different seeds, same state")
	}
	g, err := newGenerator(heldOutSeed, 4096)
	if err != nil {
		t.Fatal(err)
	}
	step := g.state().Step
	if err := g.units(2 * 4096); err != nil {
		t.Fatal(err)
	}
	if g.state().Step != step+1 || len(g.state().GradAccum) != 0 {
		t.Fatalf("a full step of units should advance Step by one and empty the accumulator")
	}
}

// TestGeneratorAllocs pins generation to the allocations the trainer's
// Capture also makes: the three MarshalBinary blobs.
func TestGeneratorAllocs(t *testing.T) {
	g, err := newGenerator(heldOutSeed, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.units(1); err != nil {
		t.Fatal(err)
	}
	capture := testing.AllocsPerRun(20, func() {
		g.opt.MarshalBinary()
		g.rngs.MarshalBinary()
		g.acc.MarshalBinary()
	})
	for name, op := range map[string]func(){
		"units": func() { g.units(4) },
		"step":  func() { g.step(); g.units(1) },
	} {
		want := capture
		if name == "step" {
			want = 2 * capture // step and units each capture once
		}
		if got := testing.AllocsPerRun(20, op); got > want {
			t.Errorf("%s allocates %v, the Capture blobs alone %v", name, got, want)
		}
	}
}

// TestLoopSchedule runs short phases of the two cycle shapes: a restore
// block once per cycle on one stack, and a fresh stack per cycle that
// ends at a cycle's end and times each rebuild as a set-up.
func TestLoopSchedule(t *testing.T) {
	const cycle = 2 * anchorEvery
	t.Run("block", func(t *testing.T) {
		w := workload{name: "block", params: 4096, restoreBlock: 2, cycle: cycle}
		r, err := runPhase(w, heldOutSeed, t.TempDir(), time.Second, plain)
		if err != nil || r.failed != 0 {
			t.Fatalf("run: %v %v", err, r.failures)
		}
		blocks := 0
		for k := 1; k <= len(r.saveMs); k++ {
			if k%cycle == cycle-anchorEvery+endChainLen-1 {
				blocks++
			}
		}
		if blocks == 0 || len(r.restoreMs) != 2*blocks {
			t.Fatalf("%d saves, %d restores: want 2 per block, %d blocks", len(r.saveMs), len(r.restoreMs), blocks)
		}
	})
	t.Run("fresh", func(t *testing.T) {
		w := workload{name: "fresh", params: 4096, remote: true, restoreEvery: 4, cycle: cycle, freshStacks: true}
		r, err := runPhase(w, heldOutSeed, t.TempDir(), time.Second, plain)
		if err != nil || r.failed != 0 {
			t.Fatalf("run: %v %v", err, r.failures)
		}
		cycles := len(r.saveMs) / cycle
		if len(r.saveMs)%cycle != 0 || cycles < 2 {
			t.Fatalf("%d saves: want at least two whole cycles of %d", len(r.saveMs), cycle)
		}
		if want := 2*setupRepeats + cycles - 1; len(r.setupS) != want {
			t.Fatalf("%d set-ups timed, want %d", len(r.setupS), want)
		}
		if len(r.restoreMs) != len(r.saveMs)/4 {
			t.Fatalf("%d restores after %d saves, want one per 4 saves", len(r.restoreMs), len(r.saveMs))
		}
	})
}

func TestIntervals(t *testing.T) {
	u := union([]interval{{5, 7}, {0, 2}, {1, 3}, {7, 8}, {10, 12}})
	if want := []interval{{0, 3}, {5, 8}, {10, 12}}; !reflect.DeepEqual(u, want) {
		t.Fatalf("union = %v, want %v", u, want)
	}
	if got := measure(u); got != 8 {
		t.Fatalf("measure = %d, want 8", got)
	}
	x := intersect(u, []interval{{2, 6}, {11, 20}})
	if want := []interval{{2, 3}, {5, 6}, {11, 12}}; !reflect.DeepEqual(x, want) {
		t.Fatalf("intersect = %v, want %v", x, want)
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, program %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, d, m)
		}
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, d, m)
		}
	}
}
