// Command ckptbench is the checkpointing benchmark: one closed-loop
// training client drives the real core.Manager / LoadLatestBackendOptions
// stack (and, for remote-mix, server.New and remote.Client over loopback)
// and reports end-to-end metrics from an untraced run, or per-layer
// metrics from a traced one.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash ckptbench/run.sh --workload step-save --seed 1 --seconds 36 --trace 0
//
// Stores live on tmpfs (/dev/shm): on the ext4 virtual disk of a 2-vCPU
// Firecracker VM the step-save p50 swung from 55 to 143 ms between
// back-to-back runs and dirty-page writeback slowed the next run.
// storage.Local keeps its whole temp-file, fsync, rename and
// directory-sync path there, so the flush policy is the program's own;
// latencies are the VM's, not a device's. Without /dev/shm the stores go
// under .bench_build and the output says so.
//
// The bounded timings are process CPU time per set-up, save and restore;
// wall-clock figures are printed beside them without a bound, because on
// a shared host they move with other guests' load (see endToEnd).
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Any failed save or restore, or a restore that is not bitwise equal to
// the state saved, makes the run exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir  = ".bench_build"
	shmDir    = "/dev/shm"
	shmPrefix = "qckpt-bench-"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench:", err)
		os.Exit(2)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: step-save, unit-save or remote-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 36, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: --workload step-save|unit-save|remote-mix --seed N --seconds N --trace 0|1")
	}

	base, tmpfs, err := storeBase()
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(base)
		os.Exit(130)
	}()

	fmt.Printf("ckptbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("why: %s\n", w.why)
	if tmpfs {
		fmt.Printf("stores: tmpfs %s (Local keeps temp file + fsync + rename + dir sync; latencies are this machine's, not a device's)\n", base)
	} else {
		fmt.Printf("stores: NO TMPFS (%s unusable), stores on %s: disk latencies are noisy and not comparable with tmpfs runs\n", shmDir, base)
	}

	loop := time.Duration(*seconds) * time.Second
	out := output{Metrics: map[string]metricValue{}}
	if *trace == 0 {
		r, err := runPhase(w, uint64(*seed), base, loop, plain)
		if err != nil {
			return err
		}
		printSizes(w, r)
		out.add(r)
		values := endToEndValues(r)
		printEndToEnd(w, r, values)
		out.set(endToEnd, values)
	} else {
		// A quarter reference, half traced, a quarter reference: the traced
		// median minus the pooled reference median is the tracing
		// overhead, with warm-up and drift falling on both sides alike.
		before, err := runPhase(w, uint64(*seed), base, loop/4, reference)
		if err != nil {
			return err
		}
		tr, err := runPhase(w, uint64(*seed), base, loop/2, traced)
		if err != nil {
			return err
		}
		after, err := runPhase(w, uint64(*seed), base, loop-loop/4-loop/2, reference)
		if err != nil {
			return err
		}
		ref := &result{
			setupWallS:   append(before.setupWallS, after.setupWallS...),
			saveMs:       append(before.saveMs, after.saveMs...),
			restoreMs:    append(before.restoreMs, after.restoreMs...),
			payloadBytes: before.payloadBytes + after.payloadBytes,
		}
		printSizes(w, tr)
		out.add(before)
		out.add(tr)
		out.add(after)
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.tsv.gz", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeSpans(path, tr.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		values := perLayerValues(w, tr, ref)
		for _, m := range perLayer {
			fmt.Printf("  %-40s %14.4f %s\n", m.name, values[m.name], m.unit)
		}
		out.set(perLayer, values)
	}
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.RemoveAll(base)
		os.Exit(1)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	failures  []string
}

func (o *output) add(r *result) {
	o.Attempted += r.attempted
	o.Failed += r.failed
	o.Correct = o.Failed == 0
	o.failures = append(o.failures, r.failures...)
}

func (o *output) set(specs []metricSpec, values map[string]float64) {
	for _, m := range specs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		o.Metrics[m.name] = metricValue{v, m.unit}
	}
}

func printSizes(w workload, r *result) {
	chunks := (r.finalPayload + chunkBytes - 1) / chunkBytes
	cache := "recovery cache 64 MiB"
	if w.remote {
		cache += fmt.Sprintf(", origin cache %d MiB, %d replicas W=%d", originCacheBytes>>20, replicas, writeQuorum)
	}
	fmt.Printf("sizes: P=%d payload=%d B (%d chunks of %d KiB), AnchorEvery=%d Retain=%d Workers=%d, %s\n",
		w.params, r.finalPayload, chunks, chunkBytes>>10, anchorEvery, retain, workers, cache)
	fmt.Printf("samples: saves=%d restores=%d\n", len(r.saveMs), len(r.restoreMs))
}

// printEndToEnd prints every end-to-end metric, including the three the
// JSON line leaves out because they are zero by design on some workload:
// wire bytes (no wire on the local workloads) and op_error_ratio (zero on
// a correct run; the JSON carries it as failed/attempted).
func printEndToEnd(w workload, r *result, values map[string]float64) {
	for _, m := range endToEnd {
		fmt.Printf("  %-30s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	wall := wallValues(r)
	for _, m := range perLayer {
		if x, ok := wall[m.name]; ok {
			fmt.Printf("  %-30s %14.4f %s (no bound)\n", m.name, x, m.unit)
		}
	}
	if w.remote {
		fmt.Printf("  %-30s %14.4f bytes\n", "wire_bytes_per_save", ratio(float64(r.wireSave), float64(len(r.saveMs))))
		fmt.Printf("  %-30s %14.4f bytes\n", "wire_bytes_per_restore", ratio(float64(r.wireRestore), float64(len(r.restoreMs))))
	} else {
		fmt.Printf("  %-30s %14s bytes\n", "wire_bytes_per_save", "n/a (no wire)")
		fmt.Printf("  %-30s %14s bytes\n", "wire_bytes_per_restore", "n/a (no wire)")
	}
	fmt.Printf("  %-30s %14.4f ratio (%d/%d)\n", "op_error_ratio", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
}

// storeBase makes this run's private store directory on tmpfs, falling
// back to the build directory when /dev/shm is unusable. Directories left
// by earlier runs that were killed are removed first.
func storeBase() (dir string, tmpfs bool, err error) {
	sweepStale()
	if dir, err := os.MkdirTemp(shmDir, fmt.Sprintf("%s%d-", shmPrefix, os.Getpid())); err == nil {
		return dir, true, nil
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", false, err
	}
	dir, err = os.MkdirTemp(buildDir, "stores-")
	if err != nil {
		return "", false, err
	}
	abs, err := filepath.Abs(dir)
	return abs, false, err
}

// sweepStale removes store directories whose owning process is gone.
func sweepStale() {
	dirs, _ := filepath.Glob(filepath.Join(shmDir, shmPrefix+"*")) // only a malformed pattern errs
	for _, d := range dirs {
		rest := strings.TrimPrefix(filepath.Base(d), shmPrefix)
		pid, err := strconv.Atoi(rest[:max(strings.IndexByte(rest, '-'), 0)])
		if err != nil || pid == os.Getpid() {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			os.RemoveAll(d)
		}
	}
}
