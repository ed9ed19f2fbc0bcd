// Command perfbench is the repository's end-to-end benchmark. It
// drives the APNA data path (host seal → border egress → transit →
// ingress → host open) and the control-plane operations (issue, renew,
// connect, complain → receipt, shutoff) through their public
// functions, checks every output, and prints one JSON result line.
//
//	go run . --workload fwd-small-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it prints per-layer metrics instead, measured from
// spans around the calls the benchmark makes. README.md documents the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// plan is one workload: the data-plane configuration, which plane is
// the main phase, and the phase sizes per second of --seconds.
type plan struct {
	fwd      fwdConfig
	ctrlMain bool
	// batchesPerSec and roundsPerSec turn --seconds into fixed
	// operation counts; they are sized so one run measures about
	// --seconds on a 2-vCPU x86-64 VM.
	batchesPerSec int
	roundsPerSec  int
}

var plans = map[string]plan{
	"fwd-small-cold": {fwd: smallCold, batchesPerSec: 6000, roundsPerSec: 1000},
	"fwd-mtu-hot":    {fwd: mtuHot, batchesPerSec: 3000, roundsPerSec: 1000},
	"ctrl":           {fwd: smallHot, ctrlMain: true, batchesPerSec: 20000, roundsPerSec: 1000},
}

// mainShare is the part of a run the main phase gets; the other plane
// runs after it, in its own timed phase, so every run reports every
// metric.
const mainShare = 0.5

// setupRepeats is how many times a run builds its worlds; setup_s is
// the median.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// spans, when set, is the directory the traced run writes its
	// spans to.
	spans string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: fwd-small-cold, fwd-mtu-hot or ctrl")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run (sets the fixed operation counts)")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	fs.StringVar(&o.spans, "spans", "", "directory for the traced run's spans (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := plans[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sizes fixes a run's operation counts.
type sizes struct {
	batches, rounds         int
	warmBatches, warmRounds int
}

func sizesFor(p plan, seconds int) sizes {
	fwdShare, ctrlShare := 1-mainShare, mainShare
	if !p.ctrlMain {
		fwdShare, ctrlShare = mainShare, 1-mainShare
	}
	s := sizes{
		batches: int(float64(p.batchesPerSec*seconds) * fwdShare),
		rounds:  int(float64(p.roundsPerSec*seconds) * ctrlShare),
	}
	s.batches = max(s.batches, 8)
	s.rounds = max(s.rounds, 4)
	s.warmBatches = max(s.batches/20, 4)
	s.warmRounds = max(s.rounds/20, 2)
	return s
}

func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	p := plans[o.workload]
	res, lines, err := measure(o, p, sizesFor(p, o.seconds), nil, nil)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(out))
	return err
}

// phase is one timed phase's wall and thread CPU seconds and runtime
// counters.
type phase struct {
	wall, cpu    float64
	mallocs, gcs uint64
	pauseNs      uint64
}

func timePhase(fn func()) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := threadCPU()
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	cpu := threadCPU() - c0
	runtime.ReadMemStats(&m1)
	return phase{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     uint64(m1.NumGC - m0.NumGC),
		pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// measure runs one workload and assembles its result. Tests pass
// faults to check that the correctness gates catch damage.
func measure(o options, p plan, sz sizes, ff *fwdFault, cf *ctrlFault) (result, []string, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var fr *fwdRig
	var cr *ctrlRig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		fr, cr = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if fr, err = newFwdRig(p.fwd, o.seed); err != nil {
			return result{}, nil, fmt.Errorf("data-plane setup: %w", err)
		}
		if cr, err = newCtrlRig(ctrlStd, o.seed); err != nil {
			return result{}, nil, fmt.Errorf("control-plane setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if err := cr.enableReplay(o.seed); err != nil {
			return result{}, nil, err
		}
	}

	// One warm-up pass over both planes, untimed.
	var warmF fwdStats
	var warmC ctrlStats
	fr.runBatches(sz.warmBatches, &warmF, nil, nil)
	cr.runRounds(sz.warmRounds, &warmC, nil, nil)

	var fs fwdStats
	var cs ctrlStats
	// Traced runs alternate blocks with and without spans, so the
	// tracing overhead is measured inside one process: over[0] sums
	// the untraced blocks' latencies, over[1] the traced blocks'.
	var fwdOver, ctrlOver [2]latSum
	alternate := func(total, block int, over *[2]latSum, run func(n int, t *tracer), lat func() latSum) {
		if tr == nil {
			run(total, nil)
			return
		}
		for done := 0; done < total; done += block {
			k := (done / block) % 2
			var t *tracer
			if k == 1 {
				t = tr
			}
			before := lat()
			run(min(block, total-done), t)
			after := lat()
			over[k].us += after.us - before.us
			over[k].n += after.n - before.n
		}
	}
	fwdPhase := func() {
		alternate(sz.batches, 32, &fwdOver, func(n int, t *tracer) { fr.runBatches(n, &fs, t, ff) }, fs.latTotal)
	}
	ctrlPhase := func() {
		alternate(sz.rounds, 8, &ctrlOver, func(n int, t *tracer) { cr.runRounds(n, &cs, t, cf) }, cs.latTotal)
	}
	// Each plane's world is dropped once its phase is over, so the
	// other phase's collector does not trace it.
	var sealAllocs, openAllocs float64
	fwdDone := func() {
		sealAllocs, openAllocs = sessionAllocs(fr)
		fr = nil
	}
	var mainPh, otherPh phase
	var mainOps int64
	var over [2]latSum
	if p.ctrlMain {
		mainPh = timePhase(ctrlPhase)
		cr = nil
		otherPh = timePhase(fwdPhase)
		fwdDone()
		mainOps, over = cs.attempts, ctrlOver
	} else {
		mainPh = timePhase(fwdPhase)
		fwdDone()
		otherPh = timePhase(ctrlPhase)
		mainOps, over = fs.frames, fwdOver
	}

	res := result{
		Attempted: warmF.attempts + warmC.attempts + fs.attempts + cs.attempts,
		Failed:    warmF.failures + warmC.failures + fs.failures + cs.failures,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !o.trace {
		put("pps", blockRate(fs.routerNs, p.fwd.batch), "1/s")
		put("msg_lat_p50_us", quantile(fs.latUs, 0.50), "us")
		put("msg_lat_p99_us", quantile(fs.latUs, 0.99), "us")
		for op := opIssue; op < opCount; op++ {
			put(opNames[op]+"_p50_us", quantile(cs.latUs[op], 0.50), "us")
			put(opNames[op]+"_p99_us", quantile(cs.latUs[op], 0.99), "us")
		}
		put("setup_s", quantile(setups, 0.5), "s")
		put("peak_rss_mib", peakRSSMiB(), "MiB")
	} else {
		lt := tr.totals()
		layerMetrics(put, lt, &fs, &cs)
		put("session.seal_allocs", sealAllocs, "allocs/op")
		put("session.open_allocs", openAllocs, "allocs/op")
		put("runtime.allocs_per_op", float64(mainPh.mallocs)/float64(max(mainOps, 1)), "allocs/op")
		put("runtime.gc_cycles", float64(mainPh.gcs), "count")
		put("runtime.gc_pause_ms", float64(mainPh.pauseNs)/1e6, "ms")
		put("runtime.cpu_wall_ratio", mainPh.cpu/mainPh.wall, "ratio")
		if p.ctrlMain {
			put("residual_frac", lt.residual(opNames[:]...), "frac")
		} else {
			put("residual_frac", lt.residual("fwd.batch"), "frac")
		}
		if over[0].n > 0 && over[1].n > 0 {
			put("trace_overhead_frac", over[1].mean()/over[0].mean()-1, "frac")
		}
	}

	if tr != nil && o.spans != "" {
		if err := os.MkdirAll(o.spans, 0o755); err != nil {
			return result{}, nil, err
		}
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return result{}, nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	lines := []string{
		fmt.Sprintf("# workload %s seed %d trace %v: %d batches of %d frames, %d control rounds",
			o.workload, o.seed, o.trace, sz.batches, p.fwd.batch, sz.rounds),
		fmt.Sprintf("# main phase: wall %.3fs cpu %.3fs; other phase: wall %.3fs cpu %.3fs; setups %v",
			mainPh.wall, mainPh.cpu, otherPh.wall, otherPh.cpu, fmtSeconds(setups)),
	}
	for _, f := range append(append(warmF.failLog, fs.failLog...), append(warmC.failLog, cs.failLog...)...) {
		lines = append(lines, "# FAIL "+f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		lines = append(lines, fmt.Sprintf("%-34s %16.4f %s", n, m.Value, m.Unit))
	}
	return res, lines, nil
}

func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
