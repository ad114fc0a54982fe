package harness

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/trace"
	"tsnoop/internal/workload"
)

// quick returns a reduced-scale experiment for unit testing.
func quick() Experiment {
	e := Default()
	e.Seeds = 1
	e.QuotaScale = 0.15
	e.WarmupScale = 0.4
	return e
}

func TestDefaultExperimentSane(t *testing.T) {
	e := Default()
	if e.Nodes != 16 || e.Seeds < 1 {
		t.Fatalf("experiment = %+v", e)
	}
}

func TestFromSpecCarriesKnobs(t *testing.T) {
	e := FromSpec(spec.New("OLTP", spec.WithNodes(4), spec.WithSeeds(2), spec.WithWorkers(1),
		spec.WithQuotaScale(0.1), spec.WithMOSI()))
	if e.Nodes != 4 || e.Seeds != 2 || e.Workers != 1 || e.QuotaScale != 0.1 {
		t.Fatalf("experiment = %+v", e)
	}
	if e.Base == nil || !e.Base.MOSI {
		t.Fatal("design knobs not carried into the experiment base")
	}
}

func TestRunCellBasics(t *testing.T) {
	e := quick()
	res, err := e.RunCell(Cell{Benchmark: "barnes", Protocol: system.ProtoTSSnoop, Network: system.NetButterfly})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Runtime <= 0 || res.Best.TotalMisses() == 0 {
		t.Fatalf("empty result: %+v", res.Best)
	}
}

func TestRunCellUnknownBenchmark(t *testing.T) {
	e := quick()
	if _, err := e.RunCell(Cell{Benchmark: "specjbb", Protocol: system.ProtoTSSnoop, Network: system.NetTorus}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSeedsPickMinimum(t *testing.T) {
	e := quick()
	e.Seeds = 3
	c := Cell{Benchmark: "barnes", Protocol: system.ProtoDirOpt, Network: system.NetButterfly}
	multi, err := e.RunCell(c)
	if err != nil {
		t.Fatal(err)
	}
	// The min over 3 perturbed seeds cannot exceed any single seed's
	// runtime re-run individually.
	if multi.Best.Runtime <= 0 {
		t.Fatal("no runtime")
	}
}

// The headline reproduction: on both networks, timestamp snooping is
// faster than both directory protocols on every benchmark, and pays for it
// with more link traffic (Figures 3 and 4).
func TestFigure3And4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run")
	}
	e := quick()
	e.QuotaScale = 0.3
	for _, net := range Networks {
		g, err := e.RunGrid(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range workload.Names() {
			ts := g.Cells[bench][system.ProtoTSSnoop].Best
			dc := g.Cells[bench][system.ProtoDirClassic].Best
			do := g.Cells[bench][system.ProtoDirOpt].Best
			if ts.Runtime >= dc.Runtime || ts.Runtime >= do.Runtime {
				t.Errorf("%s/%s: TS-Snoop not fastest (ts %v, classic %v, opt %v)",
					net, bench, ts.Runtime, dc.Runtime, do.Runtime)
			}
			if dc.Runtime < do.Runtime {
				t.Errorf("%s/%s: DirClassic faster than DirOpt", net, bench)
			}
			if ts.Traffic.TotalLinkBytes() <= do.Traffic.TotalLinkBytes() {
				t.Errorf("%s/%s: TS-Snoop did not use more traffic", net, bench)
			}
			// TS-Snoop's extra traffic stays under the 60% analytic bound.
			extra := float64(ts.Traffic.TotalLinkBytes())/float64(do.Traffic.TotalLinkBytes()) - 1
			if extra <= 0.05 || extra >= 0.62 {
				t.Errorf("%s/%s: extra traffic %.0f%% outside (5%%, 62%%)", net, bench, extra*100)
			}
			// Timestamp snooping never nacks.
			if ts.Traffic.LinkBytes(stats.ClassNack) != 0 || ts.Traffic.LinkBytes(stats.ClassMisc) != 0 {
				t.Errorf("%s/%s: TS-Snoop produced nack/misc traffic", net, bench)
			}
		}
		// The DSS anomaly: DirClassic's nack retries on DSS are far above
		// its retries on the other benchmarks (the paper saw runtimes
		// more than double and excluded DSS/DirClassic from the figures).
		dssRetries := g.Cells["DSS"][system.ProtoDirClassic].Best.Retries
		for _, other := range []string{"OLTP", "apache", "altavista", "barnes"} {
			if or := g.Cells[other][system.ProtoDirClassic].Best.Retries; dssRetries < 2*or {
				t.Errorf("%s: DSS retries (%d) not clearly above %s retries (%d)",
					net, dssRetries, other, or)
			}
		}
		// Rendered figures include every benchmark row.
		f3, f4 := g.Figure3(), g.Figure4()
		for _, bench := range workload.Names() {
			if !strings.Contains(f3, bench) || !strings.Contains(f4, bench) {
				t.Errorf("%s: rendered figures missing %s", net, bench)
			}
		}
	}
}

func TestTable2MeasuredMatchesAnalytic(t *testing.T) {
	for _, net := range Networks {
		rows, err := Table2(net)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows", net, len(rows))
		}
		for _, r := range rows {
			lo := float64(r.Analytic) * 0.93
			hi := float64(r.Analytic) * 1.35
			if strings.Contains(r.Desc, "timestamp snooping") {
				// Table 2 lists raw wire latencies; the paper notes that
				// "with timestamp snooping, cache or memory accesses may
				// not complete until the protocol message is ordered".
				// On the torus a nearby owner receives the request well
				// before its ordering time, so the measured mean exceeds
				// the wire-only figure by several switch delays.
				hi = float64(r.Analytic) * 1.60
			}
			if m := float64(r.Measured); m < lo || m > hi {
				t.Errorf("%s %q: measured %v vs analytic %v out of tolerance",
					net, r.Desc, r.Measured, r.Analytic)
			}
		}
	}
}

func TestTable2ButterflyExactRows(t *testing.T) {
	// The butterfly's uniform 3-hop paths make the directory rows exact:
	// 178 ns memory, 252 ns three-hop; TS cache-to-cache 123 ns plus
	// bounded ordering slack.
	rows, err := Table2(system.NetButterfly)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[1].Measured.Nanoseconds(); got != 178 {
		t.Errorf("memory measured = %vns, want exactly 178", got)
	}
	if got := rows[3].Measured.Nanoseconds(); got != 252 {
		t.Errorf("3-hop measured = %vns, want exactly 252", got)
	}
	ts := rows[2].Measured.Nanoseconds()
	if ts < 123 || ts > 140 {
		t.Errorf("TS c2c measured = %vns, want [123, 140]", ts)
	}
}

func TestTable3Characteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("five benchmark runs")
	}
	e := quick()
	e.QuotaScale = 0.5
	rows, err := e.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThreeHopPct < 25 || r.ThreeHopPct > 75 {
			t.Errorf("%s 3-hop = %.0f%%, out of plausible band", r.Benchmark, r.ThreeHopPct)
		}
		if r.TotalMisses == 0 || r.TouchedMB <= 0 {
			t.Errorf("%s: empty characterization %+v", r.Benchmark, r)
		}
	}
	text, err := e.RenderTable3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "OLTP") || !strings.Contains(text, "barnes") {
		t.Error("rendered table missing benchmarks")
	}
}

func TestEnvelopeMatchesPaperNumbers(t *testing.T) {
	// "a timestamp snooping transaction sends an address packet over 21
	// links and receives a data packet over three links, for a total
	// bandwidth of 384 bytes ... Directory protocols, at a minimum ...
	// 240 bytes. Thus ... the extra bandwidth used by timestamp snooping
	// cannot exceed 60%."
	row, err := Envelope(system.NetButterfly, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if row.TSBytes != 384 || row.DirMinBytes != 240 {
		t.Fatalf("envelope = %d/%d, want 384/240", row.TSBytes, row.DirMinBytes)
	}
	if row.ExtraBoundPc < 59.9 || row.ExtraBoundPc > 60.1 {
		t.Fatalf("extra bound = %.1f%%, want 60%%", row.ExtraBoundPc)
	}
	// "Doubling the block size on a 16-node butterfly ... reduces the
	// upper limit ... to 33%."
	row128, err := Envelope(system.NetButterfly, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	if row128.ExtraBoundPc < 32 || row128.ExtraBoundPc > 34 {
		t.Fatalf("128B extra bound = %.1f%%, want ~33%%", row128.ExtraBoundPc)
	}
}

func TestEnvelopeGrowsWithNodes(t *testing.T) {
	// "Increasing the number of processors increases the cost of
	// broadcasting each transaction."
	var prev float64
	for i, nodes := range []int{4, 16, 64} {
		row, err := Envelope(system.NetButterfly, nodes, 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && row.ExtraBoundPc <= prev {
			t.Fatalf("extra bound did not grow: %v -> %v at %d nodes", prev, row.ExtraBoundPc, nodes)
		}
		prev = row.ExtraBoundPc
	}
}

func TestRenderEnvelope(t *testing.T) {
	text, err := RenderEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"butterfly", "torus", "384", "240"} {
		if !strings.Contains(text, want) {
			t.Errorf("envelope rendering missing %q", want)
		}
	}
}

func TestBlockSizeSweepNarrowsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	e := quick()
	out, err := e.BlockSizeSweep("barnes")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "64") || !strings.Contains(out, "128") {
		t.Fatalf("sweep output malformed:\n%s", out)
	}
}

func TestNodesSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	e := quick()
	e.QuotaScale = 0.1
	out, err := e.NodesSweep("barnes")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4", "16", "64"} {
		if !strings.Contains(out, want) {
			t.Fatalf("nodes sweep missing %s:\n%s", want, out)
		}
	}
}

func TestAblationReportRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run")
	}
	e := quick()
	out, err := e.AblationReport("barnes", system.NetTorus)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "slack S=0", "no prefetch", "early processing", "tokens per port"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation report missing %q:\n%s", want, out)
		}
	}
}

// A bad cell fails the grid before any simulation starts, wherever it
// sits in the presentation order.
func TestStreamGridRejectsBadCellUpFront(t *testing.T) {
	e := quick()
	e.Benchmarks = []string{"barnes", "specjbb"}
	cells, errs := 0, 0
	for _, err := range e.StreamGrid(context.Background(), system.NetButterfly) {
		if err == nil {
			cells++
			continue
		}
		errs++
		if !strings.Contains(err.Error(), "specjbb") {
			t.Errorf("error %q does not name the benchmark", err)
		}
	}
	if cells != 0 || errs != 1 {
		t.Fatalf("grid yielded %d cells and %d errors, want 0 and 1", cells, errs)
	}
}

// An explicit quota past a recorded trace's end wraps the replayed
// stream. Every harness run path must reject it with the spec's error,
// as tsnoop run does, rather than report figures measured on re-walked
// data.
func TestTraceQuotaPastRecordingRejected(t *testing.T) {
	const nodes = 4
	path := filepath.Join(t.TempDir(), "barnes.tstrace")
	if err := trace.Capture(workload.Barnes(nodes), nodes, 1, 50, 100).WriteFile(path, 1); err != nil {
		t.Fatal(err)
	}
	e := FromSpec(spec.New("trace:"+path, spec.WithNodes(nodes), spec.WithQuota(1000), spec.WithWorkers(1)))
	e.Protocols = []string{system.ProtoDirOpt}
	const want = "wrapped its recorded stream"
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", what, err, want)
		}
	}
	var err error
	for _, err = range e.StreamGrid(context.Background(), system.NetButterfly) {
		if err != nil {
			break
		}
	}
	check("StreamGrid", err)
	_, err = e.RunCell(e.Cells(system.NetButterfly)[0])
	check("RunCell", err)
	_, err = e.Table3()
	check("Table3", err)
}
