package spec

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tsnoop/internal/system"
)

// varied returns a Spec with every field moved off its default, for
// round-trip identity tests.
func varied() Spec {
	return Spec{
		Benchmark:       "barnes",
		Protocol:        "DirOpt",
		Network:         "torus",
		Nodes:           8,
		Seed:            42,
		Seeds:           5,
		Workers:         3,
		Warmup:          -1,
		Quota:           777,
		QuotaScale:      0.25,
		WarmupScale:     0.5,
		PerturbNS:       7,
		Slack:           4,
		TokensPerPort:   2,
		Prefetch:        false,
		EarlyProcessing: true,
		Contention:      true,
		MOSI:            true,
		Multicast:       true,
		PredictorSize:   32,
		BlockBytes:      128,
		CacheBytes:      1 << 20,
	}
}

func TestNewAppliesOptions(t *testing.T) {
	s := New("OLTP", WithProtocol("DirClassic"), WithNetwork("torus"), WithNodes(32),
		WithSlack(4), WithSeeds(5), WithMOSI(), WithoutPrefetch(), WithQuota(100))
	if s.Benchmark != "OLTP" || s.Protocol != "DirClassic" || s.Network != "torus" ||
		s.Nodes != 32 || s.Slack != 4 || s.Seeds != 5 || !s.MOSI || s.Prefetch || s.Quota != 100 {
		t.Fatalf("options not applied: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateOneLineErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
		want string
	}{
		{"benchmark", func(s *Spec) { s.Benchmark = "tpc-w" }, "unknown benchmark"},
		{"scheme", func(s *Spec) { s.Benchmark = "bogus:x" }, "unknown workload scheme"},
		{"protocol", func(s *Spec) { s.Protocol = "MOESI" }, "unknown protocol"},
		{"network", func(s *Spec) { s.Network = "hypercube" }, "unknown network"},
		{"nodes", func(s *Spec) { s.Nodes = 0 }, "nodes"},
		{"seeds", func(s *Spec) { s.Seeds = 0 }, "seeds"},
		{"workers", func(s *Spec) { s.Workers = -1 }, "workers"},
		{"quota", func(s *Spec) { s.Quota = -5 }, "quota"},
		{"scale", func(s *Spec) { s.QuotaScale = -1 }, "scale"},
		{"perturb", func(s *Spec) { s.PerturbNS = -1 }, "perturb"},
		{"slack", func(s *Spec) { s.Slack = -1 }, "slack"},
		{"tokens", func(s *Spec) { s.TokensPerPort = 0 }, "tokens"},
		{"cache", func(s *Spec) { s.BlockBytes = -64 }, "cache geometry"},
	}
	for _, c := range cases {
		s := Default()
		c.mod(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error is not one line: %q", c.name, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, s := range []Spec{Default(), varied()} {
		back, err := FromJSON(s.JSON())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("JSON round trip not identity:\n%+v\n%+v", s, back)
		}
	}
}

func TestJSONStableFieldNames(t *testing.T) {
	data := string(Default().JSON())
	for _, name := range []string{
		`"benchmark"`, `"protocol"`, `"network"`, `"nodes"`, `"seed"`, `"seeds"`,
		`"workers"`, `"warmup"`, `"quota"`, `"quota_scale"`, `"warmup_scale"`,
		`"perturb_ns"`, `"slack"`, `"tokens_per_port"`, `"prefetch"`,
		`"early_processing"`, `"contention"`, `"mosi"`, `"multicast"`,
		`"predictor_size"`, `"block_bytes"`, `"cache_bytes"`,
	} {
		if !strings.Contains(data, name) {
			t.Errorf("JSON missing stable field %s: %s", name, data)
		}
	}
}

func TestFromJSONSparseAndUnknown(t *testing.T) {
	s, err := FromJSON([]byte(`{"benchmark":"DSS","nodes":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Benchmark != "DSS" || s.Nodes != 4 || s.Protocol != Default().Protocol || !s.Prefetch {
		t.Fatalf("sparse decode lost defaults: %+v", s)
	}
	if _, err := FromJSON([]byte(`{"benchmrak":"DSS"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := FromJSON([]byte(`{"benchmark":"DSS"} {"benchmark":"OLTP"}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestArgsRoundTrip(t *testing.T) {
	for _, s := range []Spec{Default(), varied()} {
		back, err := FromArgs(s.Args())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("flag round trip not identity:\n%+v\n%+v", s, back)
		}
	}
}

func TestFromArgsSparse(t *testing.T) {
	s, err := FromArgs([]string{"-benchmark", "barnes", "-no-prefetch", "-slack", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Benchmark != "barnes" || s.Prefetch || s.Slack != 0 || s.Nodes != 16 {
		t.Fatalf("sparse args mis-parsed: %+v", s)
	}
	if _, err := FromArgs([]string{"-bogus-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := FromArgs([]string{"stray"}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}

func TestConfigQuotaResolution(t *testing.T) {
	// Default: benchmark quota, scaled.
	s := New("DSS", WithQuotaScale(0.5), WithWarmupScale(0.1))
	cfg, _, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MeasurePerCPU != 750 || cfg.WarmupPerCPU != 250 {
		t.Fatalf("scaled quotas = %d/%d, want 750/250", cfg.MeasurePerCPU, cfg.WarmupPerCPU)
	}
	// Explicit quotas win over the scale.
	s = New("DSS", WithQuotaScale(0.5), WithQuota(99), WithWarmup(11))
	if cfg, _, err = s.Config(); err != nil {
		t.Fatal(err)
	}
	if cfg.MeasurePerCPU != 99 || cfg.WarmupPerCPU != 11 {
		t.Fatalf("explicit quotas = %d/%d, want 99/11", cfg.MeasurePerCPU, cfg.WarmupPerCPU)
	}
	// Negative warmup means an explicitly empty warm-up phase.
	s = New("DSS", WithWarmup(-1))
	if cfg, _, err = s.Config(); err != nil {
		t.Fatal(err)
	}
	if cfg.WarmupPerCPU != 0 {
		t.Fatalf("negative warmup resolved to %d, want 0", cfg.WarmupPerCPU)
	}
}

func TestConfigAppliesKnobs(t *testing.T) {
	s := New("barnes", WithSlack(3), WithTokensPerPort(2), WithoutPrefetch(),
		WithEarlyProcessing(), WithContention(), WithMOSI(), WithMulticast(),
		WithPredictorSize(16), WithBlockBytes(128), WithCacheBytes(1<<20),
		WithSeed(9), WithPerturbNS(2))
	cfg, _, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.InitialSlack != 3 || cfg.TokensPerPort != 2 || cfg.Prefetch ||
		!cfg.EarlyProcessing || !cfg.Contention || !cfg.UseOwnedState || !cfg.Multicast ||
		cfg.PredictorSize != 16 || cfg.Cache.BlockBytes != 128 || cfg.Cache.SizeBytes != 1<<20 ||
		cfg.Seed != 9 || cfg.PerturbMax == 0 {
		t.Fatalf("knobs not applied: %+v", cfg)
	}
}

func TestRunSmall(t *testing.T) {
	run, err := New("barnes", WithNodes(4), WithWarmup(80), WithQuota(120)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Runtime <= 0 || run.MemOps != 4*120 {
		t.Fatalf("bad run: runtime %v, mem ops %d", run.Runtime, run.MemOps)
	}
}

func TestSpecRunSmall(t *testing.T) {
	run, err := New("barnes", WithProtocol("DirOpt"), WithNetwork("torus"),
		WithWarmup(100), WithQuota(200)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Runtime <= 0 || run.TotalMisses() == 0 {
		t.Fatalf("empty run: %+v", run)
	}
	if !strings.Contains(run.Summary(), "misses") {
		t.Fatal("summary malformed")
	}
}

func TestSpecRunUnknownBenchmark(t *testing.T) {
	if _, err := New("tpc-w").Run(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSpecRunCustomNodes(t *testing.T) {
	run, err := New("barnes", WithNodes(4), WithWarmup(100), WithQuota(150)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.MemOps != 4*150 {
		t.Fatalf("mem ops = %d, want 600", run.MemOps)
	}
}

func TestSpecRoundTripsThroughJSONAndArgs(t *testing.T) {
	s := New("DSS", WithProtocol("DirClassic"), WithNetwork("torus"), WithSlack(4))
	fromJSON, err := FromJSON(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	fromArgs, err := FromArgs(s.Args())
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON != s || fromArgs != s {
		t.Fatalf("round trips differ:\n%+v\n%+v\n%+v", s, fromJSON, fromArgs)
	}
}

func TestLists(t *testing.T) {
	if len(Benchmarks()) != 5 {
		t.Fatalf("benchmarks = %v", Benchmarks())
	}
	if len(Protocols) != 3 || Protocols[0] != system.ProtoTSSnoop {
		t.Fatalf("protocols = %v", Protocols)
	}
	if len(Networks) != 2 {
		t.Fatalf("networks = %v", Networks)
	}
}

func TestRunSeedsReportMinimum(t *testing.T) {
	s := New("barnes", WithNodes(4), WithWarmup(60), WithQuota(100), WithPerturbNS(3))
	singles := make([]int64, 3)
	for i := range singles {
		one := s
		one.Seed = s.Seed + uint64(i)
		run, err := one.Run()
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = int64(run.Runtime)
	}
	best, err := New("barnes", WithNodes(4), WithWarmup(60), WithQuota(100),
		WithPerturbNS(3), WithSeeds(3)).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := min(singles[0], singles[1], singles[2])
	if int64(best.Runtime) != want {
		t.Fatalf("best of 3 = %d, want min %v of %v", best.Runtime, want, singles)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New("barnes", WithSeeds(4)).RunContext(ctx); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

func TestRunInvalid(t *testing.T) {
	if _, err := New("tpc-w").Run(); err == nil {
		t.Fatal("unknown benchmark ran")
	}
	if _, err := New("OLTP", WithNetwork("hypercube")).Run(); err == nil {
		t.Fatal("unknown network ran")
	}
}
