package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"tsnoop/internal/system"
)

// execute builds and runs s, returning the run's JSON without its
// telemetry block and the kernel's total dispatch count.
func execute(t *testing.T, s Spec) ([]byte, uint64) {
	t.Helper()
	cfg, gen, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.Build(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	r := *sys.Execute()
	r.Metrics = nil
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b, sys.K.Executed()
}

// TestWavesMatchPerEventOracle is the address network's differential
// test. With Metrics on, the probe makes every tsnet send its own kernel
// event; with it off, back-to-back sends share one wave event and an
// uncontended network replays its token clock. The two must render the
// identical stats.Run for every TS-Snoop configuration.
func TestWavesMatchPerEventOracle(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"contention", []Option{WithContention()}},
		{"slack0", []Option{WithSlack(0)}},
		{"slack4", []Option{WithSlack(4)}},
		{"tokens2", []Option{WithTokensPerPort(2)}},
		{"no-prefetch", []Option{WithoutPrefetch()}},
		{"early-processing", []Option{WithEarlyProcessing()}},
		{"multicast", []Option{WithMulticast()}},
		{"mosi", []Option{WithMOSI()}},
		{"perturb3", []Option{WithPerturbNS(3)}},
		{"nodes4", []Option{WithNodes(4)}},
	}
	quota := 150
	if testing.Short() {
		quota = 60
	}
	for _, network := range []string{system.NetButterfly, system.NetTorus} {
		for _, v := range variants {
			for _, seed := range []uint64{1, 2} {
				name := fmt.Sprintf("%s/%s/seed%d", network, v.name, seed)
				t.Run(name, func(t *testing.T) {
					opts := append([]Option{WithNetwork(network), WithSeed(seed),
						WithWarmup(quota), WithQuota(quota)}, v.opts...)
					bare, _ := execute(t, New("OLTP", opts...))
					oracle, _ := execute(t, New("OLTP", append(opts, WithMetrics())...))
					if !bytes.Equal(bare, oracle) {
						t.Errorf("waves diverge from the per-event oracle:\nwaves:  %s\noracle: %s", bare, oracle)
					}
				})
			}
		}
	}
}

// TestWavesEngage pins that the wave path is the one uninstrumented
// runs take: an OLTP butterfly run without a probe dispatches fewer than
// half the kernel events of the same run with one.
func TestWavesEngage(t *testing.T) {
	opts := []Option{WithNetwork(system.NetButterfly), WithWarmup(200), WithQuota(200)}
	bare, bareEvents := execute(t, New("OLTP", opts...))
	oracle, oracleEvents := execute(t, New("OLTP", append(opts, WithMetrics())...))
	if !bytes.Equal(bare, oracle) {
		t.Fatalf("waves diverge from the per-event oracle")
	}
	t.Logf("kernel events: %d with waves, %d per event", bareEvents, oracleEvents)
	if 2*bareEvents >= oracleEvents {
		t.Errorf("waves dispatched %d events, want fewer than half of the per-event %d", bareEvents, oracleEvents)
	}
}

// TestProductionEventCounts pins the kernel events an untraced OLTP run
// dispatches at the default quotas, seed 1, with and without
// contention: the count the wave path and the handoff waves bring down,
// read from the same kernel counter the per-layer benchmark reports.
func TestProductionEventCounts(t *testing.T) {
	for _, c := range []struct {
		network    string
		contention bool
		want       uint64
	}{
		{system.NetButterfly, false, 486_919},
		{system.NetTorus, false, 841_187},
		{system.NetButterfly, true, 2_030_204},
		{system.NetTorus, true, 2_951_987},
	} {
		name := c.network
		opts := []Option{WithNetwork(c.network), WithSeed(1)}
		if c.contention {
			name += "/contention"
			opts = append(opts, WithContention())
		}
		t.Run(name, func(t *testing.T) {
			_, events := execute(t, New("OLTP", opts...))
			if events != c.want {
				t.Errorf("%d kernel events, want %d", events, c.want)
			}
		})
	}
}
