// Trace replay: record OLTP's reference stream to the compact trace
// format, replay it bit-exactly in place of the live generator, then
// fold the 16-CPU trace onto 8 processors and run that — a scenario no
// synthetic generator produces. The command-line equivalent is
// "tsnoop trace" (record / stat / transform / replay).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tsnoop/internal/spec"
	"tsnoop/internal/system"
	"tsnoop/internal/trace"
	"tsnoop/internal/workload"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "tsnoop-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Record: capture the exact per-CPU stream a live 16-processor OLTP
	// run at seed 1 consumes (scaled down for a fast demo).
	const warmup, quota = 1000, 1500
	gen, err := workload.ByName("OLTP", 16)
	if err != nil {
		log.Fatal(err)
	}
	tr := trace.Capture(gen, 16, 1, warmup, quota)
	path := filepath.Join(dir, "oltp.tstrace")
	if err := tr.WriteFile(path, 0); err != nil {
		log.Fatal(err)
	}
	st, err := trace.StatFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d accesses, %d bytes on disk (%.2f bytes/access vs 20 in memory)\n\n",
		st.Accesses(), st.FileBytes, float64(st.FileBytes)/float64(st.Accesses()))

	// Replay: "trace:<path>" works anywhere a benchmark name does, and
	// the trace carries its own phase quotas.
	live, err := spec.New("OLTP", spec.WithWarmup(warmup), spec.WithQuota(quota)).Run()
	if err != nil {
		log.Fatal(err)
	}
	replay, err := spec.New("trace:" + path).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== trace replay vs live generator (TS-Snoop, butterfly) ==")
	if live.Summary() != replay.Summary() {
		log.Fatal("replay diverged from the live run — this should be impossible")
	}
	fmt.Println("replay reproduces the live run byte-identically:")
	fmt.Print(replay.Summary())

	// Transform: fold the 16 recorded streams onto 8 processors
	// (interleaved, so the contention structure survives) and replay the
	// result on the 8-node torus.
	folded, err := trace.Apply(tr, 0, trace.Fold(8))
	if err != nil {
		log.Fatal(err)
	}
	foldedPath := filepath.Join(dir, "oltp-8.tstrace")
	if err := folded.WriteFile(foldedPath, 0); err != nil {
		log.Fatal(err)
	}
	run8, err := spec.New("trace:"+foldedPath, spec.WithNetwork(system.NetTorus), spec.WithNodes(8)).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== the same trace folded onto an 8-node torus ==")
	fmt.Print(run8.Summary())
}
