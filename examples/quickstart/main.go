// Quickstart: run one OLTP simulation under timestamp snooping on the
// 16-node butterfly and print its statistics, then contrast the same
// workload under the classic directory protocol. Experiments are
// declared as spec.Spec values — build one with options, call Run.
package main

import (
	"fmt"
	"log"

	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

func main() {
	log.SetFlags(0)

	// Scale the run down for a fast demo.
	small := spec.WithQuota(1500)

	snoop, err := spec.New("OLTP", spec.WithProtocol(system.ProtoTSSnoop), small).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== OLTP on timestamp snooping (butterfly) ==")
	fmt.Print(snoop.Summary())

	dir, err := spec.New("OLTP", spec.WithProtocol(system.ProtoDirClassic), small).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== OLTP on DirClassic (butterfly) ==")
	fmt.Print(dir.Summary())

	speedup := float64(dir.Runtime)/float64(snoop.Runtime) - 1
	extra := float64(snoop.Traffic.TotalLinkBytes())/float64(dir.Traffic.TotalLinkBytes()) - 1
	fmt.Printf("\nTimestamp snooping is %.0f%% faster and uses %.0f%% more link bandwidth:\n", 100*speedup, 100*extra)
	fmt.Println("the paper's latency-bandwidth trade-off (Section 7).")
}
