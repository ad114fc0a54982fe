// Protocol compare: run every benchmark under all three protocols on a
// chosen network and print Figure 3/4-style comparisons — a compact
// reproduction of the paper's headline result.
package main

import (
	"flag"
	"fmt"
	"log"

	"tsnoop/internal/harness"
	"tsnoop/internal/system"
)

func main() {
	log.SetFlags(0)
	network := flag.String("network", system.NetTorus, "butterfly or torus")
	scale := flag.Float64("scale", 0.4, "workload scale factor (1.0 = full)")
	flag.Parse()

	e := harness.Default()
	e.Seeds = 1
	e.QuotaScale = *scale

	grid, err := e.RunGrid(*network)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(grid.Figure3())
	fmt.Println(grid.Figure4())

	lo, hi := grid.SpeedupRange(system.ProtoDirOpt)
	tlo, thi := grid.ExtraTrafficRange(system.ProtoDirOpt)
	fmt.Printf("Against the nack-free directory, timestamp snooping runs %.0f-%.0f%% faster\n", lo*100, hi*100)
	fmt.Printf("for %.0f-%.0f%% more link traffic — \"worth considering when buying more\n", tlo*100, thi*100)
	fmt.Println("interconnect bandwidth is easier than reducing interconnect latency.\"")
}
