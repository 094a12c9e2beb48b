// Dissemination reproduces the Figure 4 experiment on the simulator at
// reduced scale: the five load-information dissemination strategies on
// one trace, showing why PRESS piggy-backs load instead of broadcasting
// it.
package main

import (
	"fmt"
	"log"

	"press/cluster"
	"press/core"
	"press/netmodel"
	"press/stats"
	"press/trace"
)

func main() {
	log.SetFlags(0)

	spec, err := trace.SpecByName("clarknet")
	if err != nil {
		log.Fatal(err)
	}
	spec.NumRequests = 60000
	tr, err := trace.Synthesize(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("PRESS on 8 simulated nodes, VIA/cLAN, clarknet trace")
	fmt.Println()
	t := stats.NewTable("Strategy", "Throughput (req/s)", "Load msgs", "Total msgs")
	for _, st := range core.PaperStrategies() {
		r, err := cluster.Run(cluster.Config{
			Nodes:         8,
			Trace:         tr,
			Combo:         netmodel.VIAOverCLAN(),
			Dissemination: st,
			Seed:          1,
		})
		if err != nil {
			log.Fatal(err)
		}
		count, _ := r.Msgs.Total()
		t.AddRowf(st.String(), r.Throughput, int(r.Msgs.Count[core.MsgLoad]), int(count))
	}
	fmt.Print(t)
	fmt.Println("\nPiggy-backing combines the minimum number of messages with good")
	fmt.Println("enough load balancing; broadcasting on every change (L1) costs so")
	fmt.Println("much CPU that it can lose to no load balancing at all (Section 3.3).")
}
