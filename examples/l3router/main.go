// l3router: the paper's Fig. 2 walk-through at router scale.
//
// A 256-prefix L3 forwarding table (16 next-hops over 4 ports) is
// normalized step by step: the constant (eth_type, mod_ttl) factor splits
// off as a Cartesian-product stage, the next-hop dependency produces the
// OpenFlow-style group table, and the port dependency produces the
// source-MAC table — the T0 × T1 ≫ T2 ≫ T3 pipeline of Fig. 2c. The
// example then forwards frames through both representations on the ESwitch
// model and compares classifier templates and service times.
//
//	go run ./examples/l3router
package main

import (
	"fmt"
	"log"
	"time"

	"manorm/internal/core"
	"manorm/internal/mat"
	"manorm/internal/switches"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

func main() {
	const prefixes, nexthops, ports = 256, 16, 4
	l3 := usecases.GenerateL3(prefixes, nexthops, ports, 7)

	fmt.Printf("universal L3 table: %d routes, %d fields\n",
		len(l3.Table.Entries), l3.Table.FieldCount())

	a, err := core.AnalyzeDeclared(l3.Table, l3.Declared())
	if err != nil {
		log.Fatal(err)
	}
	form, violations := core.Check(a)
	fmt.Printf("normal form: %s (%d violations)\n", form, len(violations))
	for _, v := range violations {
		fmt.Printf("  %s\n", v.Format(l3.Table.Schema))
	}

	res, err := core.Normalize(l3.Table, core.Options{
		Target:   core.NF3,
		Declared: l3.Declared(),
		Verify:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnormalization steps:")
	for _, s := range res.Steps {
		fmt.Printf("  %-12s along %s (%s violation)\n", s.TableName, s.FD, s.Level)
	}
	fmt.Printf("\nnormalized: %d stages, %d fields (was %d) — verified: %v\n",
		res.Pipeline.Depth(), res.Pipeline.FieldCount(), l3.Table.FieldCount(), res.Verified)
	for i, st := range res.Pipeline.Stages {
		fmt.Printf("  stage %d: %-16s %4d entries  (%s)\n",
			i, st.Table.Name, len(st.Table.Entries), st.Table.Schema)
	}

	// Run both representations on the template-specializing switch.
	frames, _ := trafficgen.Wire(trafficgen.L3(prefixes, 4096, 11))
	for name, p := range map[string]*mat.Pipeline{
		"universal ": mat.SingleTable(l3.Table),
		"normalized": res.Pipeline,
	} {
		sw := switches.NewESwitch()
		if err := sw.Install(p); err != nil {
			log.Fatal(err)
		}
		w := sw.NewWorker()
		// Warm-up, then measure.
		for _, f := range frames {
			if _, err := w.ProcessFrame(f); err != nil {
				log.Fatal(err)
			}
		}
		const n = 200000
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := w.ProcessFrame(frames[i%len(frames)]); err != nil {
				log.Fatal(err)
			}
		}
		perPkt := time.Since(start) / n
		fmt.Printf("\n%s on eswitch: %v/packet, templates %v\n", name, perPkt, sw.Templates())
	}
}
