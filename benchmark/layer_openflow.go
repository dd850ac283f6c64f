package main

import (
	"context"
	"fmt"
	"time"

	"manorm/internal/controlplane"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/switches"
)

// spanSwitch is the twin agent's switch: Install is recorded as a
// switches.install span under the commit that caused it, which is how the
// trace sees inside Agent.Commit without spans in internal/*.
type spanSwitch struct {
	switches.Switch
	tr           *tracer
	parent, unit int
}

func (s *spanSwitch) Install(p *mat.Pipeline) error {
	id := s.tr.begin("switches.install", s.parent, s.unit)
	defer s.tr.end(id)
	return s.Switch.Install(p)
}

// openflowLayer takes the update path apart. Intents run on the open goto
// channel as the three calls ChangeServicePort makes (plan, send each
// flow-mod, barrier), each under a span; the agent's side of the same
// flow-mods (apply, commit → install) is replayed on a twin agent holding
// the same program, under the same intent id.
func (p *probes) openflowLayer() error {
	ch, rec, tr := p.e.update.gotoCh, p.rec, p.tr
	ctx := context.Background()
	client := ch.client

	ms, err := ch.churn(4*p.b.probe, p99MinSamples)
	if err != nil {
		return err
	}
	p99, err := percentile(ms, 0.99)
	if err != nil {
		return fmt.Errorf("update_goto_p99_ms: %w", err)
	}

	twinCfg, twinProgram, err := startProgram(ch.size, ch.rep, ch.seed)
	if err != nil {
		return err
	}
	twinSwitch := &spanSwitch{Switch: switches.NewESwitch(), tr: tr}
	twin, err := openflow.NewAgent(twinSwitch, twinProgram)
	if err != nil {
		return err
	}
	// Bring the twin to the channel's current state.
	for _, it := range ch.history {
		plan, err := controlplane.PlanPortChange(twinCfg, ch.rep, it.svc, it.port)
		if err != nil {
			return err
		}
		for i := range plan.Mods {
			if err := twin.ApplyFlowMod(&plan.Mods[i]); err != nil {
				return fmt.Errorf("twin agent: %w", err)
			}
		}
		twinCfg.Services[it.svc].Port = it.port
	}
	if err := twin.Commit(); err != nil {
		return fmt.Errorf("twin agent: %w", err)
	}

	tr.section()
	defer tr.endSection()
	txBefore, intents := ch.tx.Load(), 0
	var encodeNs, decodeNs []float64
	deadline := time.Now().Add(4 * p.b.probe)
	for unit := 0; time.Now().Before(deadline); unit++ {
		it := ch.nextIntent()
		var plan *controlplane.Plan
		root := tr.begin("intent", -1, unit)
		tr.in("controlplane.plan", root, unit, func() {
			plan, err = controlplane.PlanPortChange(ch.ctl.Config, ch.rep, it.svc, it.port)
		})
		if err != nil {
			return err
		}
		for i := range plan.Mods {
			tr.in("openflow.send_flowmod", root, unit, func() { err = client.SendFlowMod(ctx, &plan.Mods[i]) })
			if err != nil {
				return err
			}
		}
		tr.in("openflow.barrier", root, unit, func() { err = client.Barrier(ctx) })
		if err != nil {
			return err
		}
		tr.end(root)
		ch.ctl.Config.Services[it.svc].Port = it.port
		ch.history = append(ch.history, it)
		intents++
		tr.count("openflow.flowmods_sent", len(plan.Mods))
		tr.count("openflow.barriers", 1)

		replay := tr.begin("agent_replay", -1, unit)
		for i := range plan.Mods {
			tr.in("openflow.apply_flowmod", replay, unit, func() { err = twin.ApplyFlowMod(&plan.Mods[i]) })
			if err != nil {
				return fmt.Errorf("twin agent: %w", err)
			}
		}
		commit := tr.begin("openflow.commit", replay, unit)
		twinSwitch.parent, twinSwitch.unit = commit, unit
		err = twin.Commit()
		tr.end(commit)
		tr.end(replay)
		if err != nil {
			return fmt.Errorf("twin agent: %w", err)
		}

		// The wire codec on this intent's own flow-mods.
		for i := range plan.Mods {
			t0 := time.Now()
			frame, err := openflow.Encode(&openflow.Message{Type: openflow.TypeFlowMod, XID: uint32(i + 1), Flow: &plan.Mods[i]})
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := openflow.Decode(frame); err != nil {
				return err
			}
			encodeNs = append(encodeNs, float64(t1.Sub(t0).Nanoseconds()))
			decodeNs = append(decodeNs, float64(time.Since(t1).Nanoseconds()))
		}
	}
	if intents == 0 {
		return fmt.Errorf("openflow layer: no traced intent completed")
	}
	// Both sides as the quartile latency of single intents, luck set aside.
	p.updateRatio = ratio{
		traced:   quantile(tr.durations("intent", time.Millisecond), placementLuck),
		untraced: quantile(ms, placementLuck),
	}

	us := func(name string) (float64, int) {
		d := tr.durations(name, time.Microsecond)
		return median(d), len(d)
	}
	rec.putTimed("openflow.encode_ns", "ns", median(encodeNs), len(encodeNs))
	rec.putTimed("openflow.decode_ns", "ns", median(decodeNs), len(decodeNs))
	for _, m := range []struct{ metric, span string }{
		{"openflow.send_flowmod_us", "openflow.send_flowmod"},
		{"openflow.barrier_us", "openflow.barrier"},
		{"openflow.apply_flowmod_us", "openflow.apply_flowmod"},
		{"openflow.commit_us", "openflow.commit"},
	} {
		v, n := us(m.span)
		rec.putTimed(m.metric, "us", v, n)
	}
	rec.put("openflow.tx_bytes_per_intent", "bytes", float64(ch.tx.Load()-txBefore)/float64(intents))

	var rtt []float64
	payload := []byte("benchmark-echo")
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := client.Echo(ctx, payload); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	rec.putTimed("openflow.echo_rtt_us", "us", median(rtt), len(rtt))

	var dump []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := client.DumpFlows(ctx); err != nil {
			return err
		}
		dump = append(dump, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rec.putTimed("openflow.dump_flows_ms", "ms", median(dump), len(dump))

	rec.putTimed("update_goto_p50_ms", "ms", median(ms), len(ms))
	rec.putTimed("update_goto_p99_ms", "ms", p99, len(ms))
	st := client.Stats()
	rec.put("openflow.resends", "count", float64(st.Counters["mods_resent"]))
	rec.put("openflow.retries", "count", float64(st.Counters["retries"]))

	// The twin and the real agent saw the same flow-mods.
	return ch.verify(&rec.tally)
}
