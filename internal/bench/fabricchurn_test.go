package bench

import (
	"testing"

	"manorm/internal/fabric"
)

func fabricSpec(mode fabric.PlacementMode) FabricSpec {
	return FabricSpec{
		Members: 3, Quorum: 2, Mode: mode,
		Loss: 0.01, Cut: true, PartitionEvery: 3, Seed: 42,
	}
}

func TestFabricChurnConvergesUnderHeadlineFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("dials TCP with injected faults")
	}
	cfg := Config{Services: 4, Backends: 3, Seed: 5}
	for _, mode := range []fabric.PlacementMode{fabric.Replicate, fabric.Partition} {
		row, err := FabricChurnOne(cfg, 9, fabricSpec(mode))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !row.Report.OK() {
			t.Errorf("%s: fabric diverged: %s\n%s", mode, row.Report, row.Report.Witness)
		}
		// The fault schedule actually ran: the forced cut reconnected and
		// the partitions black-holed frames.
		if row.Reconnects == 0 {
			t.Errorf("%s: forced cut produced no reconnect", mode)
		}
		if row.NetDrops == 0 {
			t.Errorf("%s: partitions black-holed no frames", mode)
		}
		// Every issued epoch (churn + the concurrent rounds) committed.
		if row.Committed != row.Epochs || row.Epochs == 0 {
			t.Errorf("%s: committed %d of %d epochs", mode, row.Committed, row.Epochs)
		}
		// The false-conflict round's syntactic conflict was refuted by the
		// semantic oracle — the pair ran in one epoch and the run still
		// proved the oracle's fingerprint above.
		if row.FalseConflicts == 0 {
			t.Errorf("%s: semantic oracle refuted no false conflicts", mode)
		}
	}
}

func TestFabricChurnCleanRunIsQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("dials TCP")
	}
	cfg := Config{Services: 4, Backends: 3, Seed: 5}
	row, err := FabricChurnOne(cfg, 6, FabricSpec{Members: 2, Mode: fabric.Replicate, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !row.Report.OK() {
		t.Fatalf("clean fabric run diverged: %s", row.Report)
	}
	if row.Degraded != 0 || row.Freezes != 0 || row.Resyncs != 0 || row.Reconnects != 0 {
		t.Errorf("clean run produced recovery work: degraded=%d freezes=%d resyncs=%d reconnects=%d",
			row.Degraded, row.Freezes, row.Resyncs, row.Reconnects)
	}
	if row.MaxLag != 0 {
		t.Errorf("clean run observed epoch lag %d", row.MaxLag)
	}
}

func TestFabricChurnTelemetrySnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("dials TCP")
	}
	cfg := Config{Services: 4, Backends: 3, Seed: 5, Telemetry: true}
	row, err := FabricChurnOne(cfg, 3, FabricSpec{Members: 2, Mode: fabric.Replicate, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if row.Telemetry == nil {
		t.Fatal("telemetry snapshot missing with cfg.Telemetry set")
	}
	if _, ok := row.Telemetry.Gauges["epoch_lag"]; !ok {
		t.Error("epoch_lag gauge missing")
	}
	conv, ok := row.Telemetry.Providers["convergence"]
	if !ok {
		t.Fatal("convergence sub-registry missing")
	}
	for _, g := range []string{"sw0_divergence", "sw1_divergence", "packets_diverged"} {
		v, ok := conv.Gauges[g]
		if !ok {
			t.Errorf("gauge %s missing", g)
		} else if v != 0 {
			t.Errorf("gauge %s = %v on a converged run", g, v)
		}
	}
}
