package cliflags

import (
	"flag"
	"io"
	"net/http"
	"testing"

	"manorm/internal/telemetry"
)

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.MetricsAddr != "" || f.TraceSample != 0 || f.JSON {
		t.Errorf("defaults = %+v", *f)
	}
	if f.Sink(8) != nil {
		t.Error("disabled sampling produced a sink")
	}
	if srv, err := f.Serve(telemetry.NewRegistry()); srv != nil || err != nil {
		t.Errorf("unset -metrics-addr served: %v, %v", srv, err)
	}
}

func TestRegisterParses(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	args := []string{"-metrics-addr", "127.0.0.1:0", "-trace-sample", "100", "-json"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if f.MetricsAddr != "127.0.0.1:0" || f.TraceSample != 100 || !f.JSON {
		t.Errorf("parsed = %+v", *f)
	}
	sink := f.Sink(4)
	if sink == nil {
		t.Fatal("no sink with -trace-sample 100")
	}
	for i := 0; i < 99; i++ {
		if sink.Tick() {
			t.Fatalf("sampled early at tick %d", i)
		}
	}
	if !sink.Tick() {
		t.Error("tick 100 not sampled")
	}
}

func TestServeStartsEndpoint(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	reg.Counter("up").Inc()
	srv, err := f.Serve(reg)
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("no server with -metrics-addr set")
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestRegisterObservability: the observability subset registers
// -metrics-addr and -trace-sample only, so a command without JSON output
// or a schema choice rejects -json and -schema instead of ignoring them.
func TestRegisterObservability(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterObservability(fs)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0", "-trace-sample", "3"}); err != nil {
		t.Fatal(err)
	}
	if f.MetricsAddr != "127.0.0.1:0" || f.TraceSample != 3 {
		t.Errorf("parsed = %+v", *f)
	}
	for _, arg := range []string{"-json", "-schema=vxlan"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterObservability(fs)
		if err := fs.Parse([]string{arg}); err == nil {
			t.Errorf("%s accepted", arg)
		}
	}
}
