// Package cliflags defines the flag set shared by the repository's
// commands (maswitch, mabench, manorm): the metrics/pprof endpoint
// address and the per-packet witness sampling rate (every command), plus
// the machine-readable output toggle and the header-schema selector for
// the programmable parser (maswitch and manorm). Registering them through
// one package keeps the flag names and help text identical across
// binaries.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// Flags carries the parsed shared options.
type Flags struct {
	// MetricsAddr, when non-empty, is the address the command serves its
	// telemetry registry (JSON) and net/http/pprof on.
	MetricsAddr string
	// TraceSample > 0 records a per-packet pipeline witness for every Nth
	// packet (the trace/explain facility); 0 disables sampling.
	TraceSample int
	// JSON selects machine-readable output where the command supports it.
	JSON bool
	// Schema names a shipped header schema (packet.BuiltinSchemaNames)
	// to run the command under; empty means the canonical default parser.
	Schema string
}

// Register adds the shared flags to fs (use flag.CommandLine in main) and
// returns the struct they parse into.
func Register(fs *flag.FlagSet) *Flags {
	f := RegisterObservability(fs)
	fs.BoolVar(&f.JSON, "json", false, "machine-readable JSON output")
	fs.StringVar(&f.Schema, "schema", "",
		fmt.Sprintf("header schema for the programmable parser: %s (empty: canonical default)",
			strings.Join(packet.BuiltinSchemaNames(), ", ")))
	return f
}

// RegisterObservability adds only -metrics-addr and -trace-sample, for a
// command that has no JSON output and runs no chosen schema.
func RegisterObservability(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve telemetry JSON and pprof on this address (e.g. 127.0.0.1:9090)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0,
		"record a per-packet pipeline witness every Nth packet (0 disables)")
	return f
}

// Serve starts the metrics endpoint when -metrics-addr is set. With the
// flag unset it returns (nil, nil), and the nil *telemetry.Server is safe
// to ignore.
func (f *Flags) Serve(reg *telemetry.Registry) (*telemetry.Server, error) {
	if f.MetricsAddr == "" {
		return nil, nil
	}
	return telemetry.Serve(f.MetricsAddr, reg)
}

// Sink builds the witness sampler selected by -trace-sample, retaining
// the most recent keep witnesses; it returns nil (which TraceSink treats
// as "never sample") when sampling is disabled.
func (f *Flags) Sink(keep int) *telemetry.TraceSink {
	if f.TraceSample <= 0 {
		return nil
	}
	return telemetry.NewTraceSink(f.TraceSample, keep)
}
