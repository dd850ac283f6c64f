package bench

import (
	"fmt"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// SchemaWorkload builds the pipeline and frame batch of one shipped
// schema's use case: the paper's gateway & load-balancer on 64-byte wire
// frames under the default schema, VXLAN tenant gateway, MPLS
// label-switching router, or GTP-U mobile gateway. maswitch -schema drives
// the same workload.
func SchemaWorkload(schema string, rep usecases.Representation, cfg Config) (*mat.Pipeline, [][]byte, error) {
	var (
		p   *mat.Pipeline
		fs  *trafficgen.FrameStream
		err error
	)
	switch schema {
	case packet.SchemaDefault:
		g := usecases.Generate(cfg.Services, cfg.Backends, cfg.Seed)
		if p, err = g.Build(rep); err != nil {
			return nil, nil, err
		}
		frames, _ := trafficgen.Wire(trafficgen.GwLB(g, 4096, 1.0, cfg.Seed+1))
		return p, frames, nil
	case packet.SchemaVXLAN:
		g := usecases.GenerateVXLAN(cfg.Services, cfg.Backends, cfg.Seed)
		if p, err = g.Build(rep); err == nil {
			fs, err = trafficgen.VXLANFrames(g, 4096, 1.0, cfg.Seed+1)
		}
	case packet.SchemaMPLS:
		g := usecases.GenerateMPLS(cfg.Services, 4, cfg.Seed)
		if p, err = g.Build(rep); err == nil {
			fs, err = trafficgen.MPLSFrames(g, 4096, 1.0, cfg.Seed+1)
		}
	case packet.SchemaGTPU:
		g := usecases.GenerateGTPU(cfg.Services, cfg.Backends, cfg.Seed)
		if p, err = g.Build(rep); err == nil {
			fs, err = trafficgen.GTPUFrames(g, 4096, 1.0, cfg.Seed+1)
		}
	default:
		return nil, nil, fmt.Errorf("bench: no schema workload for %q", schema)
	}
	if err != nil {
		return nil, nil, err
	}
	return p, fs.Frames(), nil
}
