package service

import (
	"errors"
	"fmt"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// materialize turns a job's record and its input bytes into what its
// chain runs on: the seeded parmcmc options, and the input pixels —
// the upload decoded from input, or the record's scene synthesized. It
// is the one such mapping: RunChain runs every role's chains through
// it, and spool recovery validates an interrupted upload with it. Both
// paths are deterministic, so every role materialising the same record
// runs the same chain.
func materialize(rec api.JobRecord, input []byte) (pix []float64, w, h int, opt parmcmc.Options, err error) {
	spec := rec.Options
	opt, aerr := optionsFromSpec(&spec)
	if aerr != nil {
		return nil, 0, 0, parmcmc.Options{}, fmt.Errorf("invalid options: %v", aerr)
	}
	opt.Seed = rec.Seed
	switch {
	case rec.Input != "":
		if pix, w, h, _, aerr = decodeImageBytes("", input); aerr != nil {
			return nil, 0, 0, parmcmc.Options{}, fmt.Errorf("decoding input: %v", aerr)
		}
	case rec.Scene != nil:
		ps, serr := rec.Scene.ToParmcmc()
		if serr != nil {
			// The decoder canonicalised the shape name at submit time, so
			// this can only mean a corrupted record.
			return nil, 0, 0, parmcmc.Options{}, serr
		}
		pix, _ = parmcmc.GenerateScene(ps)
		w, h = rec.Scene.W, rec.Scene.H
	default:
		return nil, 0, 0, parmcmc.Options{}, errors.New("no input")
	}
	return pix, w, h, opt, nil
}
